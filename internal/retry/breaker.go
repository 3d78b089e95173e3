// Circuit breakers: when an endpoint class is persistently down,
// retrying each request individually burns the whole backoff schedule
// on work that cannot succeed. A Breaker
// watches the recent outcome window per key (host + endpoint class)
// and, past a failure-rate threshold, short-circuits further attempts
// in microseconds until a cooldown elapses; a half-open probe then
// decides whether the endpoint has recovered.
package retry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// ErrBreakerOpen is returned by Breaker.Allow while the circuit is
// open: the endpoint class failed persistently and attempts are being
// short-circuited until the cooldown elapses.
var ErrBreakerOpen = errors.New("retry: circuit open")

// BreakerState is a circuit's position.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed passes traffic and records outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every attempt until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe at a time; enough
	// consecutive probe successes close the circuit, any probe failure
	// reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerConfig tunes every breaker in a set.
type BreakerConfig struct {
	// Window is the rolling outcome window per key (default 16).
	Window int
	// MinSamples is how many outcomes the window needs before the
	// failure rate is trusted (default Window/2).
	MinSamples int
	// FailureRate opens the circuit when the windowed failure fraction
	// reaches it (default 0.6).
	FailureRate float64
	// OpenFor is the cooldown before an open circuit admits a half-open
	// probe (default 500ms).
	OpenFor time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// circuit again (default 2).
	HalfOpenProbes int
	// Now supplies the clock; defaults to time.Now. Tests inject a fake
	// clock to drive open→half-open deterministically.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.6
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// BreakerOptions wires a BreakerSet into the observability plane.
type BreakerOptions struct {
	Obs     *obs.Registry
	Journal *journal.Journal
	// OnTransition, when set, observes every state change after it is
	// journaled (tests use it to assert deterministic transitions).
	OnTransition func(key string, from, to BreakerState)
}

// Breaker is one key's circuit. A nil *Breaker is a valid no-op that
// always allows and records nothing, so unwired call sites stay clean.
type Breaker struct {
	set *BreakerSet
	key string

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring of recent outcomes; true = failure
	idx      int
	count    int
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	probeOK  int  // consecutive successful probes
}

// Allow reports whether an attempt may proceed. While open it returns
// ErrBreakerOpen (wrapped with the key) until the cooldown elapses,
// then admits a single half-open probe at a time. Every successful
// Allow must be paired with one Record call.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.set.cfg.Now().Sub(b.openedAt) < b.set.cfg.OpenFor {
			return fmt.Errorf("%w: %s", ErrBreakerOpen, b.key)
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		b.probeOK = 0
		return nil
	default: // half-open
		if b.probing {
			return fmt.Errorf("%w: %s (probe in flight)", ErrBreakerOpen, b.key)
		}
		b.probing = true
		return nil
	}
}

// Record feeds one attempt outcome back into the circuit. In the
// closed state it advances the rolling window and opens the circuit
// when the failure rate crosses the threshold; in the half-open state
// it resolves the in-flight probe.
func (b *Breaker) Record(failure bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if failure {
			b.open()
			return
		}
		b.probeOK++
		if b.probeOK >= b.set.cfg.HalfOpenProbes {
			b.reset()
			b.transition(BreakerClosed)
		}
	case BreakerOpen:
		// A straggler from before the circuit opened; the window is
		// already condemned, so the outcome is moot.
	default: // closed
		if b.count == len(b.window) {
			if b.window[b.idx] {
				b.fails--
			}
		} else {
			b.count++
		}
		b.window[b.idx] = failure
		if failure {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.count >= b.set.cfg.MinSamples &&
			float64(b.fails)/float64(b.count) >= b.set.cfg.FailureRate {
			b.open()
		}
	}
}

// State reports the circuit's current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// open must be called with b.mu held.
func (b *Breaker) open() {
	b.openedAt = b.set.cfg.Now()
	b.transition(BreakerOpen)
}

// reset clears the window after a recovery; must be called with b.mu
// held.
func (b *Breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.count, b.fails, b.probeOK = 0, 0, 0, 0
	b.probing = false
}

// transition moves the circuit and reports the change to the set;
// must be called with b.mu held.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	rate := 0.0
	if b.count > 0 {
		rate = float64(b.fails) / float64(b.count)
	}
	b.set.noteTransition(b.key, from, to, rate)
}

// BreakerSet holds one Breaker per key — host plus endpoint class —
// sharing a config and an observability wiring. A nil *BreakerSet is a
// valid no-op whose For returns nil breakers.
type BreakerSet struct {
	cfg  BreakerConfig
	opts BreakerOptions

	gOpen   *obs.Gauge
	cOpened *obs.Counter
	cClosed *obs.Counter

	mu  sync.Mutex
	jnl *journal.Journal
	m   map[string]*Breaker
}

// SetJournal re-points transition events at a new journal — used when a
// kill/resume harness reopens the journal between run segments. Nil-safe.
func (s *BreakerSet) SetJournal(j *journal.Journal) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.jnl = j
	s.mu.Unlock()
}

// journal snapshots the current journal under the lock.
func (s *BreakerSet) journal() *journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jnl
}

// NewBreakerSet builds a set with the given config and wiring.
func NewBreakerSet(cfg BreakerConfig, opts BreakerOptions) *BreakerSet {
	reg := obs.Or(opts.Obs)
	return &BreakerSet{
		cfg:     cfg.withDefaults(),
		opts:    opts,
		gOpen:   reg.Gauge("retry_breakers_open"),
		cOpened: reg.Counter("retry_breaker_opened_total"),
		cClosed: reg.Counter("retry_breaker_closed_total"),
		jnl:     opts.Journal,
		m:       make(map[string]*Breaker),
	}
}

// For returns the breaker for a key, creating it on first use. A nil
// set returns a nil (no-op) breaker.
func (s *BreakerSet) For(key string) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		b = &Breaker{set: s, key: key, window: make([]bool, s.cfg.Window)}
		s.m[key] = b
	}
	return b
}

// States snapshots every key's state, for inspection and reports.
func (s *BreakerSet) States() map[string]BreakerState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]*Breaker, 0, len(s.m))
	for _, b := range s.m {
		keys = append(keys, b)
	}
	s.mu.Unlock()
	out := make(map[string]BreakerState, len(keys))
	for _, b := range keys {
		out[b.key] = b.State()
	}
	return out
}

// noteTransition maintains the gauges/counters and journals
// breaker_opened / breaker_closed events. Half-open is a transient
// probing position: only entering open and returning to closed are
// journal-worthy milestones.
func (s *BreakerSet) noteTransition(key string, from, to BreakerState, rate float64) {
	switch to {
	case BreakerOpen:
		// The gauge counts circuits currently not closed; a half-open
		// probe failing back to open is the same outage, not a new one.
		if from == BreakerClosed {
			s.gOpen.Add(1)
		}
		s.cOpened.Inc()
		s.journal().Emit(journal.Event{
			Kind:      journal.KindBreakerOpened,
			Component: "retry",
			Fields: map[string]any{
				"endpoint":     key,
				"failure_rate": rate,
				"from":         from.String(),
			},
		})
	case BreakerClosed:
		s.gOpen.Add(-1)
		s.cClosed.Inc()
		s.journal().Emit(journal.Event{
			Kind:      journal.KindBreakerClosed,
			Component: "retry",
			Fields:    map[string]any{"endpoint": key},
		})
	}
	if s.opts.OnTransition != nil {
		s.opts.OnTransition(key, from, to)
	}
}
