// Package faults is the chaos substrate for the pipeline: a
// deterministic, seedable fault injector that wraps the synthetic
// ecosystem's HTTP services (listing server, code host) as handler
// middleware, and the gateway's event pump as a frame-level fault
// policy.
//
// Every decision is a pure function of (seed, endpoint key, nth request
// to that endpoint): the same seed and profile reproduce the same fault
// schedule byte for byte, which is what lets chaos tests assert an
// exact degradation ledger instead of a statistical one. The injector
// records every fault it fires; Log and WriteLedger expose the record
// in a canonical order for cross-run comparison.
package faults

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// Kind names one injectable failure mode.
type Kind string

const (
	// KindServerError replaces the response with a 503.
	KindServerError Kind = "server_error"
	// KindConnReset tears the TCP connection down mid-request.
	KindConnReset Kind = "conn_reset"
	// KindTruncatedBody declares the full Content-Length but sends only
	// half the body, so clients see io.ErrUnexpectedEOF.
	KindTruncatedBody Kind = "truncated_body"
	// KindStall holds the request far beyond client timeouts before
	// answering.
	KindStall Kind = "stall"
	// KindLatency adds a small fixed delay, then serves normally.
	KindLatency Kind = "latency"
	// KindGatewayDropFrame silently drops one gateway event frame.
	KindGatewayDropFrame Kind = "gw_drop_frame"
	// KindGatewayDisconnect closes a gateway session mid-stream.
	KindGatewayDisconnect Kind = "gw_disconnect"
)

// Rates holds per-kind fault probabilities for HTTP traffic. They are
// walked cumulatively in declaration order, so at most one fault fires
// per request and the sum must stay ≤ 1.
type Rates struct {
	ServerError   float64
	ConnReset     float64
	TruncatedBody float64
	Stall         float64
	Latency       float64
}

func (r Rates) total() float64 {
	return r.ServerError + r.ConnReset + r.TruncatedBody + r.Stall + r.Latency
}

// Profile is a named chaos level: default HTTP rates, optional
// per-endpoint overrides (longest path-prefix match wins), and
// gateway-side frame fault rates.
type Profile struct {
	Name    string
	Default Rates
	// PerEndpoint overrides Default for request paths matching a prefix.
	PerEndpoint map[string]Rates
	// StallFor is how long a KindStall fault holds the request (default 2s).
	StallFor time.Duration
	// ExtraLatency is the delay a KindLatency fault adds (default 5ms).
	ExtraLatency time.Duration
	// GatewayDropFrame and GatewayDisconnect are per-frame probabilities
	// applied by EventFault, walked cumulatively (drop first).
	GatewayDropFrame  float64
	GatewayDisconnect float64
}

// Named returns a built-in profile by name. The vocabulary:
//
//   - none:     all rates zero — a wired injector that never fires.
//   - mild:     ~5% retryable HTTP faults plus light latency.
//   - moderate: ~15% retryable HTTP faults, 10% latency, light gateway
//     frame loss — the CI chaos level.
//   - storm:    ~30% HTTP faults including stalls past client timeouts,
//     heavier gateway loss.
func Named(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return p, nil
}

// Names lists the built-in profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var profiles = map[string]Profile{
	"none": {Name: "none"},
	"mild": {
		Name:         "mild",
		Default:      Rates{ServerError: 0.03, ConnReset: 0.01, TruncatedBody: 0.01, Latency: 0.05},
		ExtraLatency: 5 * time.Millisecond,
	},
	"moderate": {
		Name:              "moderate",
		Default:           Rates{ServerError: 0.09, ConnReset: 0.03, TruncatedBody: 0.03, Latency: 0.10},
		ExtraLatency:      5 * time.Millisecond,
		GatewayDropFrame:  0.02,
		GatewayDisconnect: 0.01,
	},
	"storm": {
		Name:              "storm",
		Default:           Rates{ServerError: 0.15, ConnReset: 0.06, TruncatedBody: 0.05, Stall: 0.04, Latency: 0.15},
		StallFor:          2 * time.Second,
		ExtraLatency:      10 * time.Millisecond,
		GatewayDropFrame:  0.05,
		GatewayDisconnect: 0.03,
	},
}

// Fault is one fired fault, as recorded in the degradation ledger.
// Endpoint is "METHOD uri" for HTTP faults and "GW bot" for gateway
// frame faults; Attempt is the 1-based index of that request among all
// requests to the same endpoint.
type Fault struct {
	Endpoint string `json:"endpoint"`
	Attempt  int    `json:"attempt"`
	Kind     Kind   `json:"kind"`
}

// Options wires the injector into the observability plane.
type Options struct {
	Obs     *obs.Registry
	Journal *journal.Journal
}

// Injector decides, injects, and records faults. All methods are safe
// for concurrent use; a nil *Injector is a valid no-op.
type Injector struct {
	seed int64

	cTotal  *obs.Counter
	cByKind map[Kind]*obs.Counter

	mu       sync.Mutex
	prof     Profile
	jnl      *journal.Journal
	attempts map[string]int
	log      []Fault
}

// New builds an injector for a profile and seed. Equal (profile, seed)
// pairs produce identical fault schedules for identical request
// sequences.
func New(prof Profile, seed int64, opts Options) *Injector {
	if prof.StallFor <= 0 {
		prof.StallFor = 2 * time.Second
	}
	if prof.ExtraLatency <= 0 {
		prof.ExtraLatency = 5 * time.Millisecond
	}
	reg := obs.Or(opts.Obs)
	inj := &Injector{
		prof:     prof,
		seed:     seed,
		jnl:      opts.Journal,
		cTotal:   reg.Counter("faults_injected_total"),
		cByKind:  make(map[Kind]*obs.Counter),
		attempts: make(map[string]int),
	}
	for _, k := range []Kind{KindServerError, KindConnReset, KindTruncatedBody, KindStall, KindLatency, KindGatewayDropFrame, KindGatewayDisconnect} {
		inj.cByKind[k] = reg.Counter("faults_injected_" + string(k) + "_total")
	}
	return inj
}

// Profile reports the profile the injector runs.
func (i *Injector) Profile() Profile {
	if i == nil {
		return Profile{Name: "none"}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.prof
}

// SetProfile swaps the active profile at runtime — the soak conductor's
// ramp knob. Attempt counters are NOT reset, so decisions stay a pure
// function of (seed, endpoint key, attempt) within each profile window.
// Safe for concurrent use; a nil injector ignores the call.
func (i *Injector) SetProfile(prof Profile) {
	if i == nil {
		return
	}
	if prof.StallFor <= 0 {
		prof.StallFor = 2 * time.Second
	}
	if prof.ExtraLatency <= 0 {
		prof.ExtraLatency = 5 * time.Millisecond
	}
	i.mu.Lock()
	i.prof = prof
	i.mu.Unlock()
}

// SetJournal re-points fault-event emission at a new journal — needed
// when a kill/resume harness reopens the journal between run segments.
func (i *Injector) SetJournal(j *journal.Journal) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.jnl = j
	i.mu.Unlock()
}

// profile snapshots the active profile under the lock.
func (i *Injector) profile() Profile {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.prof
}

// exemptPrefixes are operational surfaces the injector never touches:
// health and metrics must stay honest under chaos, and the captcha
// endpoint is part of the anti-scraping defence, not the network.
var exemptPrefixes = []string{"/metrics", "/healthz", "/readyz", "/debug/", "/captcha"}

func exempt(path string) bool {
	for _, p := range exemptPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// ratesFor resolves the effective rates for a path: the longest
// matching PerEndpoint prefix, else the profile default.
func (i *Injector) ratesFor(path string) Rates {
	prof := i.profile()
	r := prof.Default
	best := -1
	for prefix, pr := range prof.PerEndpoint {
		if strings.HasPrefix(path, prefix) && len(prefix) > best {
			best = len(prefix)
			r = pr
		}
	}
	return r
}

// hashFloat maps (seed, key, attempt) to a uniform draw in [0, 1).
func hashFloat(seed int64, key string, attempt int) float64 {
	h := fnv.New64a()
	var b [8]byte
	for n := 0; n < 8; n++ {
		b[n] = byte(seed >> (8 * n))
	}
	h.Write(b[:])
	io.WriteString(h, key)
	h.Write([]byte{'#'})
	io.WriteString(h, strconv.Itoa(attempt))
	// FNV alone has weak avalanche on trailing-byte changes, which is
	// exactly what sequential attempt indices are — finalize with a
	// murmur3-style mixer so consecutive attempts draw uniformly.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(uint64(1)<<53)
}

// decide assigns the next attempt index for key and picks at most one
// fault kind by walking thresholds against the deterministic draw.
func (i *Injector) decide(key string, thresholds []struct {
	k    Kind
	rate float64
}) (Kind, int) {
	i.mu.Lock()
	attempt := i.attempts[key] + 1
	i.attempts[key] = attempt
	i.mu.Unlock()

	draw := hashFloat(i.seed, key, attempt)
	acc := 0.0
	for _, t := range thresholds {
		acc += t.rate
		if t.rate > 0 && draw < acc {
			i.record(Fault{Endpoint: key, Attempt: attempt, Kind: t.k})
			return t.k, attempt
		}
	}
	return "", attempt
}

func (i *Injector) record(f Fault) {
	i.mu.Lock()
	i.log = append(i.log, f)
	jnl := i.jnl
	i.mu.Unlock()
	i.cTotal.Inc()
	if c, ok := i.cByKind[f.Kind]; ok {
		c.Inc()
	}
	jnl.Emit(journal.Event{
		Kind:      journal.KindFaultInjected,
		Component: "faults",
		Fields: map[string]any{
			"endpoint": f.Endpoint,
			"attempt":  f.Attempt,
			"fault":    string(f.Kind),
		},
	})
}

// httpDecide picks a fault for one HTTP request.
func (i *Injector) httpDecide(method, uri, path string) (Kind, int) {
	r := i.ratesFor(path)
	return i.decide(method+" "+uri, []struct {
		k    Kind
		rate float64
	}{
		{KindServerError, r.ServerError},
		{KindConnReset, r.ConnReset},
		{KindTruncatedBody, r.TruncatedBody},
		{KindStall, r.Stall},
		{KindLatency, r.Latency},
	})
}

// EventFault decides the fate of one gateway event frame destined for
// bot: drop it, or tear the session down. It satisfies the gateway's
// FaultPolicy interface without the gateway importing this package.
func (i *Injector) EventFault(bot string) (drop, disconnect bool) {
	if i == nil {
		return false, false
	}
	prof := i.profile()
	if prof.GatewayDropFrame <= 0 && prof.GatewayDisconnect <= 0 {
		return false, false
	}
	kind, _ := i.decide("GW "+bot, []struct {
		k    Kind
		rate float64
	}{
		{KindGatewayDropFrame, prof.GatewayDropFrame},
		{KindGatewayDisconnect, prof.GatewayDisconnect},
	})
	switch kind {
	case KindGatewayDropFrame:
		return true, false
	case KindGatewayDisconnect:
		return false, true
	}
	return false, false
}

// Middleware wraps an http.Handler with fault injection. Operational
// endpoints (/metrics, /healthz, /readyz, /debug/, /captcha) pass
// through untouched and are not counted.
func (i *Injector) Middleware(next http.Handler) http.Handler {
	if i == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		kind, _ := i.httpDecide(r.Method, r.URL.RequestURI(), r.URL.Path)
		switch kind {
		case KindServerError:
			http.Error(w, "injected fault: server_error", http.StatusServiceUnavailable)
		case KindConnReset:
			abortConn(w)
		case KindTruncatedBody:
			i.serveTruncated(w, r, next)
		case KindStall:
			select {
			case <-time.After(i.profile().StallFor):
			case <-r.Context().Done():
				return
			}
			next.ServeHTTP(w, r)
		case KindLatency:
			select {
			case <-time.After(i.profile().ExtraLatency):
			case <-r.Context().Done():
				return
			}
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// abortConn kills the underlying TCP connection without a response.
func abortConn(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// serveTruncated captures the real response, declares its full length,
// and sends only the first half, so the client's body read fails with
// io.ErrUnexpectedEOF.
func (i *Injector) serveTruncated(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := &captureWriter{header: make(http.Header), code: http.StatusOK}
	next.ServeHTTP(rec, r)
	body := rec.buf.Bytes()
	if len(body) < 2 {
		abortConn(w)
		return
	}
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.code)
	w.Write(body[:len(body)/2])
	// Returning with fewer bytes written than declared makes net/http
	// sever the connection, which is exactly the failure we want.
}

type captureWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.header }
func (c *captureWriter) WriteHeader(code int) {
	c.code = code
}
func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }

// Count reports the number of faults fired so far.
func (i *Injector) Count() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.log)
}

// Log returns the fault record in canonical order (endpoint, attempt,
// kind) — the shape compared across runs for determinism.
func (i *Injector) Log() []Fault {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	out := make([]Fault, len(i.log))
	copy(out, i.log)
	i.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Endpoint != out[b].Endpoint {
			return out[a].Endpoint < out[b].Endpoint
		}
		if out[a].Attempt != out[b].Attempt {
			return out[a].Attempt < out[b].Attempt
		}
		return out[a].Kind < out[b].Kind
	})
	return out
}

// WriteLedger writes the canonical fault ledger as text, one fault per
// line. Equal seeds and profiles produce byte-identical ledgers.
func (i *Injector) WriteLedger(w io.Writer) error {
	for _, f := range i.Log() {
		if _, err := fmt.Fprintf(w, "%s #%d %s\n", f.Endpoint, f.Attempt, f.Kind); err != nil {
			return err
		}
	}
	return nil
}
