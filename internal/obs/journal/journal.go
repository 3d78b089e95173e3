// Package journal is the pipeline's event-level audit trail: an
// append-only, schema-versioned JSONL journal of typed milestone events
// (page fetched, captcha solved, bot discovered, policy audited,
// experiment started/settled, canary triggered, permission denied, code
// flagged), each stamped with the correlation identifiers — run ID, bot
// ID, experiment ID — carried through the pipeline via context.Context.
//
// Where internal/obs answers "how many and how fast" in aggregate, the
// journal answers "what happened to bot X in run Y": every event is one
// self-describing JSON line, so a journal file can be filtered,
// summarized, and replayed into a per-bot timeline (`botscan journal`)
// long after the run that produced it.
//
// The writer never blocks the pipeline: events go through a bounded
// channel drained by a background flusher, and when the buffer is
// saturated the event is dropped and counted on the obs.Registry
// (`journal_events_dropped_total`) instead of stalling a hot path.
//
// With Options.Ledger enabled, the journal is also tamper-evident: the
// flusher maintains a SHA-256 hash chain over every raw line and
// interleaves ledger records (anchors, Merkle-batched commitments, a
// closing seal) into the same file — see ledger.go and Verify.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the version stamped on every event this build
// writes. Decoders skip events from future schemas rather than
// guessing at their shape.
const SchemaVersion = 1

// Kind names one typed pipeline milestone.
type Kind string

// The event vocabulary, one constant per pipeline milestone.
const (
	// Crawl stage.
	KindPageFetched   Kind = "page_fetched"
	KindCaptchaSolved Kind = "captcha_solved"
	KindBotDiscovered Kind = "bot_discovered"

	// Traceability stage.
	KindPolicyAudited Kind = "policy_audited"

	// Code-analysis stage.
	KindCodeFlag Kind = "code_analysis_flag"

	// Honeypot stage.
	KindExperimentStarted Kind = "experiment_started"
	KindExperimentSettled Kind = "experiment_settled"
	KindCanaryTriggered   Kind = "canary_triggered"

	// Platform enforcement.
	KindPermissionDenied Kind = "permission_denied"

	// Pipeline orchestration.
	KindStageStarted   Kind = "stage_started"
	KindStageCompleted Kind = "stage_completed"

	// Degradation & chaos: emitted when a stage finishes with partial
	// results, a bot is quarantined after exhausting its retries, or the
	// fault injector fires.
	KindStageDegraded  Kind = "stage_degraded"
	KindBotQuarantined Kind = "bot_quarantined"
	KindFaultInjected  Kind = "fault_injected"

	// Crash-safety: checkpoint/resume progress and the pipeline
	// watchdog.
	KindCheckpointWritten Kind = "checkpoint_written"
	KindRunResumed        Kind = "run_resumed"
	KindWorkSkipped       Kind = "work_skipped"
	KindStageStalled      Kind = "stage_stalled"

	// Gateway traffic plane: session lifecycle and overload shedding.
	// session_shed marks a connection refused by admission control
	// (fields.reason: max_sessions | identify_rate | tenant_rate);
	// events_dropped
	// aggregates one session's slow-consumer losses at close.
	KindSessionOpened Kind = "session_opened"
	KindSessionClosed Kind = "session_closed"
	KindSessionShed   Kind = "session_shed"
	KindEventsDropped Kind = "events_dropped"
)

// Event is one journal line. Zero-valued correlation fields are omitted
// from the JSON so unrelated events stay small.
type Event struct {
	Schema    int       `json:"schema"`
	At        time.Time `json:"at"`
	Kind      Kind      `json:"kind"`
	Component string    `json:"component,omitempty"`

	// Correlation identifiers, normally filled from the context by Emit.
	RunID        string `json:"run_id,omitempty"`
	BotID        int    `json:"bot_id,omitempty"`
	Bot          string `json:"bot,omitempty"`
	ExperimentID string `json:"experiment_id,omitempty"`

	// Fields carries the kind-specific payload (URL fetched, verdict
	// class, token kind, …).
	Fields map[string]any `json:"fields,omitempty"`
}

// Options configures a Journal.
type Options struct {
	// Buffer is the bounded channel capacity between emitters and the
	// flusher (default 1024). When full, Emit drops instead of blocking.
	Buffer int
	// Obs receives the journal's emitted/dropped/write-error counters;
	// nil uses the process-default registry.
	Obs *obs.Registry
	// Now supplies event timestamps; defaults to time.Now.
	Now func() time.Time
	// Ledger enables tamper-evident hash chaining over the written
	// lines; the zero value leaves it off.
	Ledger LedgerOptions
	// Resume makes Open append to an existing journal instead of
	// truncating it. With the ledger enabled, the prior file is scanned
	// and the new segment's chain re-anchored on its head; a prior file
	// that fails verification refuses to resume.
	Resume bool
}

// Journal is the non-blocking JSONL writer. A nil *Journal is a valid
// no-op, so instrumented code never needs to check whether journaling
// is enabled.
type Journal struct {
	now func() time.Time

	ch   chan Event
	quit chan struct{} // closed by Close; tells the flusher to drain
	done chan struct{} // closed when the flusher has flushed and exited

	// emitMu fences Emit against Close: Close sets closed under the
	// write lock before signalling the flusher, so no emitter can
	// enqueue (and count) an event the final drain will never see.
	emitMu sync.RWMutex
	closed bool

	closeOnce sync.Once
	closeErr  error
	closer    io.Closer // underlying file when opened via Open
	path      string    // file path when opened via Open (anchor sink target)

	ledger *ledgerState // nil when the ledger is off
	// stats carries the ledger accounting: anchor fields are fixed
	// before the flusher starts, the totals are written by the flusher
	// at exit under statsMu.
	statsMu sync.Mutex
	stats   LedgerStats

	cEmitted *obs.Counter
	cDropped *obs.Counter
	cErrors  *obs.Counter
}

// New starts a journal writing JSONL to w. The caller must Close it to
// flush buffered events; w is not closed. With Options.Ledger enabled
// the stream starts at the genesis anchor; use Open for resume-aware
// re-anchoring onto an existing file.
func New(w io.Writer, opts Options) *Journal {
	return newJournal(w, opts, resumeState{}, false)
}

// newJournal builds the journal and, when resuming, seeds the ledger
// with the prior segment's state before the flusher goroutine starts —
// the flusher writes the segment anchor as its first act.
func newJournal(w io.Writer, opts Options, st resumeState, resumed bool) *Journal {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := obs.Or(opts.Obs)
	j := &Journal{
		now:      opts.Now,
		ch:       make(chan Event, opts.Buffer),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		cEmitted: reg.Counter("journal_events_total"),
		cDropped: reg.Counter("journal_events_dropped_total"),
		cErrors:  reg.Counter("journal_write_errors_total"),
	}
	if opts.Ledger.enabled() {
		l := newLedgerState(opts.Ledger, opts.Now)
		if resumed {
			l.resumed = true
			l.priorSeq = st.seq
			l.recovered = len(st.pending)
			l.priorHead = st.lastRec
			l.seq = st.seq
			l.chain = st.chain
			l.lastRec = st.lastRec
			l.pending = st.pending
		}
		j.ledger = l
		j.stats.Mode = l.opts.Mode
		j.stats.Resumed = l.resumed
		j.stats.PriorEvents = l.priorSeq
		j.stats.Recovered = l.recovered
		j.stats.PriorHead = l.priorHead
	}
	go j.flusher(w)
	return j
}

// Open starts a journal over a file at path. Without Options.Resume the
// file is created fresh (truncating any previous one); with Resume it
// is opened append-only so a pre-crash journal survives. When both
// Resume and the ledger are enabled, the existing file is verified and
// the new segment's chain anchored on its head — committing any
// uncovered tail the crashed segment left behind — so one file verifies
// end-to-end across every segment boundary. A prior file that fails
// verification (tampering, not crash damage) refuses to resume.
// Close flushes and closes the file.
func Open(path string, opts Options) (*Journal, error) {
	if !opts.Resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("journal: open: %w", err)
		}
		// A fresh journal invalidates any anchor a previous run left for
		// this path; a stale one would falsely flag the new file.
		os.Remove(AnchorPath(path))
		j := New(f, opts)
		j.closer = f
		j.path = path
		return j, nil
	}

	var st resumeState
	if opts.Ledger.enabled() {
		prior, err := os.Open(path)
		switch {
		case os.IsNotExist(err):
			// First segment; nothing to anchor on.
		case err != nil:
			return nil, fmt.Errorf("journal: open: %w", err)
		default:
			st, err = resumeScan(prior)
			prior.Close()
			if err != nil {
				return nil, err
			}
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	if st.torn {
		// The prior segment died mid-write: its final line has no
		// newline. The scan hashed the partial bytes as a line, so
		// completing it keeps file and chain consistent.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: repair torn tail: %w", err)
		}
	}
	resumed := st.priorRecords > 0 || st.seq > 0 || len(st.pending) > 0
	j := newJournal(f, opts, st, resumed)
	j.closer = f
	j.path = path
	return j, nil
}

// Emit appends an event, stamping the schema version and (when unset)
// the timestamp. It never blocks: with the buffer saturated, the event
// is dropped and the dropped-event counter incremented. Safe for
// concurrent use and safe (a counted drop) after Close.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	if e.Schema == 0 {
		e.Schema = SchemaVersion
	}
	if e.At.IsZero() {
		e.At = j.now()
	}
	// The read lock pins Close's closed-flag flip: once Emit passes the
	// check, Close cannot complete the flip until Emit's send has
	// landed, so every event counted as emitted is in the channel
	// before the flusher's final drain begins.
	j.emitMu.RLock()
	if j.closed {
		j.emitMu.RUnlock()
		j.cDropped.Inc()
		return
	}
	select {
	case j.ch <- e:
		j.cEmitted.Inc()
	default:
		j.cDropped.Inc()
	}
	j.emitMu.RUnlock()
}

// Close stops the flusher after draining every buffered event — with
// the ledger enabled, committing the final batch and writing the seal
// record — then closes the underlying file when the journal was opened
// via Open. Emit after (or racing) Close counts drops instead of
// losing counted events. Idempotent; later calls return the first
// error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.closeOnce.Do(func() {
		j.emitMu.Lock()
		j.closed = true
		j.emitMu.Unlock()
		close(j.quit)
		<-j.done
		if j.closer != nil {
			j.closeErr = j.closer.Close()
		}
		// External anchor sink: export the sealed chain head beside the
		// file, so verification can detect a wholesale rewrite that the
		// in-file chain alone cannot. Stats are final once done is closed.
		if j.ledger != nil && j.path != "" {
			if err := writeAnchor(j.path, j.Ledger()); err != nil && j.closeErr == nil {
				j.closeErr = fmt.Errorf("journal: write anchor: %w", err)
			}
		}
	})
	<-j.done
	return j.closeErr
}

// Ledger reports the journal's ledger accounting. The resume-anchor
// fields are valid from Open; Seq, Head, and Records settle once Close
// has returned. The zero value (Mode "") means the ledger is off.
func (j *Journal) Ledger() LedgerStats {
	if j == nil {
		return LedgerStats{}
	}
	j.statsMu.Lock()
	defer j.statsMu.Unlock()
	return j.stats
}

// lineSink adapts the flusher's bufio.Writer to the ledger's line
// interface, counting write errors like event writes do.
type lineSink struct {
	bw *bufio.Writer
	j  *Journal
}

func (s lineSink) writeLine(line []byte) error {
	if _, err := s.bw.Write(line); err != nil {
		s.j.cErrors.Inc()
		return err
	}
	if err := s.bw.WriteByte('\n'); err != nil {
		s.j.cErrors.Inc()
		return err
	}
	return nil
}

// flusher drains the channel onto w, flushing whenever the buffer goes
// idle so a live tail of the file stays current. With the ledger
// enabled it writes the segment anchor first, folds each line into the
// hash chain, commits full batches inline, commits partial batches
// after the ledger's Wait, and seals the stream on shutdown.
func (j *Journal) flusher(w io.Writer) {
	defer close(j.done)
	bw := bufio.NewWriter(w)
	sink := lineSink{bw: bw, j: j}
	led := j.ledger

	// waitC fires when a partial batch has sat uncommitted for the
	// ledger's Wait; nil (blocks forever) while nothing is pending.
	var waitTimer *time.Timer
	var waitC <-chan time.Time
	armWait := func() {
		if led == nil || len(led.pending) == 0 {
			return
		}
		if waitTimer == nil {
			waitTimer = time.NewTimer(led.opts.Wait)
		} else {
			waitTimer.Reset(led.opts.Wait)
		}
		waitC = waitTimer.C
	}
	disarmWait := func() {
		if waitTimer != nil && !waitTimer.Stop() {
			select {
			case <-waitTimer.C:
			default:
			}
		}
		waitC = nil
	}

	if led != nil {
		if err := led.anchor(sink); err != nil {
			j.cErrors.Inc()
		}
		bw.Flush()
	}

	write := func(e Event) {
		line, err := json.Marshal(e)
		if err != nil {
			j.cErrors.Inc()
			return
		}
		if err := sink.writeLine(line); err != nil {
			return
		}
		if led != nil {
			committed, err := led.note(sink, line)
			if err != nil {
				j.cErrors.Inc()
			}
			if committed {
				disarmWait()
			} else if waitC == nil {
				armWait()
			}
		}
	}
	finish := func() {
		if led != nil {
			if err := led.seal(sink); err != nil {
				j.cErrors.Inc()
			}
			j.statsMu.Lock()
			j.stats.Seq = led.seq
			j.stats.Head = hexDigest(led.chain)
			j.stats.Records = led.records
			j.statsMu.Unlock()
		}
		if err := bw.Flush(); err != nil {
			j.cErrors.Inc()
		}
	}

	for {
		select {
		case e := <-j.ch:
			write(e)
			if len(j.ch) == 0 {
				if err := bw.Flush(); err != nil {
					j.cErrors.Inc()
				}
			}
		case <-waitC:
			waitC = nil
			if led != nil && len(led.pending) > 0 {
				if err := led.commit(sink); err != nil {
					j.cErrors.Inc()
				}
				if err := bw.Flush(); err != nil {
					j.cErrors.Inc()
				}
			}
		case <-j.quit:
			for {
				select {
				case e := <-j.ch:
					write(e)
				default:
					disarmWait()
					finish()
					return
				}
			}
		}
	}
}
