// Crash-safe checkpointing for the pipeline: RunAllContext persists
// progress snapshots every N settled outcomes, at the end of the
// pipelined phase and at finish, and a resumed run replays settled
// (bot, stage) pairs instead of re-executing them. The snapshot format
// (a base plus appended deltas) and the store live in
// internal/checkpoint; this file holds the resume loader, the
// read-only replay index the executor consults before each stage, and
// the accumulator that the executor's per-worker outcome batches feed.
// The stage packages know nothing of checkpoints.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/scraper"
)

// ResumeLatest is the CheckpointOptions.Resume sentinel selecting the
// newest snapshot in the store instead of a specific run ID.
const ResumeLatest = "latest"

// ErrStageStalled is the cancellation cause the pipeline watchdog
// injects when the pipelined phase exceeds its soft deadline
// (Options.Exec.StageSoftDeadline).
var ErrStageStalled = errors.New("core: stage exceeded soft deadline")

// CheckpointOptions enables crash-safe checkpointing on RunAllContext.
// Checkpointing is on when either Store or Dir is set.
type CheckpointOptions struct {
	// Dir names a snapshot directory; NewAuditor opens (creating if
	// needed) a checkpoint.Store over it. Ignored when Store is set.
	Dir string
	// Store persists the snapshots; overrides Dir.
	Store *checkpoint.Store
	// Every writes a checkpoint once that many fresh outcomes (a bot's
	// collect, code-analysis or honeypot result) have reached it, in
	// addition to the unconditional writes at the end of the pipelined
	// phase and at finish (default 25). Outcomes arrive in per-worker
	// batches, so a write lands at a batch boundary. A periodic write
	// appends only the outcomes settled since the previous write, so
	// its cost does not grow with the run; the run's first write and
	// the final one save the whole snapshot.
	Every int
	// Resume selects a snapshot to resume from: a run ID, or
	// ResumeLatest for the newest in the store. Empty starts fresh.
	Resume string
}

// loadResume fetches and validates the snapshot named by
// Checkpoint.Resume. Identity fields must match the live options:
// resuming a checkpoint against a differently generated ecosystem
// would silently mix incompatible work, which is worse than refusing.
func (a *Auditor) loadResume() (*checkpoint.Snapshot, error) {
	cfg := a.opts.Checkpoint
	var snap *checkpoint.Snapshot
	var err error
	if cfg.Resume == ResumeLatest {
		snap, err = cfg.Store.Latest()
	} else {
		snap, err = cfg.Store.Load(cfg.Resume)
	}
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if snap.Seed != a.opts.Seed || snap.NumBots != a.opts.NumBots || snap.HoneypotSample != a.opts.Honeypot.Sample {
		return nil, fmt.Errorf(
			"core: resume: snapshot %s was written for seed=%d bots=%d sample=%d, run configured seed=%d bots=%d sample=%d",
			snap.RunID, snap.Seed, snap.NumBots, snap.HoneypotSample,
			a.opts.Seed, a.opts.NumBots, a.opts.Honeypot.Sample)
	}
	return snap, nil
}

// replay indexes a loaded snapshot's settled work for the executor,
// which looks each bot up here before each stage and reuses what it
// finds instead of running the stage. It is built once, before any
// worker starts, and only read after. It copies what it indexes into
// its own maps, so it shares none with the snapshot the checkpointer
// keeps writing. A fresh run's replay is empty.
type replay struct {
	ids     []int                     // the listing, empty when pagination must run
	collect map[int]pendingOutcome    // by bot ID: Rec or Qerr
	links   map[string]pendingOutcome // by link: RA (BotID 0) or Qerr
	hp      map[int]pendingOutcome    // by bot ID: V or Qerr
}

// newReplay indexes snap; a nil snap (a fresh run) indexes nothing.
func newReplay(snap *checkpoint.Snapshot) *replay {
	if snap == nil {
		return &replay{}
	}
	rp := &replay{
		ids:     append([]int(nil), snap.BotIDs...),
		collect: make(map[int]pendingOutcome, len(snap.Records)+len(snap.CollectQuarantine)),
		links:   make(map[string]pendingOutcome, len(snap.CodeLinks)+len(snap.CodeLinkErrs)),
		hp:      make(map[int]pendingOutcome, len(snap.Verdicts)+len(snap.HoneypotQuarantine)),
	}
	for _, rec := range snap.Records {
		rp.collect[rec.ID] = pendingOutcome{Rec: rec}
	}
	for _, q := range snap.CollectQuarantine {
		rp.collect[q.BotID] = pendingOutcome{Qerr: errors.New(q.Err)}
	}
	for link, ra := range snap.CodeLinks {
		rp.links[link] = pendingOutcome{Link: link, RA: ra}
	}
	for link, msg := range snap.CodeLinkErrs {
		rp.links[link] = pendingOutcome{Link: link, Qerr: errors.New(msg)}
	}
	for _, v := range snap.Verdicts {
		rp.hp[v.Subject.ListingID] = pendingOutcome{V: v}
	}
	for _, q := range snap.HoneypotQuarantine {
		rp.hp[q.BotID] = pendingOutcome{Qerr: errors.New(q.Err)}
	}
	return rp
}

// skipped journals one (bot, stage) pair replayed from the checkpoint
// instead of run, under the component of the stage package that runs
// it fresh.
func skipped(ctx context.Context, stage string, botID int, name string, p pendingOutcome) {
	component := stage
	if stage == "collect" {
		component = "scraper"
	}
	fields := map[string]any{"stage": stage, "reason": "settled in checkpoint"}
	if p.Qerr != nil {
		fields["reason"] = "quarantined in checkpoint"
	}
	if p.Link != "" {
		fields["link"] = p.Link
	}
	journal.Emit(journal.WithBot(ctx, botID, name), component, journal.KindWorkSkipped, fields)
}

// ckptState accumulates settled work during a run and writes snapshots
// through the store. A nil *ckptState (checkpointing disabled) is a
// valid no-op, mirroring the repo's nil-Journal idiom.
type ckptState struct {
	store *checkpoint.Store
	every int

	mu sync.Mutex
	// snap holds everything settled, for Settled() and the full saves;
	// delta holds what was settled since the last successful write.
	snap  *checkpoint.Snapshot
	delta *checkpoint.Snapshot
	// based is set once a full save of this run has succeeded and no
	// write has failed since, so a delta may be appended to the file.
	based bool
	fresh int // outcomes folded in since the last write

	ctx     context.Context // run-correlated journal context
	cWrites *obs.Counter
	cErrors *obs.Counter
}

// newCkptState builds the accumulator over a base snapshot — a loaded
// one when resuming, a fresh identity-only one otherwise.
func newCkptState(cfg CheckpointOptions, base *checkpoint.Snapshot, reg *obs.Registry) *ckptState {
	every := cfg.Every
	if every <= 0 {
		every = 25
	}
	return &ckptState{
		store:   cfg.Store,
		every:   every,
		snap:    base,
		delta:   &checkpoint.Snapshot{},
		ctx:     context.Background(),
		cWrites: reg.Counter("core_checkpoints_written_total"),
		cErrors: reg.Counter("core_checkpoint_write_errors_total"),
	}
}

// noteListed records the crawl's work plan once pagination settles.
func (c *ckptState) noteListed(ids []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.snap.BotIDs) == 0 {
		c.snap.BotIDs = append([]int(nil), ids...)
		c.delta.BotIDs = c.snap.BotIDs
	}
	c.mu.Unlock()
}

// pendingOutcome is one settled per-bot outcome, tagged by Stage: a
// collect outcome (Rec or Qerr), a code-analysis outcome for the bot's
// Link (RA or Qerr), or a honeypot outcome (V or Qerr). Executor
// workers buffer fresh ones between checkpoint flushes; the replay
// index holds the checkpointed ones.
type pendingOutcome struct {
	Stage string // "collect", "codeanalysis" or "honeypot"
	BotID int
	Link  string
	Rec   *scraper.Record
	RA    *codeanalysis.RepoAnalysis
	V     *honeypot.Verdict
	Qerr  error
}

// noteBatch folds a worker's buffered outcomes into the snapshot under
// one lock acquisition — the executor settles bots from many workers
// at once, and per-outcome locking plus per-outcome write checks would
// serialize them on checkpoint state. The batch still counts toward
// the periodic threshold, so durability lags by at most one worker
// buffer. It is the only periodic save path, and workers call it
// outside every bot-stage span, so a save is never timed as stage
// work.
func (c *ckptState) noteBatch(batch []pendingOutcome) {
	if c == nil || len(batch) == 0 {
		return
	}
	c.mu.Lock()
	for _, p := range batch {
		if p.Stage == "codeanalysis" && p.Qerr == nil {
			// Bots sharing a link share its one fetch and so its
			// outcome: store it once, as the master copy with no bot ID.
			if _, ok := c.snap.CodeLinks[p.Link]; ok {
				continue
			}
			master := *p.RA
			master.BotID = 0
			p.RA = &master
		}
		addOutcome(c.snap, p)
		addOutcome(c.delta, p)
	}
	c.fresh += len(batch)
	if c.fresh >= c.every {
		c.writeLocked(batch[len(batch)-1].Stage, false)
	}
	c.mu.Unlock()
}

// addOutcome folds one settled outcome into s.
func addOutcome(s *checkpoint.Snapshot, p pendingOutcome) {
	switch {
	case p.Stage == "codeanalysis" && p.Qerr != nil:
		if s.CodeLinkErrs == nil {
			s.CodeLinkErrs = make(map[string]string)
		}
		s.CodeLinkErrs[p.Link] = p.Qerr.Error()
	case p.Stage == "codeanalysis":
		if s.CodeLinks == nil {
			s.CodeLinks = make(map[string]*codeanalysis.RepoAnalysis)
		}
		s.CodeLinks[p.Link] = p.RA
	case p.Qerr != nil && p.Stage == "collect":
		s.CollectQuarantine = append(s.CollectQuarantine,
			checkpoint.QEntry{BotID: p.BotID, Err: p.Qerr.Error()})
	case p.Qerr != nil:
		s.HoneypotQuarantine = append(s.HoneypotQuarantine,
			checkpoint.QEntry{BotID: p.BotID, Err: p.Qerr.Error()})
	case p.Rec != nil:
		s.Records = append(s.Records, p.Rec)
	case p.V != nil:
		s.Verdicts = append(s.Verdicts, p.V)
	}
}

// boundary writes a snapshot unconditionally — called when the
// pipelined phase ends, so a crash after it loses none of its work.
func (c *ckptState) boundary(stage string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.writeLocked(stage, false)
	c.mu.Unlock()
}

// finish marks the run complete and writes the final snapshot.
func (c *ckptState) finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.snap.Completed = true
	c.writeLocked("final", true)
	c.mu.Unlock()
}

// writeLocked writes a checkpoint: the whole snapshot when full is set
// or no full save of this run stands yet (its first write, or the
// first after a failed one), otherwise only the delta settled since
// the last write. Either runs under the lock, which keeps the encoder
// from racing concurrent folds into the accumulating maps; a delta is
// a batch or two of outcomes, so the append is short. Caller holds
// c.mu.
func (c *ckptState) writeLocked(stage string, full bool) {
	c.fresh = 0
	var err error
	if full || !c.based {
		err = c.store.Save(c.snap)
	} else {
		err = c.store.Append(c.snap.RunID, c.delta)
	}
	c.based = err == nil
	if err != nil {
		// A failed checkpoint must not fail the science: count it,
		// journal it, and keep the pipeline running on the previous
		// write's durability. The delta is kept, and the next write
		// saves the whole snapshot.
		c.cErrors.Inc()
		journal.Emit(c.ctx, "core", journal.KindCheckpointWritten, map[string]any{
			"stage": stage,
			"error": err.Error(),
		})
		return
	}
	c.delta = &checkpoint.Snapshot{}
	c.cWrites.Inc()
	journal.Emit(c.ctx, "core", journal.KindCheckpointWritten, map[string]any{
		"stage":   stage,
		"settled": c.snap.Settled(),
		"path":    c.store.Path(c.snap.RunID),
	})
}

// watchdog arms a soft-deadline timer over the pipelined phase's
// context: on expiry it journals stage_stalled, stage name, with a
// full goroutine dump, then cancels the phase with ErrStageStalled as
// the cause. The returned stop must be called when the phase ends.
func watchdog(ctx context.Context, name string, deadline time.Duration, cancel context.CancelCauseFunc) func() {
	t := time.AfterFunc(deadline, func() {
		// The dump is the point: a stalled stage's goroutines say where
		// it is stuck, and after cancellation that evidence is gone.
		buf := make([]byte, 256<<10)
		n := runtime.Stack(buf, true)
		journal.Emit(ctx, "core", journal.KindStageStalled, map[string]any{
			"stage":            name,
			"deadline_seconds": deadline.Seconds(),
			"goroutines":       string(buf[:n]),
		})
		cancel(fmt.Errorf("%w: stage %s after %s", ErrStageStalled, name, deadline))
	})
	return func() {
		t.Stop()
		cancel(nil)
	}
}
