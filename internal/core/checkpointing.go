// Crash-safe checkpointing for the pipeline: RunAllContext persists
// progress snapshots every N settled bots, at the end of the pipelined
// phase and at finish, and
// a resumed run replays settled (bot, stage) pairs instead of
// re-executing them. The snapshot format and atomic store live in
// internal/checkpoint; this file is the pipeline-side accumulator that
// feeds them and the resume loader that validates and unpacks them.
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
	"repro/internal/retry"
	"repro/internal/scraper"
)

// ResumeLatest is the CheckpointOptions.Resume sentinel selecting the
// newest snapshot in the store instead of a specific run ID.
const ResumeLatest = "latest"

// ErrStageStalled is the cancellation cause the stage watchdog injects
// when a stage exceeds its soft deadline
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
	// Every writes a snapshot after that many freshly settled bots, in
	// addition to the unconditional writes at the end of the pipelined
	// phase and at finish (default 25).
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

// scraperResume unpacks a snapshot's collect-stage work into the form
// the crawl consumes.
func scraperResume(snap *checkpoint.Snapshot) *scraper.ResumeState {
	rs := &scraper.ResumeState{
		IDs:         snap.BotIDs,
		Records:     make(map[int]*scraper.Record, len(snap.Records)),
		Quarantined: make(map[int]error, len(snap.CollectQuarantine)),
	}
	for _, rec := range snap.Records {
		rs.Records[rec.ID] = rec
	}
	for _, q := range snap.CollectQuarantine {
		rs.Quarantined[q.BotID] = errors.New(q.Err)
	}
	return rs
}

// codeResume unpacks the code-analysis links.
func codeResume(snap *checkpoint.Snapshot) *codeanalysis.AnalyzeResume {
	return &codeanalysis.AnalyzeResume{
		Settled: snap.CodeLinks,
		Failed:  snap.CodeLinkErrs,
	}
}

// honeypotResume unpacks the settled experiments, keyed by listing ID.
func honeypotResume(snap *checkpoint.Snapshot) *honeypot.CampaignResume {
	hr := &honeypot.CampaignResume{
		Verdicts:    make(map[int]*honeypot.Verdict, len(snap.Verdicts)),
		Quarantined: make(map[int]error, len(snap.HoneypotQuarantine)),
	}
	for _, v := range snap.Verdicts {
		hr.Verdicts[v.Subject.ListingID] = v
	}
	for _, q := range snap.HoneypotQuarantine {
		hr.Quarantined[q.BotID] = errors.New(q.Err)
	}
	return hr
}

// ckptState accumulates settled work during a run and writes snapshots
// through the store. A nil *ckptState (checkpointing disabled) is a
// valid no-op, mirroring the repo's nil-Journal idiom.
type ckptState struct {
	store *checkpoint.Store
	every int

	mu    sync.Mutex
	snap  *checkpoint.Snapshot
	fresh int // settled bots since the last periodic write
	// budgets are snapshotted into BudgetLeft at every write so a
	// resumed run restores each stage's remainder.
	budgets map[string]*retry.Budget

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
	if base.CodeLinks == nil {
		base.CodeLinks = make(map[string]*codeanalysis.RepoAnalysis)
	}
	if base.CodeLinkErrs == nil {
		base.CodeLinkErrs = make(map[string]string)
	}
	if base.BudgetLeft == nil {
		base.BudgetLeft = make(map[string]int)
	}
	return &ckptState{
		store:   cfg.Store,
		every:   every,
		snap:    base,
		budgets: make(map[string]*retry.Budget),
		ctx:     context.Background(),
		cWrites: reg.Counter("core_checkpoints_written_total"),
		cErrors: reg.Counter("core_checkpoint_write_errors_total"),
	}
}

// trackBudget registers a stage budget whose remainder every snapshot
// captures.
func (c *ckptState) trackBudget(stage string, b *retry.Budget) {
	if c == nil || b == nil {
		return
	}
	c.mu.Lock()
	c.budgets[stage] = b
	c.mu.Unlock()
}

// noteListed records the crawl's work plan once pagination settles.
func (c *ckptState) noteListed(ids []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.snap.BotIDs) == 0 {
		c.snap.BotIDs = append([]int(nil), ids...)
	}
	c.mu.Unlock()
}

// noteLink records one freshly settled unique code link.
func (c *ckptState) noteLink(link string, ra *codeanalysis.RepoAnalysis, errText string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if errText != "" {
		c.snap.CodeLinkErrs[link] = errText
	} else {
		c.snap.CodeLinks[link] = ra
	}
	c.writeIfDueLocked("codeanalysis")
	c.mu.Unlock()
}

// pendingOutcome is one settled per-bot outcome buffered by an executor
// worker between checkpoint flushes: either a collect outcome (Rec or
// Qerr) or a honeypot outcome (V or Qerr), tagged by Stage.
type pendingOutcome struct {
	Stage string // "collect" or "honeypot"
	BotID int
	Rec   *scraper.Record
	V     *honeypot.Verdict
	Qerr  error
}

// noteBatch folds a worker's buffered outcomes into the snapshot under
// one lock acquisition — the executor settles bots from many workers
// at once, and per-outcome locking plus per-outcome write checks would
// serialize them on checkpoint state. The batch still counts toward
// the periodic threshold, so durability lags by at most one worker
// buffer.
func (c *ckptState) noteBatch(batch []pendingOutcome) {
	if c == nil || len(batch) == 0 {
		return
	}
	c.mu.Lock()
	for _, p := range batch {
		switch {
		case p.Qerr != nil && p.Stage == "collect":
			c.snap.CollectQuarantine = append(c.snap.CollectQuarantine,
				checkpoint.QEntry{BotID: p.BotID, Err: p.Qerr.Error()})
		case p.Qerr != nil:
			c.snap.HoneypotQuarantine = append(c.snap.HoneypotQuarantine,
				checkpoint.QEntry{BotID: p.BotID, Err: p.Qerr.Error()})
		case p.Rec != nil:
			c.snap.Records = append(c.snap.Records, p.Rec)
		case p.V != nil:
			c.snap.Verdicts = append(c.snap.Verdicts, p.V)
		}
	}
	c.fresh += len(batch)
	if c.fresh >= c.every {
		c.writeLocked(batch[len(batch)-1].Stage)
	}
	c.mu.Unlock()
}

// boundary writes a snapshot unconditionally — called when the
// pipelined phase ends, so a crash after it loses none of its work.
func (c *ckptState) boundary(stage string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.writeLocked(stage)
	c.mu.Unlock()
}

// finish marks the run complete and writes the final snapshot.
func (c *ckptState) finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.snap.Completed = true
	c.writeLocked("final")
	c.mu.Unlock()
}

// writeIfDueLocked counts one settled bot and writes when the periodic
// threshold is reached. Caller holds c.mu.
func (c *ckptState) writeIfDueLocked(stage string) {
	c.fresh++
	if c.fresh >= c.every {
		c.writeLocked(stage)
	}
}

// writeLocked captures budget remainders and saves the snapshot. The
// save (file write + rename) runs under the lock: snapshots are small
// and holding it keeps the encoder from racing concurrent appends to
// the accumulating maps. Caller holds c.mu.
func (c *ckptState) writeLocked(stage string) {
	c.fresh = 0
	for name, b := range c.budgets {
		c.snap.BudgetLeft[name] = b.Remaining()
	}
	if err := c.store.Save(c.snap); err != nil {
		// A failed checkpoint must not fail the science: count it,
		// journal it, and keep the pipeline running on the previous
		// snapshot's durability.
		c.cErrors.Inc()
		journal.Emit(c.ctx, "core", journal.KindCheckpointWritten, map[string]any{
			"stage": stage,
			"error": err.Error(),
		})
		return
	}
	c.cWrites.Inc()
	journal.Emit(c.ctx, "core", journal.KindCheckpointWritten, map[string]any{
		"stage":   stage,
		"settled": c.snap.Settled(),
		"path":    c.store.Path(c.snap.RunID),
	})
}

// watchdog arms a soft-deadline timer over a stage context: on expiry
// it journals stage_stalled with a full goroutine dump, then cancels
// the stage with ErrStageStalled as the cause. The returned stop must
// be called when the stage ends.
func watchdog(sctx context.Context, name string, deadline time.Duration, cancel context.CancelCauseFunc) func() {
	t := time.AfterFunc(deadline, func() {
		// The dump is the point: a stalled stage's goroutines say where
		// it is stuck, and after cancellation that evidence is gone.
		buf := make([]byte, 256<<10)
		n := runtime.Stack(buf, true)
		journal.Emit(sctx, "core", journal.KindStageStalled, map[string]any{
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
