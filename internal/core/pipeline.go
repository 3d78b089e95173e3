// The pipeline's executor: bots are partitioned across N shards and
// each worker carries one bot through
// collect → traceability → code analysis → honeypot before taking the
// next, stealing from loaded shards once its own drains. Per-stage
// concurrency is bounded by counting gates, so the listing server,
// code host, and gateway each see tunable pressure regardless of how
// many workers are in flight.
//
// Determinism: every per-bot outcome is computed by the stage
// packages' per-bot primitives (Crawler, Analyzer, CampaignRunner),
// per-experiment RNG feeds are derived from stable identities,
// aggregates are commutative, and final assembly walks canonical
// (listing/sample) order — so a fault-free run renders the same
// results on the same seed at any shard count, one included.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/codeanalysis"
	"repro/internal/core/sched"
	"repro/internal/honeypot"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/scraper"
	"repro/internal/traceability"
)

// ScaleStats is the executor's scheduler and throughput accounting,
// which the report's scale block and perfbench read.
type ScaleStats struct {
	Bots    int   `json:"bots"`   // listed bots (collect items)
	Sample  int   `json:"sample"` // honeypot sample size
	Items   int   `json:"items"`  // scheduled work items (listing ∪ sample)
	Seed    int64 `json:"seed"`
	Shards  int   `json:"shards"`
	Workers int   `json:"workers"`

	ElapsedMS  float64 `json:"elapsed_ms"`
	BotsPerSec float64 `json:"bots_per_sec"`

	Steals           int64   `json:"steals"`
	ExecutedPerShard []int64 `json:"executed_per_shard"`
	StolenPerShard   []int64 `json:"stolen_per_shard"`
	PerWorker        []int64 `json:"executed_per_worker"`
	// ShardImbalance is max/mean executed items per shard; 1.0 is a
	// perfectly balanced drain.
	ShardImbalance float64 `json:"shard_imbalance"`

	// Stages carries per-stage gate throughput (items/sec, busy time,
	// peak in-flight) for collect, traceability, codeanalysis, honeypot.
	Stages []sched.GateStats `json:"stages"`
}

// Report renders the scale accounting as text.
func (s *ScaleStats) Report(w io.Writer) {
	fmt.Fprintf(w, "Sharded executor: %d items (%d listed, sample %d) on %d shard(s) × %d worker(s) in %.0fms (%.1f bots/sec, %d steal(s), imbalance %.2f)\n",
		s.Items, s.Bots, s.Sample, s.Shards, s.Workers, s.ElapsedMS, s.BotsPerSec, s.Steals, s.ShardImbalance)
	for _, g := range s.Stages {
		fmt.Fprintf(w, "  stage %-14s limit %-3d items %-6d %8.1f items/sec  busy %.0fms  peak in-flight %d\n",
			g.Stage, g.Limit, g.Items, g.ItemsPerSec, g.BusyMS, g.MaxInflight)
	}
}

// workItem is one bot's trip through the pipeline: listIdx indexes the
// listing (-1 for a sampled bot the partial listing missed), sampleIdx
// indexes the honeypot sample (-1 for unsampled bots).
type workItem struct {
	botID     int
	listIdx   int
	sampleIdx int
}

// shardStage is one pipeline stage's shared envelope: its
// watchdog-armed context, its concurrency gate, and the closer of its
// run-level trace span.
type shardStage struct {
	name   string
	ctx    context.Context
	gate   *sched.Gate
	stop   func()
	endRun func() time.Duration
}

func shardImbalance(executed []int64) float64 {
	if len(executed) == 0 {
		return 0
	}
	var sum, max int64
	for _, n := range executed {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(executed))
	return float64(max) / mean
}

// runSharded executes the four analysis stages as one pipelined phase
// over the work-stealing scheduler.
func (a *Auditor) runSharded(r *run) error {
	res := r.res
	shards := a.opts.Exec.Shards
	sw := a.opts.Exec.StageWorkers
	if sw.Collect <= 0 {
		sw.Collect = shards
	}
	if sw.Code <= 0 {
		sw.Code = shards
	}
	if sw.Honeypot <= 0 {
		sw.Honeypot = shards
	}
	workers := shards

	pctx, cancel := context.WithCancelCause(r.ctx)
	defer cancel(nil)

	// All four stage envelopes open for the whole phase: the stages
	// interleave over one wall-clock window, so their run spans overlap
	// and their soft deadlines each cover the full window.
	mkStage := func(name string, limit int) *shardStage {
		sctx := bottrace.ContextWithStage(pctx, r.tracer, name)
		stop := func() {}
		if dl := a.opts.Exec.StageSoftDeadline; dl > 0 {
			stop = watchdog(sctx, name, dl, cancel)
		}
		journal.Emit(sctx, "core", journal.KindStageStarted, map[string]any{
			"stage": name, "concurrent": true,
		})
		return &shardStage{
			name: name, ctx: sctx, gate: sched.NewGate(name, limit),
			stop: stop, endRun: r.tracer.StartRunSpan(name),
		}
	}
	stCollect := mkStage("collect", sw.Collect)
	stTrace := mkStage("traceability", workers)
	stCode := mkStage("codeanalysis", sw.Code)
	stHp := mkStage("honeypot", sw.Honeypot)
	stages := []*shardStage{stCollect, stTrace, stCode, stHp}
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			for _, st := range stages {
				st.stop()
				wall := st.endRun()
				gs := st.gate.Stats()
				journal.Emit(st.ctx, "core", journal.KindStageCompleted, map[string]any{
					"stage":      st.name,
					"concurrent": true,
					"seconds":    wall.Seconds(),
					"items":      gs.Items,
				})
			}
		})
	}
	defer cleanup()

	// failWith translates a fatal error: watchdog stalls surface as
	// ErrStageStalled, cancellation as the context's error.
	failWith := func(stage string, err error) error {
		cleanup()
		if cause := context.Cause(pctx); cause != nil && errors.Is(cause, ErrStageStalled) {
			return cause
		}
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("core: %s: %w", stage, err)
	}

	listRetries := retriesOf(a.listClient)
	codeRetries := retriesOf(a.codeClient)
	phaseStart := time.Now()

	// Listing discovery stays serial — it is one paginated walk — and
	// runs under the collect stage's envelope.
	crawler := scraper.NewCrawler(a.listClient, scraper.Config{
		Strict:   a.opts.Exec.Strict,
		Resume:   r.scrapeRes,
		OnListed: r.ck.noteListed,
	})
	ids, listErr, err := crawler.List(stCollect.ctx)
	if err != nil {
		return failWith("collect", err)
	}

	az := codeanalysis.NewAnalyzer(a.codeClient, codeanalysis.AnalyzeOptions{
		Resume: r.codeRes,
		OnLink: r.ck.noteLink,
	})

	camp := honeypot.NewCampaignRunner(a.honeypotEnv(), a.eco, a.campaignConfig(r.hpRes))
	if err := camp.ApplyResume(stHp.ctx); err != nil {
		return failWith("honeypot", err)
	}

	// The work plan: one item per listed bot, plus one per sampled bot
	// the (possibly partial) listing missed, so a truncated pagination
	// never silently drops a sampled bot's honeypot experiment.
	items := make([]workItem, 0, len(ids))
	byBot := make(map[int]int, len(ids))
	for i, id := range ids {
		byBot[id] = len(items)
		items = append(items, workItem{botID: id, listIdx: i, sampleIdx: -1})
	}
	for si, b := range camp.Sample() {
		if idx, ok := byBot[b.ID]; ok {
			items[idx].sampleIdx = si
		} else {
			items = append(items, workItem{botID: b.ID, listIdx: -1, sampleIdx: si})
		}
	}

	// Index-addressed slots: workers write their own item's slot only,
	// and assembly below reads them in canonical order.
	records := make([]*scraper.Record, len(ids))
	collectQ := make([]error, len(ids))
	codeRA := make([]*codeanalysis.RepoAnalysis, len(ids))
	codeQ := make([]error, len(ids))

	// Traceability aggregates are shared (they are tiny commutative
	// counters), guarded by one mutex.
	var traceMu sync.Mutex
	var an traceability.Analyzer
	var t2 report.Table2Data
	dt := traceability.NewDataTypeResult()

	// Per-worker checkpoint batches: outcomes buffer locally and fold
	// into the snapshot in batches, so workers do not serialize on
	// checkpoint state per settled bot.
	const batchEvery = 8
	batches := make([][]pendingOutcome, workers)
	addOutcome := func(w int, p pendingOutcome) {
		if r.ck == nil {
			return
		}
		batches[w] = append(batches[w], p)
		if len(batches[w]) >= batchEvery {
			r.ck.noteBatch(batches[w])
			batches[w] = batches[w][:0]
		}
	}

	var errMu sync.Mutex
	var firstErr error
	var firstStage string
	fatal := func(stage string, err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr, firstStage = err, stage
		}
		errMu.Unlock()
		cancel(err)
	}

	fn := func(wctx context.Context, w, idx int) {
		it := items[idx]
		var rec *scraper.Record
		if it.listIdx >= 0 {
			release, err := stCollect.gate.Acquire(wctx)
			if err != nil {
				return
			}
			out, err := crawler.Settle(bottrace.WithWorker(stCollect.ctx, w), it.botID)
			release()
			if err != nil {
				fatal("collect", err)
				return
			}
			records[it.listIdx], collectQ[it.listIdx] = out.Rec, out.Quarantine
			if !out.Resumed && (out.Rec != nil || out.Quarantine != nil) {
				addOutcome(w, pendingOutcome{Stage: "collect", BotID: it.botID, Rec: out.Rec, Qerr: out.Quarantine})
			}
			rec = out.Rec
		}
		if rec != nil && rec.PermsValid {
			release, err := stTrace.gate.Acquire(wctx)
			if err != nil {
				return
			}
			traceMu.Lock()
			auditOne(bottrace.WithWorker(stTrace.ctx, w), &an, &t2, dt, rec)
			traceMu.Unlock()
			release()
			if rec.GitHubURL != "" {
				release, err := stCode.gate.Acquire(wctx)
				if err != nil {
					return
				}
				sl, serr := az.SettleBot(bottrace.WithWorker(stCode.ctx, w), rec.ID, rec.GitHubURL)
				release()
				if serr != nil {
					fatal("codeanalysis", serr)
					return
				}
				codeRA[it.listIdx], codeQ[it.listIdx] = sl.RA, sl.Quarantine
			}
		}
		if it.sampleIdx >= 0 && !camp.Settled(it.sampleIdx) {
			release, err := stHp.gate.Acquire(wctx)
			if err != nil {
				return
			}
			v, qerr, rerr := camp.RunBot(bottrace.WithWorker(stHp.ctx, w), it.sampleIdx)
			release()
			if rerr != nil {
				fatal("honeypot", rerr)
				return
			}
			if v != nil || qerr != nil {
				addOutcome(w, pendingOutcome{Stage: "honeypot", BotID: it.botID, V: v, Qerr: qerr})
			}
		}
	}

	stats := sched.RunHooked(pctx, sched.Partition(len(items), shards), workers, fn,
		sched.Hooks{Obs: a.obs, Tracer: r.tracer, Stage: "sharded"})
	elapsed := time.Since(phaseStart)

	// Drain the worker buffers before deciding anything: even a failed
	// run checkpoints the outcomes it settled.
	for w := range batches {
		r.ck.noteBatch(batches[w])
		batches[w] = nil
	}
	cleanup()
	if a.journal != nil {
		evs := make([]journal.Event, 0, len(stats.Executed))
		for si := range stats.Executed {
			evs = append(evs, journal.Event{
				Kind:      journal.KindShardDrained,
				Component: "core",
				RunID:     res.RunID,
				Fields: map[string]any{
					"shard":    si,
					"executed": stats.Executed[si],
					"stolen":   stats.Stolen[si],
				},
			})
		}
		a.journal.EmitBatch(evs)
	}

	if cause := context.Cause(pctx); cause != nil && errors.Is(cause, ErrStageStalled) {
		return cause
	}
	if ctxErr := r.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	if firstErr != nil {
		if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
			return firstErr
		}
		return fmt.Errorf("core: %s: %w", firstStage, firstErr)
	}
	r.ck.boundary("pipeline")

	// ---- canonical-order assembly ----

	// Collect: records and the quarantine ledger in listing order.
	for i := range ids {
		switch {
		case records[i] != nil:
			res.Records = append(res.Records, records[i])
		case collectQ[i] != nil:
			res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "collect", BotID: ids[i], Err: collectQ[i]})
		}
	}
	collectQuarantined := len(res.Quarantined)
	d := report.StageDegradation{
		Retries:     retriesOf(a.listClient) - listRetries,
		Quarantined: collectQuarantined,
		BudgetLeft:  r.collectBudget.Remaining(),
	}
	if listErr != nil {
		res.StageErrors["collect"] = listErr
		d.Errors++
	}
	r.note(stCollect.ctx, "collect", d)
	res.PermDist = scraper.PermissionDistribution(res.Records)
	res.Scraper = a.listClient.Stats()

	// Traceability: the aggregates are commutative, so accumulation
	// order never mattered; hand them over as-is.
	res.Table2, res.DataTypes = t2, dt

	// Code analysis: fold per-bot slots in listing order through
	// NoteBot/Add.
	cres := codeanalysis.NewResult()
	analyses := make([]*codeanalysis.RepoAnalysis, 0, len(ids))
	for i := range ids {
		rec := records[i]
		if rec == nil || !rec.PermsValid {
			continue
		}
		cres.NoteBot(rec.GitHubURL != "")
		if rec.GitHubURL == "" {
			continue
		}
		switch {
		case codeRA[i] != nil:
			analyses = append(analyses, codeRA[i])
			cres.Add(codeRA[i])
		case codeQ[i] != nil:
			cres.Quarantined = append(cres.Quarantined, codeanalysis.QuarantinedLink{
				BotID: rec.ID, Link: rec.GitHubURL, Err: codeQ[i],
			})
		}
	}
	res.Code, res.Analyses = cres, analyses
	d = report.StageDegradation{
		Retries:     retriesOf(a.codeClient) - codeRetries,
		Quarantined: len(cres.Quarantined),
		BudgetLeft:  r.codeBudget.Remaining(),
	}
	for _, q := range cres.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "codeanalysis", BotID: q.BotID, Link: q.Link, Err: q.Err})
	}
	r.note(stCode.ctx, "codeanalysis", d)

	// Honeypot: the runner assembles its result in sample order.
	res.Honeypot = camp.Result()
	d = report.StageDegradation{Quarantined: len(res.Honeypot.Quarantined), BudgetLeft: -1}
	for _, q := range res.Honeypot.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "honeypot", BotID: q.BotID, Name: q.Name, Err: q.Err})
	}
	r.note(stHp.ctx, "honeypot", d)

	botsPerSec := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		botsPerSec = float64(len(items)) / secs
	}
	res.Scale = &ScaleStats{
		Bots:             len(ids),
		Sample:           len(camp.Sample()),
		Items:            len(items),
		Seed:             a.opts.Seed,
		Shards:           shards,
		Workers:          stats.Workers,
		ElapsedMS:        float64(elapsed) / float64(time.Millisecond),
		BotsPerSec:       botsPerSec,
		Steals:           stats.Steals,
		ExecutedPerShard: stats.Executed,
		StolenPerShard:   stats.Stolen,
		PerWorker:        stats.PerWorker,
		ShardImbalance:   shardImbalance(stats.Executed),
		Stages: []sched.GateStats{
			stCollect.gate.Stats(), stTrace.gate.Stats(), stCode.gate.Stats(), stHp.gate.Stats(),
		},
	}
	return nil
}
