// The pipeline's executor: Exec.Shards workers share one index into
// the work plan, and each carries one bot through
// collect → traceability → code analysis → honeypot before taking the
// next bot in listing order. A worker is in one stage at a time, so
// the worker count also bounds how many bots each backing service
// (listing server, code host, gateway) serves at once.
//
// Determinism: every per-bot outcome is computed by the stage
// packages' per-bot primitives (Crawler, Analyzer, CampaignRunner),
// per-experiment RNG feeds are derived from stable identities,
// aggregates are commutative, and final assembly walks canonical
// (listing/sample) order — so a fault-free run renders the same
// results on the same seed at any worker count, one included.
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
	bottrace "repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/scraper"
	"repro/internal/traceability"
)

// ScaleStats is the executor's throughput and per-worker accounting,
// which the report's scale block and perfbench read.
type ScaleStats struct {
	Bots   int   `json:"bots"`   // listed bots (collect items)
	Sample int   `json:"sample"` // honeypot sample size
	Items  int   `json:"items"`  // scheduled work items (listing ∪ sample)
	Seed   int64 `json:"seed"`
	Shards int   `json:"shards"` // the executor's worker count

	ElapsedMS  float64 `json:"elapsed_ms"`
	BotsPerSec float64 `json:"bots_per_sec"`

	// Steals is always 0: the workers share one index and take no
	// item from each other.
	//
	// Deprecated: kept only for readers of earlier ScaleStats.
	Steals int64 `json:"steals"`
	// PerWorker counts the items each worker ran.
	PerWorker []int64 `json:"executed_per_worker"`
	// ShardImbalance is max/mean items per worker; 1.0 means every
	// worker ran the same number of items.
	ShardImbalance float64 `json:"shard_imbalance"`

	// Stages repeats the stage table's traced totals for collect,
	// traceability, codeanalysis and honeypot.
	Stages []StageStats `json:"stages"`
}

// StageStats is one pipelined stage's totals, read from the run's
// tracer: Items counts its bot-stage spans and BusyMS sums them.
type StageStats struct {
	Stage  string  `json:"stage"`
	Items  int     `json:"items"`
	BusyMS float64 `json:"busy_ms"`
}

// Report renders the scale accounting as text. The per-stage totals
// are the stage table's Items and Busy, so they are not printed again.
func (s *ScaleStats) Report(w io.Writer) {
	fmt.Fprintf(w, "Sharded executor: %d items (%d listed, sample %d) on %d worker(s) in %.0fms (%.1f bots/sec, imbalance %.2f)\n",
		s.Items, s.Bots, s.Sample, s.Shards, s.ElapsedMS, s.BotsPerSec, s.ShardImbalance)
}

// workItem is one bot's trip through the pipeline: listIdx indexes the
// listing (-1 for a sampled bot the partial listing missed), sampleIdx
// indexes the honeypot sample (-1 for unsampled bots).
type workItem struct {
	botID     int
	listIdx   int
	sampleIdx int
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
// on the executor's workers.
func (a *Auditor) runSharded(r *run) error {
	res := r.res
	shards := a.opts.Exec.Shards

	pctx, cancel := context.WithCancelCause(r.ctx)
	defer cancel(nil)

	// The four stages interleave over one wall-clock window, so all four
	// open for the whole phase and their run spans overlap. One watchdog
	// covers the window: a stall journals one goroutine dump.
	stopWatchdog := func() {}
	if dl := a.opts.Exec.StageSoftDeadline; dl > 0 {
		stopWatchdog = watchdog(pctx, "pipeline", dl, cancel)
	}
	collectCtx, endCollect := r.stage(pctx, "collect", true)
	traceCtx, endTrace := r.stage(pctx, "traceability", true)
	codeCtx, endCode := r.stage(pctx, "codeanalysis", true)
	hpCtx, endHp := r.stage(pctx, "honeypot", true)
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			stopWatchdog()
			endCollect()
			endTrace()
			endCode()
			endHp()
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
	// runs under the collect stage's envelope. A resumed run reuses the
	// listing its checkpoint recorded, so it sees the identical work
	// plan. A partial listing (pagination died mid-walk) is not a
	// durable work plan: only a complete one is checkpointed.
	rp := r.replay
	crawler := scraper.NewCrawler(a.listClient, scraper.Config{Strict: a.opts.Exec.Strict})
	ids := rp.ids
	var listErr error
	if len(ids) == 0 {
		var err error
		if ids, listErr, err = crawler.List(collectCtx); err != nil {
			return failWith("collect", err)
		}
		if listErr == nil {
			r.ck.noteListed(ids)
		}
	}

	az := codeanalysis.NewAnalyzer(a.codeClient, codeanalysis.AnalyzeOptions{})

	// Restore the checkpointed experiments across the whole sample
	// before any fresh one launches: a Strict run resumed over a
	// checkpointed quarantine fails here, without re-running a settled
	// experiment or creating a single guild.
	camp := honeypot.NewCampaignRunner(a.honeypotEnv(), a.eco, a.campaignConfig())
	for i, b := range camp.Sample() {
		out, ok := rp.hp[b.ID]
		if !ok {
			continue
		}
		if out.Qerr != nil && a.opts.Exec.Strict {
			return failWith("honeypot", fmt.Errorf("bot %s: %w", b.Name, out.Qerr))
		}
		camp.Restore(i, out.V, out.Qerr)
		skipped(hpCtx, "honeypot", b.ID, b.Name, out)
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

	// Per-worker checkpoint batches: fresh outcomes buffer locally and
	// fold into the snapshot in batches, so workers do not serialize on
	// checkpoint state per settled bot. Workers add outcomes only after
	// the stage's span has closed, so no save is timed as stage work.
	const batchEvery = 8
	batches := make([][]pendingOutcome, shards)
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

	// Each stage first looks the bot up in the replay index and reuses
	// a checkpointed outcome as it is: a replayed bot records no stage
	// span. A cancelled run stops between stages.
	fn := func(wctx context.Context, w, idx int) {
		it := items[idx]
		var rec *scraper.Record
		if it.listIdx >= 0 {
			out, ok := rp.collect[it.botID]
			if ok {
				if out.Qerr != nil && a.opts.Exec.Strict {
					fatal("collect", fmt.Errorf("bot %d: %w", it.botID, out.Qerr))
					return
				}
				name := ""
				if out.Rec != nil {
					name = out.Rec.Name
				}
				skipped(collectCtx, "collect", it.botID, name, out)
			} else {
				if wctx.Err() != nil {
					return
				}
				sb, err := crawler.Settle(bottrace.WithWorker(collectCtx, w), it.botID)
				if err != nil {
					fatal("collect", err)
					return
				}
				out = pendingOutcome{Stage: "collect", BotID: it.botID, Rec: sb.Rec, Qerr: sb.Quarantine}
				addOutcome(w, out)
			}
			records[it.listIdx], collectQ[it.listIdx] = out.Rec, out.Qerr
			rec = out.Rec
		}
		if rec != nil && rec.PermsValid {
			if wctx.Err() != nil {
				return
			}
			traceMu.Lock()
			auditOne(bottrace.WithWorker(traceCtx, w), &an, &t2, dt, rec)
			traceMu.Unlock()
			if rec.GitHubURL != "" {
				out, ok := rp.links[rec.GitHubURL]
				if ok {
					skipped(codeCtx, "codeanalysis", rec.ID, "", out)
					if out.RA != nil {
						ra := *out.RA
						ra.BotID = rec.ID
						out.RA = &ra
					}
				} else {
					if wctx.Err() != nil {
						return
					}
					sl, serr := az.SettleBot(bottrace.WithWorker(codeCtx, w), rec.ID, rec.GitHubURL)
					if serr != nil {
						fatal("codeanalysis", serr)
						return
					}
					out = pendingOutcome{Stage: "codeanalysis", BotID: rec.ID, Link: rec.GitHubURL, RA: sl.RA, Qerr: sl.Quarantine}
					addOutcome(w, out)
				}
				codeRA[it.listIdx], codeQ[it.listIdx] = out.RA, out.Qerr
			}
		}
		// A sampled bot the checkpoint settled was restored above.
		if _, restored := rp.hp[it.botID]; it.sampleIdx >= 0 && !restored {
			if wctx.Err() != nil {
				return
			}
			v, qerr, rerr := camp.RunBot(bottrace.WithWorker(hpCtx, w), it.sampleIdx)
			if rerr != nil {
				fatal("honeypot", rerr)
				return
			}
			addOutcome(w, pendingOutcome{Stage: "honeypot", BotID: it.botID, V: v, Qerr: qerr})
		}
	}

	perWorker := sched.Run(pctx, len(items), shards, fn)
	elapsed := time.Since(phaseStart)

	// Drain the worker buffers before deciding anything: even a failed
	// run checkpoints the outcomes it settled.
	for w := range batches {
		r.ck.noteBatch(batches[w])
		batches[w] = nil
	}
	cleanup()

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
	}
	if listErr != nil {
		res.StageErrors["collect"] = listErr
		d.Errors++
	}
	r.note(collectCtx, "collect", d)
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
	}
	for _, q := range cres.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "codeanalysis", BotID: q.BotID, Link: q.Link, Err: q.Err})
	}
	r.note(codeCtx, "codeanalysis", d)

	// Honeypot: the runner assembles its result in sample order.
	res.Honeypot = camp.Result()
	d = report.StageDegradation{Quarantined: len(res.Honeypot.Quarantined)}
	for _, q := range res.Honeypot.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "honeypot", BotID: q.BotID, Name: q.Name, Err: q.Err})
	}
	r.note(hpCtx, "honeypot", d)

	botsPerSec := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		botsPerSec = float64(len(items)) / secs
	}
	res.Scale = &ScaleStats{
		Bots:           len(ids),
		Sample:         len(camp.Sample()),
		Items:          len(items),
		Seed:           a.opts.Seed,
		Shards:         shards,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		BotsPerSec:     botsPerSec,
		PerWorker:      perWorker,
		ShardImbalance: shardImbalance(perWorker),
		Stages:         stageStats(r.tracer),
	}
	return nil
}

// stageStats reads the pipelined stages' totals from the tracer. The
// tracer lists a stage only once its run span has ended, so this runs
// after the phase's four stages have closed and before vetting opens.
func stageStats(tr *bottrace.Tracer) []StageStats {
	rows := tr.StageTimings()
	out := make([]StageStats, 0, len(rows))
	for _, row := range rows {
		out = append(out, StageStats{Stage: row.Stage, Items: row.Items, BusyMS: float64(row.BusyNS) / float64(time.Millisecond)})
	}
	return out
}
