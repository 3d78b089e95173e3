package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/synth"
)

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer the workload bypasses reads 0, which is
// itself the measurement that the workload bypasses it.
var perLayer = []struct{ name, unit string }{
	{"scraper.calls", "count"}, {"scraper.work_s", "s"}, {"scraper.wait_s", "s"},
	{"scraper.p50_ms", "ms"}, {"scraper.p99_ms", "ms"}, {"scraper.requests", "count"},
	{"scraper.timeouts", "count"}, {"scraper.retries", "count"}, {"scraper.yield", "ratio"},
	{"htmlparse.us_per_kb", "us/KiB"}, {"htmlparse.allocs_per_page", "count"},
	{"traceability.calls", "count"}, {"traceability.work_s", "s"}, {"traceability.us_per_policy", "us"},
	{"codeanalysis.calls", "count"}, {"codeanalysis.work_s", "s"}, {"codeanalysis.p99_ms", "ms"},
	{"codeanalysis.dedupe_ratio", "ratio"}, {"codeanalysis.scan_us_per_kb", "us/KiB"},
	{"honeypot.calls", "count"}, {"honeypot.work_s", "s"}, {"honeypot.wait_s", "s"},
	{"honeypot.p50_ms", "ms"}, {"honeypot.p99_ms", "ms"}, {"honeypot.triggered", "count"},
	{"sched.steals", "count"}, {"sched.imbalance", "ratio"},
	{"sched.busy_s.collect", "s"}, {"sched.busy_s.traceability", "s"},
	{"sched.busy_s.codeanalysis", "s"}, {"sched.busy_s.honeypot", "s"},
	{"checkpoint.saves", "count"}, {"checkpoint.final_bytes", "bytes"}, {"checkpoint.save_ms", "ms"},
	{"journal.events", "count"}, {"journal.dropped", "count"}, {"journal.bytes", "bytes"},
	{"journal.emit_ns", "ns"}, {"journal.verify_s", "s"},
	{"trace.spans", "count"}, {"trace.bytes", "bytes"}, {"trace.export_s", "s"},
	{"platform.send_us", "us"}, {"gateway.events_out", "count"}, {"gateway.events_dropped", "count"},
	{"gateway.sub_dropped", "count"}, {"gateway.requests", "count"}, {"gateway.throttled", "count"},
	{"gateway.deliver_p50_ms", "ms"}, {"gateway.deliver_p99_ms", "ms"},
	{"botsdk.send_p50_ms", "ms"}, {"botsdk.history_p50_ms", "ms"}, {"botsdk.request_p99_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"}, {"bench.pace_wait_s", "s"},
	{"synth.generate_s", "s"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"bench.untraced_wall_s", "s"}, {"bench.traced_wall_s", "s"}, {"bench.trace_overhead_s", "s"},
}

// setLayers reports every per-layer metric, 0 where vals lacks it.
func (o *outcome) setLayers(vals map[string]float64) {
	for _, m := range perLayer {
		o.set(m.name, vals[m.name], m.unit)
	}
}

func setRuntime(vals map[string]float64, d runtimeDelta) {
	vals["go.alloc_mb"] = d.AllocMB
	vals["go.gc_cycles"] = float64(d.GCCycles)
	vals["go.gc_pause_ms"] = d.GCPauseMS
}

// traceAudit is an audit workload's traced run. It first runs the
// workload untraced once — the reference wall time, the scheduler's
// accounting, the evidence layers and the runtime's allocation — then
// drives the same inputs through the per-bot entry points the sharded
// executor composes, with the benchmark's spans around each call.
func traceAudit(ctx context.Context, in auditInputs, seed int64, work string) (*outcome, error) {
	vals := map[string]float64{}
	var gens []time.Duration
	for i := 0; i < 3; i++ {
		t := time.Now()
		synth.Generate(synth.Config{Seed: seed, NumBots: in.Bots})
		gens = append(gens, time.Since(t))
	}
	vals["synth.generate_s"] = median(seconds(gens))

	ref, err := auditInDir(in, seed, work, func(au *audit) (*auditRun, error) {
		m0 := readMem()
		r, err := au.run(ctx, seed)
		if err != nil {
			return nil, err
		}
		setRuntime(vals, memDelta(m0, readMem()))
		// The audit's gateway carries only the honeypot's sessions.
		vals["gateway.events_out"] = float64(au.reg.Counter("gateway_events_out_total").Value())
		vals["gateway.events_dropped"] = float64(au.reg.Counter("gateway_events_dropped_total").Value())
		vals["gateway.sub_dropped"] = float64(au.reg.Counter("gateway_sub_events_dropped_total").Value())
		vals["gateway.requests"] = float64(au.reg.Counter("gateway_requests_total").Value())
		vals["gateway.throttled"] = float64(au.reg.Counter("gateway_requests_throttled_total").Value())
		if in.Evidence {
			if err := evidenceLayers(vals, au, r.evidence.runID); err != nil {
				return nil, err
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	if s := ref.res.Scale; s != nil {
		vals["sched.steals"] = float64(s.Steals)
		vals["sched.imbalance"] = s.ShardImbalance
		for _, g := range s.Stages {
			vals["sched.busy_s."+g.Stage] = g.BusyMS / 1000
		}
	}
	ref.res = nil
	runtime.GC()
	ev := ref.evidence
	vals["checkpoint.saves"] = float64(ev.CheckpointSaves)
	vals["checkpoint.final_bytes"] = float64(ev.CheckpointBytes)
	vals["journal.events"] = float64(ev.JournalEvents)
	vals["journal.dropped"] = float64(ev.JournalDropped)
	vals["journal.bytes"] = float64(ev.JournalBytes)
	vals["trace.spans"] = float64(ev.Spans)
	vals["trace.bytes"] = float64(ev.TraceBytes)
	vals["trace.export_s"] = ev.ExportS

	pass, err := perBotPass(ctx, in, seed, vals)
	if err != nil {
		return nil, err
	}
	problems := append(append([]string(nil), ref.problems...), pass.problems...)
	if pass.digest != ref.digest {
		problems = append(problems, fmt.Sprintf("per-bot pass digest %s differs from the audit's %s", pass.digest, ref.digest))
	}
	vals["bench.untraced_wall_s"] = ref.wall.Seconds()
	vals["bench.traced_wall_s"] = pass.wall.Seconds()
	vals["bench.trace_overhead_s"] = pass.wall.Seconds() - ref.wall.Seconds()

	out := &outcome{inputs: in, problems: problems}
	out.res.Attempted = ref.attempted + int64(pass.items)
	out.res.Failed = ref.failed + pass.failed
	out.setLayers(vals)
	out.samples = pass.samples
	out.detail = map[string]any{
		"work_wait": pass.workWait,
		"digest":    ref.digest,
		"evidence":  ev,
	}
	return out, nil
}

// evidenceLayers times the evidence layers at their final size: a
// checkpoint save of the final snapshot, verifying the whole ledger,
// and the per-event cost of a merkle-ledgered journal.
func evidenceLayers(vals map[string]float64, au *audit, runID string) error {
	st, err := checkpoint.NewStore(filepath.Join(au.dir, "ckpt"))
	if err != nil {
		return err
	}
	snap, err := st.Load(runID)
	if err != nil {
		return err
	}
	timing, err := checkpoint.NewStore(filepath.Join(au.dir, "ckpt-timing"))
	if err != nil {
		return err
	}
	var saves []time.Duration
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := timing.Save(snap); err != nil {
			return fmt.Errorf("timed checkpoint save: %w", err)
		}
		saves = append(saves, time.Since(t))
	}
	vals["checkpoint.save_ms"] = median(seconds(saves)) * 1000

	t := time.Now()
	if _, err := journal.VerifyFile(filepath.Join(au.dir, "journal.jsonl")); err != nil {
		return fmt.Errorf("verify journal: %w", err)
	}
	vals["journal.verify_s"] = time.Since(t).Seconds()

	const events = 20000
	j, err := journal.Open(filepath.Join(au.dir, "emit.jsonl"), journal.Options{
		Buffer: events + 1, // room for every event: this times the write path, not drops
		Obs:    obs.NewRegistry(),
		Ledger: journal.LedgerOptions{Mode: journal.LedgerMerkle},
	})
	if err != nil {
		return err
	}
	shapes := []journal.Event{
		{Kind: journal.KindPageFetched, Component: "scraper", RunID: "bench", Fields: map[string]any{"ref": "/bot/12345", "status": 200}},
		{Kind: journal.KindBotDiscovered, Component: "scraper", RunID: "bench", Bot: "HelperBot", Fields: map[string]any{"perms_valid": true, "votes": 10}},
		{Kind: journal.KindPolicyAudited, Component: "core", RunID: "bench", Bot: "HelperBot", Fields: map[string]any{"verdict": "broken", "covered": 1}},
	}
	t = time.Now()
	for i := 0; i < events; i++ {
		e := shapes[i%len(shapes)]
		e.BotID = i + 1
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		return err
	}
	vals["journal.emit_ns"] = float64(time.Since(t).Nanoseconds()) / events
	return nil
}

// traceGateway is the gateway workload's traced run: one untraced
// iteration for the reference wall time, then one with every publish
// timed, reporting the dispatch and request layers' metrics.
func traceGateway(in gatewayInputs, seed int64) (*outcome, error) {
	fanout := gatewayMessages(in, seed, in.FanoutMessages)
	steady := gatewayMessages(in, seed+1, in.steadyMessages())
	untraced, p1, err := gatewayIteration(in, fanout, steady, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	m0 := readMem()
	traced, p2, err := gatewayIteration(in, fanout, steady, true)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	setRuntime(vals, memDelta(m0, readMem()))
	vals["platform.send_us"] = mean(traced.platformSend)
	vals["gateway.events_out"] = float64(traced.Counters["gateway_events_out_total"])
	vals["gateway.events_dropped"] = float64(traced.Counters["gateway_events_dropped_total"])
	vals["gateway.sub_dropped"] = float64(traced.Counters["gateway_sub_events_dropped_total"])
	vals["gateway.requests"] = float64(traced.Counters["gateway_requests_total"])
	vals["gateway.throttled"] = float64(traced.Counters["gateway_requests_throttled_total"])
	vals["gateway.deliver_p50_ms"] = quantile(traced.deliver, 0.5)
	vals["gateway.deliver_p99_ms"] = quantile(traced.deliver, 0.99)
	vals["botsdk.send_p50_ms"] = quantile(traced.send, 0.5)
	vals["botsdk.history_p50_ms"] = quantile(traced.history, 0.5)
	vals["botsdk.request_p99_ms"] = quantile(append(append([]float64(nil), traced.send...), traced.history...), 0.99)
	vals["bench.gen_late_p99_ms"] = quantile(traced.late, 0.99)
	vals["bench.pace_wait_s"] = traced.PaceWaitS
	vals["bench.untraced_wall_s"] = untraced.WallS
	vals["bench.traced_wall_s"] = traced.WallS
	vals["bench.trace_overhead_s"] = traced.WallS - untraced.WallS

	r := &gatewayRun{iters: []*gwIter{untraced, traced}, setups: []time.Duration{untraced.Setup, traced.Setup}}
	r.problems = append(p1, p2...)
	out := r.outcome(in)
	out.setLayers(vals)
	out.detail = map[string]any{
		"work_wait": map[string]map[string]float64{
			"publisher": {"work_s": traced.SteadyWallS - traced.PaceWaitS, "wait_s": traced.PaceWaitS},
		},
		"iterations": r.iters,
	}
	return out, nil
}
