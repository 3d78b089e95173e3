// Tests for the per-bot tracing layer under both executors: span
// coverage per stage, the stage table's counts, export
// well-formedness, and the profile artifact.
package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
)

func tracedOpts(shards int, level bottrace.Level) Options {
	return Options{
		Seed:    11,
		NumBots: 60,
		Honeypot: HoneypotOptions{
			Sample:      6,
			Concurrency: 4,
			Settle:      300 * time.Millisecond,
		},
		Exec:  ExecOptions{Shards: shards},
		Trace: TraceOptions{Level: level},
		Obs:   obs.NewRegistry(),
	}
}

// TestShardedRunRecordsBotSpans also writes the evidence the
// benchmark's audit-evidence workload checks — a merkle-ledgered
// journal and a checkpoint every few bots beside the full trace — and
// applies the same three checks: the ledger verifies, the final
// snapshot is Completed, and the Chrome export validates.
func TestShardedRunRecordsBotSpans(t *testing.T) {
	dir := t.TempDir()
	opts := tracedOpts(4, bottrace.LevelFull)
	jpath := filepath.Join(dir, "journal.jsonl")
	jnl, err := journal.Open(jpath, journal.Options{
		Obs:    opts.Obs,
		Ledger: journal.LedgerOptions{Mode: journal.LedgerMerkle},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jnl
	opts.Checkpoint = CheckpointOptions{Dir: filepath.Join(dir, "ckpt"), Every: 5}
	a, err := NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if vr, err := journal.VerifyFile(jpath); err != nil || !vr.OK {
		t.Fatalf("journal does not verify: err=%v %s", err, vr.Err)
	}
	st, err := checkpoint.NewStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(res.RunID)
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if !snap.Completed {
		t.Fatal("final snapshot not marked Completed")
	}

	tr := res.BotTrace
	if tr == nil {
		t.Fatal("traced run returned no BotTrace")
	}
	if tr.RunID() != res.RunID {
		t.Errorf("tracer run ID %q != results run ID %q", tr.RunID(), res.RunID)
	}

	ops := tr.Ops()
	stageBots := map[string]map[int32]bool{}
	subOps := map[string]int{}
	runSpans := map[string]bool{}
	for _, op := range ops {
		switch op.Kind {
		case bottrace.KindStage:
			if stageBots[op.Stage] == nil {
				stageBots[op.Stage] = map[int32]bool{}
			}
			stageBots[op.Stage][op.BotID] = true
			if op.Shard < 0 || int(op.Shard) >= tr.Shards() {
				t.Fatalf("bot span off any worker shard: %+v", op)
			}
		case bottrace.KindOp:
			subOps[op.Name]++
		case bottrace.KindRun:
			runSpans[op.Stage] = true
		}
	}
	// Every listed bot gets a collect span; every perms-valid record a
	// traceability span; every sampled bot a honeypot span.
	if got := len(stageBots["collect"]); got != len(a.Ecosystem().Bots) {
		t.Errorf("collect spans cover %d bots, want %d", got, len(a.Ecosystem().Bots))
	}
	valid := 0
	for _, r := range res.Records {
		if r.PermsValid {
			valid++
		}
	}
	if got := len(stageBots["traceability"]); got != valid {
		t.Errorf("traceability spans cover %d bots, want %d perms-valid", got, valid)
	}
	if got := len(stageBots["honeypot"]); got != 6 {
		t.Errorf("honeypot spans cover %d bots, want the sample of 6", got)
	}
	for _, stage := range []string{"collect", "traceability", "codeanalysis", "honeypot", "vetting"} {
		if !runSpans[stage] {
			t.Errorf("run-level span missing for stage %s", stage)
		}
	}
	// Full level records the instrumented sub-operations.
	for _, name := range []string{"page_fetch", "invite_redirect", "policy_audit", "honeypot_settle"} {
		if subOps[name] == 0 {
			t.Errorf("no %s sub-operations recorded", name)
		}
	}

	// Exports stay well-formed on a real run.
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := bottrace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	// The four stages' run spans share one window, so the run track
	// needs spill lanes to stay strictly nested.
	if !bytes.Contains(chrome.Bytes(), []byte("run stages (lane 1)")) {
		t.Error("sharded export has no spill lane for the overlapping run spans")
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	h, decoded, skipped, err := bottrace.DecodeJSONL(&jsonl)
	if err != nil || skipped != 0 || len(decoded) != len(ops) {
		t.Fatalf("span log round-trip: %d/%d ops, skipped %d, err %v", len(decoded), len(ops), skipped, err)
	}
	if h.RunID != res.RunID {
		t.Errorf("span log header run ID %q, want %q", h.RunID, res.RunID)
	}

	// The profile names every traced bot and a timeline per shard.
	p := tr.BuildProfile()
	if len(p.Bots) == 0 || len(p.ShardTL) != 4 {
		t.Fatalf("profile: %d bots, %d shard timelines (want 4)", len(p.Bots), len(p.ShardTL))
	}
	var pbuf bytes.Buffer
	if err := bottrace.WriteProfile(&pbuf, p); err != nil {
		t.Fatal(err)
	}
	got, err := bottrace.DecodeProfile(&pbuf)
	if err != nil || len(got.Bots) != len(p.Bots) {
		t.Fatalf("profile round-trip: %d bots, err %v", len(got.Bots), err)
	}
}

func TestSequentialRunTracesAtBotLevel(t *testing.T) {
	a, err := NewAuditor(tracedOpts(0, bottrace.LevelBots))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	tr := res.BotTrace
	if tr == nil {
		t.Fatal("traced run returned no BotTrace")
	}
	stages := map[string]int{}
	subops := 0
	for _, op := range tr.Ops() {
		switch op.Kind {
		case bottrace.KindStage:
			stages[op.Stage]++
		case bottrace.KindOp:
			subops++
		}
	}
	// The bot-stage spans, and the stage table's Items folded from them:
	// one collect span per listed bot, one traceability span per
	// perms-valid record, one codeanalysis span per unique link fetched,
	// and one honeypot span per sampled bot.
	valid := 0
	links := map[string]bool{}
	for _, r := range res.Records {
		if r.PermsValid {
			valid++
			if r.GitHubURL != "" {
				links[r.GitHubURL] = true
			}
		}
	}
	want := map[string]int{
		"collect":      len(a.Ecosystem().Bots),
		"traceability": valid,
		"codeanalysis": len(links),
		"honeypot":     6,
	}
	items := map[string]int{}
	for _, st := range tr.StageTimings() {
		items[st.Stage] = st.Items
	}
	for stage, n := range want {
		if n == 0 || stages[stage] != n || items[stage] != n {
			t.Errorf("stage %s: %d bot-stage spans, table Items %d, want %d (> 0)", stage, stages[stage], items[stage], n)
		}
	}
	if subops != 0 {
		t.Fatalf("level bots recorded %d sub-operations, want 0", subops)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := bottrace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("sequential chrome trace invalid: %v", err)
	}
}

// TestTracingOffRecordsNothing: at level off the run still returns a
// tracer, but it keeps no per-bot op — only the run-level stage spans
// and the per-stage totals the stage table reads.
func TestTracingOffRecordsNothing(t *testing.T) {
	a, err := NewAuditor(tracedOpts(2, bottrace.LevelOff))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	if res.BotTrace == nil {
		t.Fatal("tracing off built no tracer")
	}
	runSpans := map[string]bool{}
	for _, op := range res.BotTrace.Ops() {
		if op.Kind != bottrace.KindRun {
			t.Fatalf("level off recorded a %s op: %+v", op.Kind, op)
		}
		runSpans[op.Stage] = true
	}
	rows := res.BotTrace.StageTimings()
	if len(rows) != 5 || len(runSpans) != 5 {
		t.Fatalf("level off kept %d run spans (%d stage rows), want 5", len(runSpans), len(rows))
	}
	for _, st := range rows {
		if st.Stage != "vetting" && (st.Items == 0 || st.BusyNS <= 0) {
			t.Errorf("stage %s kept no totals at level off: %+v", st.Stage, st)
		}
	}
}
