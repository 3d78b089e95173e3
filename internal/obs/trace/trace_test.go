package trace

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock gives a tracer deterministic, strictly-increasing op
// times without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	at  time.Time
	inc time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = c.at.Add(c.inc)
	return c.at
}

func newFakeTracer(shards int, level Level) *Tracer {
	tr := New("run-test", shards, level)
	clk := &fakeClock{at: tr.start, inc: time.Millisecond}
	tr.now = clk.now
	return tr
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{"", LevelOff, false},
		{"off", LevelOff, false},
		{"bots", LevelBots, false},
		{"bot", LevelBots, false},
		{"full", LevelFull, false},
		{"ops", LevelFull, false},
		{"verbose", LevelOff, true},
	} {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Level() != LevelOff || tr.RunID() != "" || tr.Shards() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer accessors not zero-valued")
	}
	tr.StartRunSpan("collect")()
	if ops := tr.Ops(); ops != nil {
		t.Fatalf("nil tracer recorded %d ops", len(ops))
	}
	if rows := tr.StageTimings(); rows != nil {
		t.Fatalf("nil tracer reported stage timings %+v", rows)
	}
	// Context helpers pass through untouched without a tracer.
	ctx := context.Background()
	if WithBot(ctx, 7, "b") != ctx || WithWorker(ctx, 3) != ctx {
		t.Fatal("contexts without a tracer must pass through unchanged")
	}
	StartStage(ctx)()
	StartOp(ctx, "page_fetch")()
}

func TestLevelGating(t *testing.T) {
	tr := newFakeTracer(2, LevelBots)
	ctx := ContextWithStage(context.Background(), tr, "collect")
	ctx = WithWorker(ctx, 0)
	ctx = WithBot(ctx, 1, "bot-1")
	StartStage(ctx)()
	StartOp(ctx, "page_fetch")() // gated: level full only
	if tr.Len() != 1 {
		t.Fatalf("level bots recorded %d ops, want 1 (sub-ops gated)", tr.Len())
	}

	// LevelOff decorates the context, because bot-stage spans feed the
	// stage totals at every level, but keeps no per-bot op.
	off := newFakeTracer(2, LevelOff)
	base := context.Background()
	offCtx := ContextWithStage(base, off, "collect")
	if offCtx == base {
		t.Fatal("LevelOff must decorate the context so stage totals accrue")
	}
	StartStage(WithBot(WithWorker(offCtx, 1), 1, "bot-1"))()
	StartStage(WithBot(WithWorker(offCtx, 0), 2, "bot-2"))()
	StartOp(offCtx, "page_fetch")()
	if off.Len() != 0 {
		t.Fatalf("level off kept %d ops, want 0", off.Len())
	}
	if wall := off.StartRunSpan("collect")(); wall != time.Millisecond {
		t.Fatalf("run span closer reported %v, want the fake clock's 1ms", wall)
	}
	rows := off.StageTimings()
	if len(rows) != 1 || rows[0].Stage != "collect" || rows[0].Items != 2 ||
		rows[0].BusyNS != 2*int64(time.Millisecond) || rows[0].WallNS != int64(time.Millisecond) {
		t.Fatalf("level off stage timings %+v, want one collect row: 2 items, 2ms busy, 1ms wall", rows)
	}
	if ops := off.Ops(); len(ops) != 1 || ops[0].Kind != KindRun {
		t.Fatalf("level off ops %+v, want only the run span", ops)
	}
}

// TestConcurrentHammer drives one tracer from many goroutines across
// all shards under -race and asserts the exact op counts survive,
// then checks every export stays well-formed. This is the satellite
// race test from the issue.
func TestConcurrentHammer(t *testing.T) {
	const (
		shards      = 8
		botsPer     = 50
		opsPerStage = 3
	)
	tr := newFakeTracer(shards, LevelFull)
	stages := []string{"collect", "trace", "code", "honeypot"}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for b := 0; b < botsPer; b++ {
				botID := worker*botsPer + b + 1
				for _, stage := range stages {
					ctx := ContextWithStage(context.Background(), tr, stage)
					ctx = WithWorker(ctx, worker)
					ctx = WithBot(ctx, botID, "bot")
					end := StartStage(ctx)
					for i := 0; i < opsPerStage; i++ {
						StartOpDetail(ctx, "page_fetch", "ref")()
					}
					end()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, st := range stages {
		done := tr.StartRunSpan(st)
		done()
	}

	wantStage := shards * botsPer * len(stages)
	wantOps := wantStage * opsPerStage
	wantRun := len(stages)
	want := wantStage + wantOps + wantRun
	if got := tr.Len(); got != want {
		t.Fatalf("recorded %d ops, want %d", got, want)
	}
	counts := map[Kind]int{}
	for _, op := range tr.Ops() {
		counts[op.Kind]++
	}
	if counts[KindStage] != wantStage || counts[KindOp] != wantOps || counts[KindRun] != wantRun {
		t.Fatalf("kind counts %v, want stage=%d op=%d run=%d", counts, wantStage, wantOps, wantRun)
	}
	// The per-shard stage totals fold the same spans exactly once.
	rows := tr.StageTimings()
	if len(rows) != len(stages) {
		t.Fatalf("stage timings %+v, want one row per stage", rows)
	}
	for _, row := range rows {
		if row.Items != shards*botsPer || row.BusyNS <= 0 {
			t.Fatalf("stage %s totals %+v, want %d items", row.Stage, row, shards*botsPer)
		}
	}

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	h, ops, skipped, err := DecodeJSONL(&jsonl)
	if err != nil || skipped != 0 {
		t.Fatalf("DecodeJSONL: err=%v skipped=%d", err, skipped)
	}
	if h.RunID != "run-test" || h.Shards != shards || len(ops) != want {
		t.Fatalf("round-trip header %+v with %d ops, want run-test/%d shards/%d ops", h, len(ops), shards, want)
	}
}

// TestOpsWithoutWorkerLandOnControlTrack: a worker's ops go to its own
// buffer; a bot span recorded without a worker (or with one out of
// range), like a run-level span, lands on the control track.
func TestOpsWithoutWorkerLandOnControlTrack(t *testing.T) {
	tr := newFakeTracer(4, LevelBots)
	ctx := ContextWithStage(context.Background(), tr, "collect")
	StartStage(WithBot(ctx, 6, "bot-6"))()
	StartStage(WithBot(WithWorker(ctx, 2), 7, "bot-7"))()
	StartStage(WithBot(WithWorker(ctx, 9), 8, "bot-8"))()
	tr.StartRunSpan("collect")()
	want := map[string]int32{"bot-6": ControlShard, "bot-7": 2, "bot-8": ControlShard, "": ControlShard}
	got := map[string]int32{}
	for _, op := range tr.Ops() {
		got[op.Bot] = op.Shard
	}
	if len(got) != len(want) {
		t.Fatalf("ops by bot %v, want %v", got, want)
	}
	for bot, shard := range want {
		if got[bot] != shard {
			t.Errorf("bot %q op on shard %d, want %d", bot, got[bot], shard)
		}
	}
}

func TestChromeTraceLanesSplitOverlaps(t *testing.T) {
	tr := newFakeTracer(1, LevelBots)
	// Two bots overlapping on one track (spans recorded without a
	// worker share the control track): lanes must keep the export
	// valid.
	ctxA := WithBot(ContextWithStage(context.Background(), tr, "collect"), 1, "a")
	ctxB := WithBot(ContextWithStage(context.Background(), tr, "collect"), 2, "b")
	endA := StartStage(ctxA)
	endB := StartStage(ctxB)
	endA()
	endB()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("overlapping spans broke the export: %v", err)
	}
	if !strings.Contains(buf.String(), "(lane 1)") {
		t.Fatal("expected a spill lane for the overlapping slice")
	}
}

func TestDecodeJSONLRejectsForeignHeader(t *testing.T) {
	if _, _, _, err := DecodeJSONL(strings.NewReader(`{"schema":"other/1"}` + "\n")); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, _, _, err := DecodeJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty log accepted")
	}
}

func TestDecodeJSONLSkipsBadLines(t *testing.T) {
	tr := newFakeTracer(1, LevelBots)
	StartStage(WithBot(ContextWithStage(context.Background(), tr, "collect"), 1, "a"))()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not json\n")
	// Earlier span logs carried scheduler instants and counters, which
	// no longer decode as an op kind: they are skipped like bad lines.
	buf.WriteString(`{"shard":1,"kind":"instant","stage":"sharded","name":"steal","start_ns":8000000,"value":4294967298}` + "\n")
	buf.WriteString(`{"shard":1,"kind":"counter","stage":"sharded","name":"queue_depth","start_ns":8500000,"value":3}` + "\n")
	_, ops, skipped, err := DecodeJSONL(&buf)
	if err != nil || skipped != 3 || len(ops) != 1 {
		t.Fatalf("lenient decode: ops=%d skipped=%d err=%v", len(ops), skipped, err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	tr := newFakeTracer(2, LevelFull)
	for bot := 1; bot <= 4; bot++ {
		worker := (bot - 1) % 2
		for _, stage := range []string{"collect", "honeypot"} {
			ctx := ContextWithStage(context.Background(), tr, stage)
			ctx = WithWorker(ctx, worker)
			ctx = WithBot(ctx, bot, "bot")
			StartStage(ctx)()
		}
	}
	tr.StartRunSpan("collect")()

	p := tr.BuildProfile()
	if p.Schema != ProfileSchema || len(p.Bots) != 4 || p.Shards != 2 {
		t.Fatalf("profile %+v malformed", p)
	}
	if p.Bots[0].StageMS["collect"] <= 0 || p.Bots[0].StageMS["honeypot"] <= 0 {
		t.Fatalf("bot 1 stage split missing: %+v", p.Bots[0])
	}
	if len(p.ShardTL) != 2 {
		t.Fatalf("shard timeline %+v, want 2 shards", p.ShardTL)
	}

	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatalf("WriteProfile: %v", err)
	}
	got, err := DecodeProfile(&buf)
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	if got.RunID != p.RunID || len(got.Bots) != len(p.Bots) ||
		got.Bots[2].TotalMS != p.Bots[2].TotalMS || len(got.ShardTL) != len(p.ShardTL) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, p)
	}
	if _, err := DecodeProfile(strings.NewReader(`{"schema":"other/9"}`)); err == nil {
		t.Fatal("foreign profile schema accepted")
	}
}

func TestSummarizeAndSlowest(t *testing.T) {
	tr := newFakeTracer(2, LevelFull)
	mk := func(worker, bot int, stage string, subops int) {
		ctx := ContextWithStage(context.Background(), tr, stage)
		ctx = WithWorker(ctx, worker)
		ctx = WithBot(ctx, bot, "bot")
		end := StartStage(ctx)
		for i := 0; i < subops; i++ {
			StartOp(ctx, "page_fetch")()
		}
		end()
	}
	// bot 2 is the expensive one: more sub-ops → fake clock advances
	// further inside its stage span.
	mk(0, 1, "collect", 0)
	mk(1, 2, "collect", 10)
	mk(0, 3, "collect", 1)

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	h, ops, _, err := DecodeJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(h, ops)
	if s.Bots != 3 || s.StageOps != 3 || s.SubOps != 11 {
		t.Fatalf("summary %+v, want 3 bots, 3 stage ops, 11 sub-ops", s)
	}
	if len(s.Stages) != 1 || s.Stages[0].MaxBot != 2 {
		t.Fatalf("stage cost %+v, want max bot 2", s.Stages)
	}

	slow := SlowestBots(ops, 2)
	if len(slow) != 2 || slow[0].BotID != 2 {
		t.Fatalf("slowest = %+v, want bot 2 first", slow)
	}
	if slow[0].StageMS["collect"] != slow[0].TotalMS {
		t.Fatalf("per-stage split %+v doesn't sum to total", slow[0])
	}
}

func TestCriticalPath(t *testing.T) {
	tr := newFakeTracer(2, LevelBots)
	// Shard 1 is the long lane: bots 2 and 4 back-to-back; bot 4 ends
	// last so the path walks 4 <- 2 on shard 1.
	mk := func(worker, bot int) {
		ctx := ContextWithStage(context.Background(), tr, "collect")
		ctx = WithWorker(ctx, worker)
		ctx = WithBot(ctx, bot, "bot")
		StartStage(ctx)()
	}
	mk(0, 1)
	mk(1, 2)
	mk(1, 4)
	path := CriticalPath(tr.Ops())
	if len(path) != 2 {
		t.Fatalf("path %+v, want 2 steps", path)
	}
	if path[0].Op.BotID != 2 || path[1].Op.BotID != 4 {
		t.Fatalf("path order %d -> %d, want 2 -> 4", path[0].Op.BotID, path[1].Op.BotID)
	}
	for _, st := range path {
		if st.Op.Shard != 1 {
			t.Fatalf("path step off the terminal shard: %+v", st)
		}
	}
	if CriticalPath(nil) != nil {
		t.Fatal("empty ops must give an empty path")
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindStage; k <= KindRun; k++ {
		b, err := k.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var got Kind
		if err := got.UnmarshalJSON(b); err != nil || got != k {
			t.Fatalf("kind %v round-trip: got %v err %v", k, got, err)
		}
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"martian"`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
