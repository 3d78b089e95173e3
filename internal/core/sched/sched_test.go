package sched

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

func TestPartitionCoversEveryItemOnce(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {1, 4}, {7, 3}, {100, 8}, {5, 5}, {3, 10}, {20915, 8},
	} {
		shards := Partition(tc.n, tc.k)
		seen := make(map[int]bool)
		for _, sh := range shards {
			for _, it := range sh {
				if seen[it] {
					t.Fatalf("n=%d k=%d: item %d appears twice", tc.n, tc.k, it)
				}
				seen[it] = true
			}
		}
		if len(seen) != tc.n {
			t.Fatalf("n=%d k=%d: covered %d items", tc.n, tc.k, len(seen))
		}
		// Near-equal: sizes differ by at most one.
		min, max := tc.n, 0
		for _, sh := range shards {
			if len(sh) < min {
				min = len(sh)
			}
			if len(sh) > max {
				max = len(sh)
			}
		}
		if tc.n > 0 && max-min > 1 {
			t.Errorf("n=%d k=%d: shard sizes range %d..%d", tc.n, tc.k, min, max)
		}
	}
}

func TestPartitionDegenerateShardCount(t *testing.T) {
	if got := len(Partition(10, 0)); got != 1 {
		t.Errorf("k=0 should clamp to one shard, got %d", got)
	}
	if got := len(Partition(3, 8)); got != 3 {
		t.Errorf("k>n should clamp to n shards, got %d", got)
	}
}

// TestWorkStealingFairness loads one shard far more heavily than the
// rest: idle workers must steal, every item must run exactly once, and
// every worker must end up with a share of the load.
func TestWorkStealingFairness(t *testing.T) {
	shards := [][]int{
		make([]int, 120), // heavily loaded
		{120, 121, 122, 123},
		{124, 125},
		{126},
	}
	for i := range shards[0] {
		shards[0][i] = i
	}
	total := 127
	counts := make([]int64, total)
	st := Run(context.Background(), shards, 4, func(_ context.Context, _, item int) {
		atomic.AddInt64(&counts[item], 1)
		time.Sleep(200 * time.Microsecond) // give thieves time to drain their own shard
	}, Hooks{})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("item %d executed %d times", i, c)
		}
	}
	var exec int64
	for _, e := range st.Executed {
		exec += e
	}
	if exec != int64(total) {
		t.Fatalf("executed %d of %d", exec, total)
	}
	if st.Steals == 0 {
		t.Error("skewed shards produced zero steals")
	}
	if st.Stolen[0] == 0 {
		t.Error("nothing stolen from the loaded shard")
	}
	for w, n := range st.PerWorker {
		if n == 0 {
			t.Errorf("worker %d sat idle while shard 0 held %d items", w, len(shards[0]))
		}
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done int64
	var once sync.Once
	st := Run(ctx, Partition(1000, 4), 4, func(ctx context.Context, _, _ int) {
		atomic.AddInt64(&done, 1)
		once.Do(cancel)
	}, Hooks{})
	if done == 0 {
		t.Fatal("nothing executed")
	}
	var exec int64
	for _, e := range st.Executed {
		exec += e
	}
	if exec >= 1000 {
		t.Error("cancellation did not stop the scheduler early")
	}
}

// TestRunDeterministicCoverage: regardless of scheduling, the set of
// executed items is exactly the input set — the property the executor
// parity test builds on.
func TestRunDeterministicCoverage(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		n := 257
		var mu sync.Mutex
		got := make(map[int]int)
		Run(context.Background(), Partition(n, 5), 9, func(_ context.Context, _, item int) {
			mu.Lock()
			got[item]++
			mu.Unlock()
		}, Hooks{})
		if len(got) != n {
			t.Fatalf("trial %d: %d distinct items", trial, len(got))
		}
		for it, c := range got {
			if c != 1 {
				t.Fatalf("trial %d: item %d ran %d times", trial, it, c)
			}
		}
	}
}

// TestRunHookedPublishesMetricsAndTraceEvents drives a skewed workload
// through Run with hooks and asserts the live registry instruments and
// the tracer's shard-track events agree exactly with the run's Stats.
func TestRunHookedPublishesMetricsAndTraceEvents(t *testing.T) {
	shards := [][]int{
		make([]int, 80), // heavily loaded
		{80, 81},
		{82},
		{83},
	}
	for i := range shards[0] {
		shards[0][i] = i
	}
	total := 84
	reg := obs.NewRegistry()
	tr := trace.New("run-hooked", len(shards), trace.LevelBots)
	st := Run(context.Background(), shards, 4, func(_ context.Context, _, _ int) {
		time.Sleep(200 * time.Microsecond)
	}, Hooks{Obs: reg, Tracer: tr, Stage: "sharded"})

	if st.Steals == 0 {
		t.Fatal("skewed shards produced zero steals")
	}
	if got := reg.Counter("sched_steals_total").Value(); got != st.Steals {
		t.Errorf("sched_steals_total = %d, want %d", got, st.Steals)
	}
	var execMetric int64
	for s := range shards {
		label := `{shard="` + strconv.Itoa(s) + `"}`
		execMetric += reg.Counter("sched_shard_executed_total" + label).Value()
		if got := reg.Counter("sched_shard_stolen_total" + label).Value(); got != st.Stolen[s] {
			t.Errorf("shard %d stolen metric = %d, want %d", s, got, st.Stolen[s])
		}
	}
	if execMetric != int64(total) {
		t.Errorf("executed metrics sum %d, want %d", execMetric, total)
	}
	var busy int64
	for w := 0; w < st.Workers; w++ {
		busy += reg.Counter(`sched_worker_busy_us_total{worker="` + strconv.Itoa(w) + `"}`).Value()
	}
	if busy == 0 {
		t.Error("worker busy time not accounted")
	}

	steals, depths := 0, 0
	for _, op := range tr.Ops() {
		switch {
		case op.Kind == trace.KindInstant && op.Name == "steal":
			steals++
			if op.Stage != "sharded" {
				t.Errorf("steal instant carries stage %q", op.Stage)
			}
		case op.Kind == trace.KindCounter && op.Name == "queue_depth":
			depths++
		}
	}
	if int64(steals) != st.Steals {
		t.Errorf("traced %d steals, stats say %d", steals, st.Steals)
	}
	if depths != total {
		t.Errorf("traced %d depth samples, want one per item (%d)", depths, total)
	}
}

// TestRunHookedZeroHooksMatchesRun: Run with zero Hooks still covers
// every item once and defaults the worker count to the shard count.
func TestRunHookedZeroHooksMatchesRun(t *testing.T) {
	shards := Partition(50, 4)
	counts := make([]int64, 50)
	st := Run(context.Background(), shards, 0, func(_ context.Context, _, item int) {
		atomic.AddInt64(&counts[item], 1)
	}, Hooks{})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("item %d executed %d times", i, c)
		}
	}
	if st.Workers != 4 {
		t.Errorf("workers defaulted to %d, want shard count 4", st.Workers)
	}
}
