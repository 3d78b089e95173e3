package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunRunsEveryItemOnce: whatever the item and worker counts, every
// item runs exactly once and the per-worker counts add up to n. A
// worker count below one runs on one worker.
func TestRunRunsEveryItemOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantWorkers int }{
		{0, 4, 4}, {1, 4, 4}, {3, 8, 8}, {7, 3, 3}, {2000, 8, 8}, {50, 0, 1},
	} {
		counts := make([]int64, tc.n)
		ran := Run(context.Background(), tc.n, tc.workers, func(_ context.Context, _, item int) {
			atomic.AddInt64(&counts[item], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: item %d ran %d times", tc.n, tc.workers, i, c)
			}
		}
		if len(ran) != tc.wantWorkers {
			t.Fatalf("n=%d workers=%d: %d per-worker counts, want %d", tc.n, tc.workers, len(ran), tc.wantWorkers)
		}
		var sum int64
		for _, r := range ran {
			sum += r
		}
		if sum != int64(tc.n) {
			t.Fatalf("n=%d workers=%d: workers ran %d items, want %d", tc.n, tc.workers, sum, tc.n)
		}
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done int64
	var once sync.Once
	ran := Run(ctx, 1000, 4, func(ctx context.Context, _, _ int) {
		atomic.AddInt64(&done, 1)
		once.Do(cancel)
	})
	if done == 0 {
		t.Fatal("nothing executed")
	}
	var sum int64
	for _, r := range ran {
		sum += r
	}
	if sum != done {
		t.Errorf("workers report %d items, fn ran %d", sum, done)
	}
	if sum >= 1000 {
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
		Run(context.Background(), n, 9, func(_ context.Context, _, item int) {
			mu.Lock()
			got[item]++
			mu.Unlock()
		})
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

// TestRunBlockedItemHoldsNoOtherItem: while one worker is stuck on
// item 0, the other workers run every other item. Item 0 waits until
// all of them have run, so the run finishes only if no item waits for
// the blocked worker.
func TestRunBlockedItemHoldsNoOtherItem(t *testing.T) {
	const n = 200
	for _, workers := range []int{2, 4, 9} {
		var others sync.WaitGroup
		others.Add(n - 1)
		done := make(chan []int64, 1)
		go func() {
			done <- Run(context.Background(), n, workers, func(_ context.Context, _, item int) {
				if item == 0 {
					others.Wait()
					return
				}
				others.Done()
			})
		}()
		select {
		case ran := <-done:
			var sum int64
			for _, r := range ran {
				sum += r
			}
			if sum != n {
				t.Fatalf("workers=%d: ran %d items, want %d", workers, sum, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: the run waited on the blocked item", workers)
		}
	}
}

// TestRunOneWorkerKeepsOrder: one worker runs the items in index
// order, so a one-worker pipeline walks the listing in order.
func TestRunOneWorkerKeepsOrder(t *testing.T) {
	var order []int
	Run(context.Background(), 100, 1, func(_ context.Context, worker, item int) {
		if worker != 0 {
			t.Errorf("item %d ran on worker %d", item, worker)
		}
		order = append(order, item)
	})
	if len(order) != 100 {
		t.Fatalf("ran %d items, want 100", len(order))
	}
	for i, item := range order {
		if item != i {
			t.Fatalf("position %d ran item %d", i, item)
		}
	}
}
