// Package sched runs the pipeline's work plan on a fixed set of
// workers. The workers share one atomic index into the plan: each
// takes the next item, in plan order, until no item is left or the
// context is done. No worker sits idle while an item is left, and one
// worker runs the plan in order.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls fn once for each item 0..n-1 on the given number of
// workers (at least one) and returns how many items each worker ran.
// It returns once every worker has stopped: when no item is left or
// ctx is done. fn is responsible for honouring ctx promptly.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, item int)) []int64 {
	if workers < 1 {
		workers = 1
	}
	ran := make([]int64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				item := int(next.Add(1)) - 1
				if item >= n {
					return
				}
				fn(ctx, w, item)
				ran[w]++
			}
		}(w)
	}
	wg.Wait()
	return ran
}
