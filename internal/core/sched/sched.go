// Package sched implements the sharded work-stealing scheduler that
// drives the per-bot pipeline executor. The bot population is
// partitioned across N shards, each backed by a double-ended queue:
// a shard's own workers pop from the front, and workers whose shard
// has drained steal from the back of the most loaded remaining shard.
// All work is enqueued before Run starts, so an empty sweep across
// every deque is a terminal condition, not a race.
package sched

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// deque is one shard's work queue. The owner pops from the front
// (preserving listing-order locality); thieves take from the back so
// owner and thief contend on opposite ends.
type deque struct {
	mu    sync.Mutex
	items []int
	head  int
}

// popFront and stealBack also report the deque's remaining depth, so
// the caller can publish queue-depth metrics and trace samples without
// a second lock round-trip.
func (d *deque) popFront() (item, depth int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.items) {
		return 0, 0, false
	}
	it := d.items[d.head]
	d.head++
	return it, len(d.items) - d.head, true
}

func (d *deque) stealBack() (item, depth int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.items) {
		return 0, 0, false
	}
	it := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return it, len(d.items) - d.head, true
}

func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items) - d.head
}

// Partition splits item indexes 0..n-1 into k contiguous shards of
// near-equal size. Contiguous ranges keep each shard aligned with a
// span of the listing, so shard imbalance directly reflects where the
// expensive bots cluster — which is what work stealing is for.
func Partition(n, k int) [][]int {
	if k <= 0 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	out := make([][]int, k)
	if n <= 0 {
		for i := range out {
			out[i] = []int{}
		}
		return out
	}
	base, rem := n/k, n%k
	next := 0
	for s := 0; s < k; s++ {
		size := base
		if s < rem {
			size++
		}
		shard := make([]int, size)
		for i := 0; i < size; i++ {
			shard[i] = next
			next++
		}
		out[s] = shard
	}
	return out
}

// Stats is the scheduler's execution accounting.
type Stats struct {
	Shards   int     `json:"shards"`
	Workers  int     `json:"workers"`
	Executed []int64 `json:"executed_per_shard"`
	Stolen   []int64 `json:"stolen_per_shard"`
	// PerWorker counts items each worker settled (owner pops plus
	// steals) — a fairness view orthogonal to the shard view.
	PerWorker []int64 `json:"executed_per_worker"`
	Steals    int64   `json:"steals"`
}

// Hooks lets a run publish its scheduling decisions as it makes them:
// live counters/gauges into an obs Registry (so /metrics shows steal
// and imbalance figures during a run, not only in core.ScaleStats
// afterwards) and steal/queue-depth events onto the tracer's shard
// tracks. The zero value disables everything.
type Hooks struct {
	Obs    *obs.Registry
	Tracer *trace.Tracer
	// Stage labels the trace events this run emits (e.g. "sharded").
	Stage string
}

// shardMetrics is the per-shard registry instruments, resolved once
// before the workers start so the hot loop never formats label names.
type shardMetrics struct {
	steals   *obs.Counter // total across shards
	executed []*obs.Counter
	stolen   []*obs.Counter
	depth    []*obs.Gauge
	busyUS   []*obs.Counter // per worker
}

func newShardMetrics(r *obs.Registry, shards, workers int) *shardMetrics {
	m := &shardMetrics{
		steals:   r.Counter("sched_steals_total"),
		executed: make([]*obs.Counter, shards),
		stolen:   make([]*obs.Counter, shards),
		depth:    make([]*obs.Gauge, shards),
		busyUS:   make([]*obs.Counter, workers),
	}
	for s := 0; s < shards; s++ {
		label := `{shard="` + strconv.Itoa(s) + `"}`
		m.executed[s] = r.Counter("sched_shard_executed_total" + label)
		m.stolen[s] = r.Counter("sched_shard_stolen_total" + label)
		m.depth[s] = r.Gauge("sched_shard_queue_depth" + label)
	}
	for w := 0; w < workers; w++ {
		m.busyUS[w] = r.Counter(`sched_worker_busy_us_total{worker="` + strconv.Itoa(w) + `"}`)
	}
	return m
}

// Run executes fn once for every item across the shards using the
// given number of workers (len(shards) when workers <= 0). Worker w is
// homed on shard w mod len(shards) and scans the remaining shards
// round-robin once its own drains. Scheduling decisions are mirrored
// into h.Obs metrics and h.Tracer shard-track events as they happen;
// zero Hooks publish nothing. Run returns when every item has been
// executed or ctx is cancelled; fn is responsible for honouring ctx
// promptly.
func Run(ctx context.Context, shards [][]int, workers int, fn func(ctx context.Context, worker, item int), h Hooks) *Stats {
	ns := len(shards)
	st := &Stats{Shards: ns, Workers: workers}
	if ns == 0 {
		return st
	}
	if workers <= 0 {
		workers = ns
		st.Workers = workers
	}
	dq := make([]*deque, ns)
	for i, items := range shards {
		dq[i] = &deque{items: append([]int(nil), items...)}
	}
	st.Executed = make([]int64, ns)
	st.Stolen = make([]int64, ns)
	st.PerWorker = make([]int64, workers)

	var m *shardMetrics
	if h.Obs != nil {
		m = newShardMetrics(h.Obs, ns, st.Workers)
	}
	tr := h.Tracer
	traced := tr.Level() >= trace.LevelBots

	var wg sync.WaitGroup
	for w := 0; w < st.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := w % ns
			for ctx.Err() == nil {
				item, from, depth, ok := next(dq, own)
				if !ok {
					return
				}
				atomic.AddInt64(&st.Executed[from], 1)
				atomic.AddInt64(&st.PerWorker[w], 1)
				stolen := from != own
				if stolen {
					atomic.AddInt64(&st.Stolen[from], 1)
					atomic.AddInt64(&st.Steals, 1)
				}
				if m != nil {
					m.executed[from].Inc()
					m.depth[from].Set(int64(depth))
					if stolen {
						m.steals.Inc()
						m.stolen[from].Inc()
					}
				}
				if traced {
					// Steal instants land on the victim shard's track;
					// the packed value carries thief worker + depth left.
					if stolen {
						tr.Instant(from, h.Stage, "steal", "worker "+strconv.Itoa(w), trace.PackStealValue(w, depth))
					}
					tr.Sample(from, h.Stage, "queue_depth", int64(depth))
				}
				if m != nil {
					start := time.Now()
					fn(ctx, w, item)
					m.busyUS[w].Add(time.Since(start).Microseconds())
				} else {
					fn(ctx, w, item)
				}
			}
		}(w)
	}
	wg.Wait()
	return st
}

// next takes the worker's own front item, or failing that steals from
// the back of the most loaded other shard. Returns ok=false only when
// every deque was empty at scan time — terminal, since nothing is ever
// re-enqueued. depth is the source deque's remaining size.
func next(dq []*deque, own int) (item, from, depth int, ok bool) {
	if it, d, popped := dq[own].popFront(); popped {
		return it, own, d, true
	}
	// Steal from the most loaded shard so stealing also rebalances.
	victim, best := -1, 0
	for s := range dq {
		if s == own {
			continue
		}
		if n := dq[s].size(); n > best {
			victim, best = s, n
		}
	}
	if victim >= 0 {
		if it, d, stole := dq[victim].stealBack(); stole {
			return it, victim, d, true
		}
	}
	// The sized scan raced with other thieves; fall back to a direct
	// sweep before declaring the pool drained.
	for off := 1; off < len(dq); off++ {
		s := (own + off) % len(dq)
		if it, d, stole := dq[s].stealBack(); stole {
			return it, s, d, true
		}
	}
	return 0, 0, 0, false
}
