// Package obs is the pipeline's observability substrate: a
// dependency-free registry of atomic counters, gauges, and log-bucketed
// latency histograms. Stage and per-bot timing lives in the sibling
// trace package.
//
// Every instrumented component accepts an optional *Registry and falls
// back to the process-wide Default() registry when given nil, so a
// single binary can expose one coherent /metrics endpoint while tests
// isolate themselves with private registries. The registry renders both
// a Prometheus-style text exposition (WriteProm, Handler) and a
// structured JSON snapshot (WriteJSON).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry names and owns a set of metrics. The zero value
// is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the fallback every
// instrumented component uses when configured with a nil *Registry.
func Default() *Registry { return defaultRegistry }

// Or returns r, or the default registry when r is nil — the idiom for
// optional Registry fields in component options.
func Or(r *Registry) *Registry {
	if r == nil {
		return Default()
	}
	return r
}

// Counter returns the named monotonic counter, creating it on first
// use. Names may carry a Prometheus-style label suffix, e.g.
// `canary_triggers_total{kind="url"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sortedNames returns map keys sorted, for deterministic exposition.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing metric, safe for concurrent
// use. A nil Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, safe for concurrent use.
// A nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
