package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// bareName strips a label suffix: `foo_total{kind="url"}` -> foo_total.
func bareName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WriteProm renders every metric in the Prometheus text exposition
// format, names sorted for determinism.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	typed := make(map[string]bool)
	writeType := func(name, kind string) {
		if bare := bareName(name); !typed[bare] {
			typed[bare] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", bare, kind)
		}
	}
	for _, name := range sortedNames(counters) {
		writeType(name, "counter")
		fmt.Fprintf(w, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedNames(gauges) {
		writeType(name, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, gauges[name].Value())
	}
	for _, name := range sortedNames(hists) {
		h := hists[name]
		writeType(name, "histogram")
		cum := h.snapshot()
		for i := 0; i < numBuckets; i++ {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, BucketBound(i).Seconds(), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[numBuckets])
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
	return nil
}

// HistogramSummary is the JSON shape of one histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	SumMS float64 `json:"sum_ms"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Snapshot is the JSON shape of a whole registry.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot captures every metric as plain data.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.hists)),
	}
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		snap.Histograms[n] = HistogramSummary{
			Count: h.Count(),
			SumMS: float64(h.Sum()) / float64(time.Millisecond),
			P50MS: float64(h.Quantile(0.50)) / float64(time.Millisecond),
			P95MS: float64(h.Quantile(0.95)) / float64(time.Millisecond),
			P99MS: float64(h.Quantile(0.99)) / float64(time.Millisecond),
		}
	}
	r.mu.RUnlock()
	return snap
}

// WriteJSON renders the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry over HTTP: text exposition by default,
// the JSON snapshot with ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}

// SleepContext waits for d or until ctx is cancelled, returning
// ctx.Err() when the wait was cut short — the cancellation-aware
// replacement for bare time.Sleep in pipeline hot loops.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
