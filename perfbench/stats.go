package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies is a concurrency-safe sample of durations in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// runtimeDelta is the Go runtime's allocation and GC activity over an
// interval.
type runtimeDelta struct {
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memDelta(before, after runtime.MemStats) runtimeDelta {
	return runtimeDelta{
		AllocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCCycles:  after.NumGC - before.NumGC,
		GCPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// layerSpans collects the benchmark's spans around one layer's entry
// point: each call's duration, plus the share of them the layer spent
// in a deliberate wait (scraper timeouts, honeypot settle windows).
type layerSpans struct {
	mu    sync.Mutex
	durs  []time.Duration
	total time.Duration
	wait  time.Duration
}

// time runs fn inside a span.
func (l *layerSpans) time(fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.total += d
	l.mu.Unlock()
}

func (l *layerSpans) calls() float64 { return float64(len(l.durs)) }

// workS is span time minus deliberate wait, never below zero.
func (l *layerSpans) workS() float64 {
	if w := l.total - l.wait; w > 0 {
		return w.Seconds()
	}
	return 0
}

func (l *layerSpans) pMS(q float64) float64 {
	xs := make([]float64, len(l.durs))
	for i, d := range l.durs {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}
