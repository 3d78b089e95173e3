// Command perfbench is the repository's benchmark: one process runs a
// named workload for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name and unit. BENCHMARK.json at
// the repository root names the workloads and metrics; predictions.json
// beside this file records which layers each workload loads and which
// end-to-end metric each per-layer metric should move.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload audit --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 a separate traced run reports the per-layer
// metrics, the work/wait split and the tracing overhead. The line before
// it is the run's record: environment, workload inputs, sample counts
// and per-iteration detail.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line printed before the result: what was run, where,
// and the detail behind each metric.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Commit     string         `json:"commit"`
	SourceSHA  string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Inputs     any            `json:"inputs"`
	FailRatio  float64        `json:"fail_ratio"`
	Problems   []string       `json:"problems,omitempty"`
	Samples    map[string]int `json:"samples,omitempty"`
	Detail     any            `json:"detail,omitempty"`
}

// outcome is what a workload run returns to main.
type outcome struct {
	res      result
	inputs   any
	problems []string
	samples  map[string]int
	detail   any
}

func (o *outcome) set(name string, value float64, unit string) {
	if o.res.Metrics == nil {
		o.res.Metrics = make(map[string]metric)
	}
	o.res.Metrics[name] = metric{Value: value, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload to run: audit, audit-evidence or gateway")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 20, "how long the untraced run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := run(*workload, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs int, traced bool) error {
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	// Work files stay inside the checkout and are removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	out, err := runWorkload(context.Background(), workload, seed, time.Duration(secs)*time.Second, traced, work)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	rec := record{
		Workload:   workload,
		Seed:       seed,
		Seconds:    secs,
		Traced:     traced,
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SourceSHA:  sourceDigest(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Inputs:     out.inputs,
		FailRatio:  float64(out.res.Failed) / float64(out.res.Attempted),
		Problems:   out.problems,
		Samples:    out.samples,
		Detail:     out.detail,
	}
	for _, line := range []any{map[string]any{"record": rec}, out.res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// runWorkload runs one workload, untraced or traced, and settles its
// verdict: correct only when no output check found a problem.
func runWorkload(ctx context.Context, workload string, seed int64, budget time.Duration, traced bool, work string) (*outcome, error) {
	var out *outcome
	var err error
	switch in, ok := auditWorkloads[workload]; {
	case ok && traced:
		out, err = traceAudit(ctx, in, seed, work)
	case ok:
		out, err = measureAudit(ctx, in, seed, budget, work)
	case workload == "gateway" && traced:
		out, err = traceGateway(gatewayWorkload, seed)
	case workload == "gateway":
		out, err = measureGateway(gatewayWorkload, seed, budget)
	default:
		return nil, fmt.Errorf("unknown workload (want audit, audit-evidence or gateway)")
	}
	if err != nil {
		return nil, err
	}
	if out.res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	out.res.Correct = len(out.problems) == 0
	return out, nil
}

// sourceDigest hashes the module's Go sources and go.mod, identifying
// the code measured even where the checkout carries no commit.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (path == "go.mod" || strings.HasSuffix(path, ".go")) {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
