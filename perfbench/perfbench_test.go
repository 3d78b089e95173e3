package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeAudit is a seconds-long audit with the workloads' compressed waits.
var smokeAudit = auditInputs{Bots: 300, Sample: 20, Shards: 8, TimeoutMS: 100, StallMS: 600, SettleMS: 50}

var smokeGateway = gatewayInputs{
	Sessions: 2, Guilds: 2,
	FanoutMessages: 500, FanoutWindow: 16,
	SteadyRate: 1000, SteadyMS: 300,
	RequestRate: 50, HistoryLimit: 5,
	AttachmentEvery: 10, AttachmentBytes: 64,
}

func checkPassed(t *testing.T, out *outcome) {
	t.Helper()
	if len(out.problems) > 0 || out.res.Failed != 0 || out.res.Attempted == 0 {
		t.Fatalf("output check: attempted %d, failed %d, problems %v", out.res.Attempted, out.res.Failed, out.problems)
	}
	for _, name := range []string{"setup_s", "items_per_s", "cpu_s", "peak_rss_mb"} {
		if m, ok := out.res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value", name, m)
		}
	}
}

func TestAuditSmokePassesOutputCheck(t *testing.T) {
	out, err := measureAudit(context.Background(), smokeAudit, 7, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkPassed(t, out)
}

func TestAuditEvidenceSmokePassesOutputCheck(t *testing.T) {
	in := smokeAudit
	in.Evidence, in.CheckpointEvery = true, 25
	out, err := measureAudit(context.Background(), in, 7, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkPassed(t, out)
}

func TestGatewaySmokePassesOutputCheck(t *testing.T) {
	out, err := measureGateway(smokeGateway, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPassed(t, out)
}

// A run under injected faults must count its failures, not lose them.
func TestFaultsRaiseFailRatio(t *testing.T) {
	in := smokeAudit
	in.FaultProfile = "mild"
	out, err := measureAudit(context.Background(), in, 7, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.res.Failed == 0 {
		t.Fatalf("mild faults: %d attempted, none failed", out.res.Attempted)
	}
}

// A wrong output is a failed run, whatever the timings say.
func TestWrongOutputIsCounted(t *testing.T) {
	// A timeout longer than the stall turns slow invites into valid ones,
	// so the crawl disagrees with the ecosystem's ground truth.
	in := smokeAudit
	in.TimeoutMS, in.StallMS = 1000, 50
	r, err := auditInDir(in, 7, t.TempDir(), func(au *audit) (*auditRun, error) {
		return au.run(context.Background(), 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) == 0 || r.failed != r.attempted {
		t.Fatalf("wrong outputs: problems %v, failed %d of %d", r.problems, r.failed, r.attempted)
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	out, err := measureGateway(smokeGateway, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := smokeGateway.steadyMessages() * out.samples["iterations"]
	if got := out.samples["generator_lateness"]; got != want {
		t.Fatalf("generator lateness samples = %d, want one per steady message (%d)", got, want)
	}
	detail := out.detail.(map[string]any)
	for _, key := range []string{"gen_late_p50_ms", "gen_late_p99_ms"} {
		if _, ok := detail[key]; !ok {
			t.Errorf("record lacks %s", key)
		}
	}
}

func TestTracedRunsReportEveryLayerMetric(t *testing.T) {
	out, err := traceGateway(smokeGateway, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.res.Metrics) != len(perLayer) {
		t.Fatalf("traced gateway run reports %d metrics, want %d", len(out.res.Metrics), len(perLayer))
	}
	if out.res.Metrics["gateway.deliver_p50_ms"].Value <= 0 {
		t.Errorf("gateway traced run has no delivery latency")
	}
}

// The metrics the program prints must be the ones BENCHMARK.json names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	out, err := measureGateway(smokeGateway, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.res.Metrics) != len(spec.EndToEnd) {
		t.Fatalf("untraced run reports %d metrics, BENCHMARK.json names %d", len(out.res.Metrics), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := out.res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s]: program reports %+v", m.Name, m.Unit, got)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	_, err := runWorkload(context.Background(), "nope", 1, 0, false, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}
