package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current report output")

// paperTables strips the run-dependent blocks from a report — the stage
// timing table and the executor's scale block — leaving the paper's
// tables and figures, which must not depend on the shard count or the
// clock.
func paperTables(report string) string {
	var out []string
	skipping := false
	for _, ln := range strings.Split(report, "\n") {
		switch {
		case ln == "Stage timings" || strings.HasPrefix(ln, "Sharded executor:"):
			skipping = true
			continue
		case skipping && (strings.HasPrefix(ln, "|") || strings.HasPrefix(ln, "  stage ")):
			continue
		}
		skipping = false
		out = append(out, ln)
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n") + "\n"
}

// TestPaperTablesGolden pins the reproduced paper results at a fixed
// seed and scale: scrape yield and the invalid-link taxonomy, Figure 3,
// Tables 1–3, the data-type and code taxonomies, the honeypot campaign
// and vetting. A sequential (one-shard) run and a sharded one must
// render them byte for byte against one golden file, so neither a
// refactor nor the scheduling can shift them silently.
// Regenerate with `go test ./internal/core -run TestPaperTablesGolden
// -update` only when a change to the results is intended.
func TestPaperTablesGolden(t *testing.T) {
	golden := filepath.Join("testdata", "paper_tables.golden")
	for _, exec := range []struct {
		name   string
		shards int
	}{{"sequential", 1}, {"sharded", defaultShards}} {
		t.Run(exec.name, func(t *testing.T) {
			a, err := NewAuditor(Options{
				Seed:     2022,
				NumBots:  400,
				Honeypot: HoneypotOptions{Sample: 25, Settle: 400 * time.Millisecond},
				Exec:     ExecOptions{Shards: exec.shards},
				Obs:      obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			res := runAll(t, a)
			var buf bytes.Buffer
			res.Report(&buf)
			got := paperTables(buf.String())

			if *updateGolden && exec.shards == 1 {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s run's paper tables drifted from %s\n--- got ---\n%s--- want ---\n%s",
					exec.name, golden, got, want)
			}
		})
	}
}
