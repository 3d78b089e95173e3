package report

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/permissions"
	"repro/internal/scraper"
	"repro/internal/traceability"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:   "T",
		Headers: []string{"a", "longer-header"},
	}
	tb.AddRow("wide-cell-content", "x")
	tb.AddRow("y", "z")
	var buf bytes.Buffer
	tb.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	// All table rows have equal width.
	w := len(lines[1])
	for _, ln := range lines[2:] {
		if len(ln) != w {
			t.Errorf("misaligned row %q (want width %d)", ln, w)
		}
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Errorf("missing title: %q", lines[0])
	}
}

// TestStageTimingsPadByRunes renders the stage table with multi-byte
// µs cells and requires every line to have the same character width.
func TestStageTimingsPadByRunes(t *testing.T) {
	rows := []trace.StageTiming{
		{Stage: "collect", WallNS: 1_500_000_000, BusyNS: 12_000_000_000, Items: 400},
		{Stage: "traceability", WallNS: 1_800_000, BusyNS: 1_600_000, Items: 284},
		{Stage: "vetting", WallNS: 900_000},
	}
	deg := map[string]StageDegradation{"collect": {Retries: 3, Quarantined: 1}}
	var buf bytes.Buffer
	StageTimings(&buf, rows, deg)
	out := buf.String()
	if !strings.Contains(out, "µs") {
		t.Fatalf("fixture produced no µs cell:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:] // drop the title
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	w := utf8.RuneCountInString(lines[0])
	for _, ln := range lines[1:] {
		if n := utf8.RuneCountInString(ln); n != w {
			t.Errorf("row %q is %d characters wide, want %d", ln, n, w)
		}
	}
	for _, want := range []string{"| collect      | 1500.0ms | 12.00s ", "| 400   | 30.0ms ", "| 3       | 1           |", "| vetting      | 900µs    | -  "} {
		if !strings.Contains(out, want) {
			t.Errorf("stage table missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Rendering(t *testing.T) {
	dist := []scraper.PermissionShare{
		{Perm: permissions.SendMessages, Count: 59, Pct: 59.18},
		{Perm: permissions.Administrator, Count: 54, Pct: 54.86},
	}
	var buf bytes.Buffer
	Figure3(&buf, dist)
	out := buf.String()
	if !strings.Contains(out, "send messages") || !strings.Contains(out, "59.18%") {
		t.Errorf("figure missing series:\n%s", out)
	}
	// Bars scale with percentage: send messages bar longer than admin's.
	var sendBar, adminBar int
	for _, line := range strings.Split(out, "\n") {
		n := strings.Count(line, "#")
		if strings.Contains(line, "send messages") {
			sendBar = n
		}
		if strings.Contains(line, "administrator") {
			adminBar = n
		}
	}
	if sendBar <= adminBar {
		t.Errorf("bar lengths wrong: send=%d admin=%d", sendBar, adminBar)
	}
}

func TestTable1Rendering(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, map[string]int{"a#1": 1, "b#2": 1, "c#3": 2})
	out := buf.String()
	if !strings.Contains(out, "66.67%") {
		t.Errorf("one-bot developer share missing:\n%s", out)
	}
	if !strings.Contains(out, "| 2") {
		t.Errorf("two-bot row missing:\n%s", out)
	}
}

func TestTable2Rendering(t *testing.T) {
	var buf bytes.Buffer
	d := Table2Data{ActiveBots: 200, WebsiteLink: 74, PolicyLink: 9, PolicyValid: 8}
	d.Traceability = traceability.Result{Total: 200, Broken: 192, Partial: 8}
	Table2(&buf, d)
	out := buf.String()
	for _, want := range []string{"Unique active chatbots", "37.00%", "4.50%", "4.00%", "broken 192 (96.00%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
	// Zero-division safety.
	var empty bytes.Buffer
	Table2(&empty, Table2Data{})
	if !strings.Contains(empty.String(), "0%") {
		t.Error("empty Table 2 should render 0%")
	}
}

func TestTable3AndTaxonomyRendering(t *testing.T) {
	res := &codeanalysis.Result{
		ActiveBots: 100, WithLink: 20,
		Outcomes:   map[codeanalysis.LinkOutcome]int{codeanalysis.OutcomeValidRepo: 12, codeanalysis.OutcomeDead: 8},
		ByLanguage: map[string]int{"JavaScript": 6, "Python": 4, "": 2},
		JSAnalyzed: 6, JSChecked: 4, PyAnalyzed: 4, PyChecked: 0,
		PatternHits: map[string]int{".has(": 3, "userPermissions": 1},
	}
	var buf bytes.Buffer
	Table3(&buf, res)
	CodeTaxonomy(&buf, res)
	out := buf.String()
	for _, want := range []string{
		".hasPermission(", "userPermissions", "66.67%", "0.00%",
		"valid repositories: 12 (60.00% of links)",
		"no identifiable code: 2",
		"language JavaScript",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("code report missing %q:\n%s", want, out)
		}
	}
}

func TestScrapeYieldRendering(t *testing.T) {
	records := []*scraper.Record{
		{ID: 1, PermsValid: true},
		{ID: 2, InvalidReason: scraper.InvalidRemoved},
		{ID: 3, InvalidReason: scraper.InvalidTimeout},
		nil,
	}
	var buf bytes.Buffer
	ScrapeYield(&buf, records)
	out := buf.String()
	if !strings.Contains(out, "3 bots collected") {
		t.Errorf("yield header wrong:\n%s", out)
	}
	if !strings.Contains(out, "removed") || !strings.Contains(out, "slow-redirect-timeout") {
		t.Errorf("invalid causes missing:\n%s", out)
	}
}

func TestHoneypotRendering(t *testing.T) {
	res := &honeypot.CampaignResult{
		Tested: 10,
		GiveawayMessages: map[string][]string{
			"Melonian": {"wtf is this bro"},
		},
	}
	v := &honeypot.Verdict{
		Subject:  honeypot.Subject{Name: "Melonian"},
		GuildTag: "hp-Melonian", Triggered: true,
	}
	res.Triggered = append(res.Triggered, v)
	var buf bytes.Buffer
	Honeypot(&buf, res)
	out := buf.String()
	for _, want := range []string{"10 bots tested", "Melonian", "wtf is this bro"} {
		if !strings.Contains(out, want) {
			t.Errorf("honeypot report missing %q:\n%s", want, out)
		}
	}
}

func TestLedgerVerdictRendering(t *testing.T) {
	var buf bytes.Buffer
	LedgerVerdict(&buf, "run.jsonl", journal.VerifyResult{
		OK: true, Mode: journal.LedgerMerkle,
		Lines: 110, Events: 100, Records: 10, Batches: 8, Segments: 2,
		Sealed: true, Head: "abc123",
	})
	out := buf.String()
	for _, want := range []string{"OK", "merkle", "100", "2 segment(s)", "abc123", "out-of-band"} {
		if !strings.Contains(out, want) {
			t.Errorf("verdict report missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	LedgerVerdict(&buf, "run.jsonl", journal.VerifyResult{
		OK: false, Mode: journal.LedgerChain,
		Err: "line 7: chain mismatch", FirstBad: 7, BadEnd: 7,
	})
	out = buf.String()
	for _, want := range []string{"FAILED", "chain mismatch", "First unverifiable line: 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("failure report missing %q:\n%s", want, out)
		}
	}

	// Chain mode's blast radius is one event plus its record, so the
	// event line is reported exactly even when BadEnd is the record.
	buf.Reset()
	LedgerVerdict(&buf, "run.jsonl", journal.VerifyResult{
		OK: false, Mode: journal.LedgerChain,
		Err: "line 43: chain mismatch", FirstBad: 42, BadEnd: 43,
	})
	out = buf.String()
	if !strings.Contains(out, "First unverifiable line: 42") {
		t.Errorf("chain mode did not pinpoint the exact line:\n%s", out)
	}

	buf.Reset()
	LedgerVerdict(&buf, "run.jsonl", journal.VerifyResult{
		OK: false, Mode: journal.LedgerMerkle,
		Err: "line 20: merkle root mismatch", FirstBad: 12, BadEnd: 20, Uncovered: 3,
	})
	out = buf.String()
	if !strings.Contains(out, "[12, 20]") || !strings.Contains(out, "uncovered tail") {
		t.Errorf("batch blast radius missing:\n%s", out)
	}
}
