package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/listing"
	"repro/internal/obs"
	bottrace "repro/internal/obs/trace"
	"repro/internal/permissions"
	"repro/internal/vetting"
)

// newSmallAuditor builds a fast, fully-featured auditor over a small
// population.
func newSmallAuditor(t *testing.T, n int) *Auditor {
	t.Helper()
	a, err := NewAuditor(Options{
		Seed:    11,
		NumBots: n,
		Honeypot: HoneypotOptions{
			Sample:      20,
			Concurrency: 8,
			Settle:      400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func TestEndToEndPipeline(t *testing.T) {
	a := newSmallAuditor(t, 150)
	res, err := a.RunAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 150 {
		t.Fatalf("collected %d records", len(res.Records))
	}
	// Stage outputs are populated and mutually consistent.
	if len(res.PermDist) == 0 {
		t.Error("no permission distribution")
	}
	if res.Table2.ActiveBots == 0 || res.Table2.ActiveBots > 150 {
		t.Errorf("active bots = %d", res.Table2.ActiveBots)
	}
	if res.Table2.Traceability.Total != res.Table2.ActiveBots {
		t.Errorf("traceability total %d != active %d", res.Table2.Traceability.Total, res.Table2.ActiveBots)
	}
	if res.Table2.Traceability.Complete != 0 {
		t.Errorf("complete policies = %d, paper found none", res.Table2.Traceability.Complete)
	}
	if res.Code == nil || res.Code.ActiveBots != res.Table2.ActiveBots {
		t.Errorf("code analysis active = %v", res.Code)
	}
	if res.Honeypot == nil || res.Honeypot.Tested != 20 {
		t.Fatalf("honeypot tested = %+v", res.Honeypot)
	}
	// The single planted malicious bot is caught, and only it.
	if len(res.Honeypot.Triggered) != 1 || res.Honeypot.Triggered[0].Subject.Name != "Melonian" {
		t.Errorf("triggered = %+v", res.Honeypot.Triggered)
	}
	if len(res.BotsPerDeveloper) == 0 {
		t.Error("developer attribution missing")
	}
	// Extensions: data-type audit and vetting run as part of RunAll.
	if res.DataTypes == nil || res.DataTypes.Bots != res.Table2.ActiveBots {
		t.Errorf("data-type audit = %+v", res.DataTypes)
	}
	if res.VettingSummary.Total != len(res.Records) {
		t.Errorf("vetting covered %d of %d bots", res.VettingSummary.Total, len(res.Records))
	}
	if res.VettingSummary.Rejected == 0 {
		t.Error("a 55%-admin ecosystem should see vetting rejections")
	}
}

func TestReportRendersAllSections(t *testing.T) {
	a := newSmallAuditor(t, 120)
	res, err := a.RunAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{
		"Scrape yield:",
		"Figure 3:",
		"Table 1:",
		"Table 2:",
		"Table 3:",
		"GitHub link taxonomy",
		"Honeypot campaign:",
		"Melonian",
		"Data-type audit",
		"Vetting (listing-time mitigation)",
		"send messages",
		"administrator",
		"Scraper stats:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestStagesRunIndividually(t *testing.T) {
	a := newSmallAuditor(t, 80)
	records, err := a.CollectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := a.TraceabilityContext(context.Background(), records)
	if d.ActiveBots == 0 {
		t.Error("traceability saw no active bots")
	}
	code, analyses, err := a.CodeAnalysisContext(context.Background(), records)
	if err != nil {
		t.Fatal(err)
	}
	if code.WithLink != len(analyses) {
		t.Errorf("analyses %d != links %d", len(analyses), code.WithLink)
	}
}

func TestAuditorWithDefences(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    13,
		NumBots: 60,
		Scrape: ScrapeOptions{AntiScrape: listing.AntiScrape{
			CaptchaEvery:      25,
			FlakyEvery:        3,
			RequestsPerSecond: 400,
			Burst:             40,
		}},
		Honeypot: HoneypotOptions{
			Sample: 5,
			Settle: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	records, err := a.CollectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := a.listClient.Stats()
	if stats.CaptchasSolved == 0 {
		t.Error("no captchas solved despite CaptchaEvery")
	}
	// Yield must survive the defences: every InviteOK bot valid.
	okTruth := 0
	for _, b := range a.Ecosystem().Bots {
		if b.InviteHealth == listing.InviteOK {
			okTruth++
		}
	}
	got := 0
	for _, r := range records {
		if r.PermsValid {
			got++
		}
	}
	if got != okTruth {
		t.Errorf("valid records %d != ground truth %d", got, okTruth)
	}
}

func TestVettingRejectsTheHoneypotConfirmedBot(t *testing.T) {
	// Cross-validation of the mitigation: the one bot the DYNAMIC
	// analysis catches red-handed (Melonian) is also rejected by the
	// STATIC listing-time vetting rules — malicious bots don't publish
	// policies or source (§5), which the rules punish.
	a := newSmallAuditor(t, 150)
	res, err := a.RunAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var melonian *vetting.Report
	for _, rep := range res.Vetting {
		if rep.Name == "Melonian" {
			melonian = rep
		}
	}
	if melonian == nil {
		t.Fatal("Melonian not vetted")
	}
	if melonian.Verdict != vetting.Reject {
		t.Errorf("Melonian verdict = %s, findings = %+v", melonian.Verdict, melonian.Findings)
	}
}

func TestScrapedPermsMatchGroundTruth(t *testing.T) {
	a := newSmallAuditor(t, 100)
	records, err := a.CollectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[int]permissions.Permission)
	for _, b := range a.Ecosystem().Bots {
		if b.InviteHealth == listing.InviteOK {
			truth[b.ID] = b.Perms
		}
	}
	for _, r := range records {
		if !r.PermsValid {
			continue
		}
		if want, ok := truth[r.ID]; !ok || want != r.Perms {
			t.Fatalf("bot %d perms = %s, truth %s (ok=%v)", r.ID, r.Perms, want, ok)
		}
	}
}

func TestObservabilityAcrossPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAuditor(Options{
		Seed:    11,
		NumBots: 200,
		Honeypot: HoneypotOptions{
			Sample:      10,
			Concurrency: 8,
			Settle:      400 * time.Millisecond,
		},
		Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	res, err := a.RunAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The run's tracer holds one run-level span per stage, each with
	// bot-stage items behind it, even at the default level off.
	if res.BotTrace == nil {
		t.Fatal("RunAllContext produced no tracer")
	}
	rows := map[string]bottrace.StageTiming{}
	for _, st := range res.BotTrace.StageTimings() {
		rows[st.Stage] = st
	}
	for _, want := range []string{"collect", "traceability", "codeanalysis", "honeypot"} {
		if st, ok := rows[want]; !ok || st.Items == 0 || st.WallNS <= 0 {
			t.Errorf("stage %q timing = %+v (present %v), want a run span with items", want, st, ok)
		}
	}
	if _, ok := rows["vetting"]; !ok {
		t.Error("stage table missing the vetting run span")
	}

	// Instrumented services reported into the registry.
	if v := reg.Counter("scraper_requests_total").Value(); v == 0 {
		t.Error("scraper_requests_total = 0 after a crawl")
	}
	if v := reg.Counter("canary_triggers_total").Value(); v == 0 {
		t.Error("canary_triggers_total = 0 despite the planted snoop bot")
	}
	if v := reg.Counter("honeypot_experiments_completed_total").Value(); v != 10 {
		t.Errorf("honeypot_experiments_completed_total = %d, want 10", v)
	}

	// The text exposition endpoint on the listing server renders them.
	resp, err := http.Get(a.MetricsURL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	for _, want := range []string{
		"# TYPE scraper_requests_total counter",
		"scraper_requests_total ",
		"canary_triggers_total",
		"scraper_fetch_seconds_bucket",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(exposition, "\nscraper_requests_total 0\n") {
		t.Error("/metrics renders scraper_requests_total as 0")
	}

	// Report renders the per-stage timing table from the tracer.
	var buf bytes.Buffer
	res.Report(&buf)
	if out := buf.String(); !strings.Contains(out, "Stage timings") || !strings.Contains(out, "collect") {
		t.Error("report missing stage-timings table")
	}
}

func TestRunAllContextCancelMidCrawl(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    11,
		NumBots: 200,
		// Throttle hard so the crawl alone would take many seconds:
		// cancellation, not completion, must end the run.
		Scrape: ScrapeOptions{AntiScrape: listing.AntiScrape{RequestsPerSecond: 20, Burst: 5}},
		Obs:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = a.RunAllContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAllContext error = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled RunAllContext took %v, want < 1s", elapsed)
	}
}
