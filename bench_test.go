// Package repro's benchmark harness regenerates every table and figure
// from the paper's evaluation (see DESIGN.md's per-experiment index).
// Each benchmark runs the corresponding pipeline stage against a
// calibrated synthetic ecosystem and reports the headline quantities as
// custom metrics, so `go test -bench` output can be compared row by row
// with the paper (EXPERIMENTS.md records the comparison).
//
// Populations are scaled down from the paper's 20,915 bots for
// wall-clock sanity; the *proportions* are what the calibration fixes.
// Pass -bench-bots to change the scale.
package repro

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/canary"
	"repro/internal/codeanalysis"
	"repro/internal/codehost"
	"repro/internal/core"
	"repro/internal/core/sched"
	"repro/internal/corpus"
	"repro/internal/enforcer"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/honeypot"
	"repro/internal/htmlparse"
	"repro/internal/listing"
	"repro/internal/longitudinal"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
	"repro/internal/permissions"
	"repro/internal/platform"
	"repro/internal/policygen"
	"repro/internal/report"
	"repro/internal/scraper"
	"repro/internal/synth"
	"repro/internal/traceability"
	"repro/internal/vetting"
)

var benchBots = flag.Int("bench-bots", 1000, "population size for table/figure benchmarks")

// ---- shared fixtures ----

// auditFixture runs the pipeline once over a seeded population, with a
// one-bot honeypot sample and a short settle, and returns the auditor
// and the results the table benchmarks consume.
func auditFixture(b *testing.B, n int) (*core.Auditor, *core.Results) {
	b.Helper()
	a, err := core.NewAuditor(core.Options{
		Seed:     2022,
		NumBots:  n,
		Honeypot: core.HoneypotOptions{Sample: 1, Settle: 50 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(a.Close)
	res, err := a.RunAllContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return a, res
}

// each runs fn(i) for every i in [0, n), workers at a time, on the
// pipeline executor's scheduler.
func each(n, workers int, fn func(i int)) {
	sched.Run(context.Background(), n, workers, func(_ context.Context, _, i int) { fn(i) })
}

// crawl lists the site and settles every listed bot through a Crawler,
// workers at a time. It returns the records in listing order and the
// number of bots quarantined.
func crawl(b *testing.B, c *scraper.Client, cfg scraper.Config, workers int) (records []*scraper.Record, quarantined int) {
	b.Helper()
	cr := scraper.NewCrawler(c, cfg)
	ids, _, err := cr.List(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	outs := make([]scraper.SettledBot, len(ids))
	errs := make([]error, len(ids))
	each(len(ids), workers, func(i int) { outs[i], errs[i] = cr.Settle(context.Background(), ids[i]) })
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
	for _, out := range outs {
		switch {
		case out.Rec != nil:
			records = append(records, out.Rec)
		case out.Quarantine != nil:
			quarantined++
		}
	}
	return records, quarantined
}

// table2 is the traceability stage's aggregate over records, computed
// as the pipeline computes it.
func table2(records []*scraper.Record) report.Table2Data {
	var an traceability.Analyzer
	var d report.Table2Data
	for _, r := range records {
		if !r.PermsValid {
			continue
		}
		d.ActiveBots++
		if r.HasWebsite {
			d.WebsiteLink++
		}
		if r.PolicyLinkFound {
			d.PolicyLink++
			if !r.PolicyLinkDead {
				d.PolicyValid++
			}
		}
		d.Traceability.Add(an.AnalyzePolicy(r.PolicyText, r.Perms))
	}
	return d
}

// codeHost serves the ecosystem's code host and returns a client for it.
func codeHost(b *testing.B, eco *synth.Ecosystem) *scraper.Client {
	b.Helper()
	srv, err := codehost.NewServer(eco.Host, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// analyzeCode folds records through a fresh Analyzer, one bot at a
// time, into the code-analysis aggregate the pipeline computes.
func analyzeCode(b *testing.B, c *scraper.Client, records []*scraper.Record) *codeanalysis.Result {
	b.Helper()
	az := codeanalysis.NewAnalyzer(c, codeanalysis.AnalyzeOptions{})
	res := codeanalysis.NewResult()
	for _, r := range records {
		if !r.PermsValid {
			continue
		}
		res.NoteBot(r.GitHubURL != "")
		if r.GitHubURL == "" {
			continue
		}
		sl, err := az.SettleBot(context.Background(), r.ID, r.GitHubURL)
		if err != nil || sl.RA == nil {
			b.Fatalf("bot %d link %s: analysis %v, err %v, quarantine %v", r.ID, r.GitHubURL, sl.RA, err, sl.Quarantine)
		}
		res.Add(sl.RA)
	}
	return res
}

// ---- FIG1: the full pipeline ----

func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := core.NewAuditor(core.Options{
			Seed:    int64(i + 1),
			NumBots: 150,
			Honeypot: core.HoneypotOptions{
				Sample: 10,
				Settle: 300 * time.Millisecond,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.RunAllContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		res.Report(io.Discard)
		a.Close()
	}
}

// ---- FIG3: permission distribution ----

func BenchmarkFigure3PermissionDistribution(b *testing.B) {
	_, res := auditFixture(b, *benchBots)
	b.ResetTimer()
	var dist []scraper.PermissionShare
	for i := 0; i < b.N; i++ {
		dist = scraper.PermissionDistribution(res.Records)
	}
	b.StopTimer()
	report.Figure3(io.Discard, dist)
	for _, d := range dist {
		switch d.Perm {
		case permissions.SendMessages:
			b.ReportMetric(d.Pct, "send_messages_%")
		case permissions.Administrator:
			b.ReportMetric(d.Pct, "administrator_%")
		}
	}
}

// ---- TAB1: bots per developer ----

func BenchmarkTable1DeveloperDistribution(b *testing.B) {
	eco := synth.Generate(synth.Config{Seed: 2022, NumBots: *benchBots})
	botsPerDev := make(map[string]int, len(eco.Developers))
	for dev, ids := range eco.Developers {
		botsPerDev[dev] = len(ids)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table1(io.Discard, botsPerDev)
	}
	b.StopTimer()
	ones, total := 0, 0
	for _, k := range botsPerDev {
		total++
		if k == 1 {
			ones++
		}
	}
	b.ReportMetric(100*float64(ones)/float64(total), "single_bot_devs_%")
}

// ---- TAB2: traceability ----

func BenchmarkTable2Traceability(b *testing.B) {
	_, res := auditFixture(b, *benchBots)
	b.ResetTimer()
	var data report.Table2Data
	for i := 0; i < b.N; i++ {
		data = table2(res.Records)
	}
	b.StopTimer()
	if !reflect.DeepEqual(data, res.Table2) {
		b.Fatalf("Table 2 = %+v, the pipeline's %+v", data, res.Table2)
	}
	report.Table2(io.Discard, data)
	b.ReportMetric(100*float64(data.WebsiteLink)/float64(data.ActiveBots), "website_%")
	b.ReportMetric(100*float64(data.PolicyValid)/float64(data.ActiveBots), "valid_policy_%")
	b.ReportMetric(data.Traceability.BrokenPct(), "broken_%")
	if data.Traceability.Complete != 0 {
		b.Fatalf("complete policies = %d, paper found none", data.Traceability.Complete)
	}
}

// ---- TAB3 + TEXT2: code analysis ----

func BenchmarkTable3CodeAnalysis(b *testing.B) {
	a, audit := auditFixture(b, *benchBots)
	c := codeHost(b, a.Ecosystem())
	b.ResetTimer()
	var res *codeanalysis.Result
	for i := 0; i < b.N; i++ {
		res = analyzeCode(b, c, audit.Records)
	}
	b.StopTimer()
	if !reflect.DeepEqual(res, audit.Code) {
		b.Fatalf("code analysis = %+v, the pipeline's %+v", res, audit.Code)
	}
	report.Table3(io.Discard, res)
	report.CodeTaxonomy(io.Discard, res)
	b.ReportMetric(100*res.CheckRate("JavaScript"), "js_check_%")
	b.ReportMetric(100*res.CheckRate("Python"), "py_check_%")
	b.ReportMetric(100*float64(res.ValidRepos())/float64(res.WithLink), "valid_repo_%")
}

func BenchmarkGitHubLinkTaxonomy(b *testing.B) {
	a, audit := auditFixture(b, *benchBots)
	c := codeHost(b, a.Ecosystem())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := analyzeCode(b, c, audit.Records)
		if i == b.N-1 {
			b.StopTimer()
			b.ReportMetric(100*float64(res.WithLink)/float64(res.ActiveBots), "link_rate_%")
			b.ReportMetric(float64(res.WithSource()), "repos_with_source")
			b.StartTimer()
		}
	}
}

// ---- TEXT1: scrape yield ----

func BenchmarkScrapeYield(b *testing.B) {
	eco := synth.Generate(synth.Config{Seed: 2022, NumBots: 300})
	srv, err := listing.NewServer(listing.NewDirectory(eco.Bots), listing.AntiScrape{}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ResetTimer()
	var records []*scraper.Record
	for i := 0; i < b.N; i++ {
		c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: 500 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		records, _ = crawl(b, c, scraper.Config{Strict: true}, 8)
	}
	b.StopTimer()
	report.ScrapeYield(io.Discard, records)
	valid := 0
	for _, r := range records {
		if r.PermsValid {
			valid++
		}
	}
	b.ReportMetric(100*float64(valid)/float64(len(records)), "valid_perm_%")
	b.ReportMetric(float64(len(records))/b.Elapsed().Seconds()*float64(b.N), "bots_per_sec")
}

// ---- CHAOS: crawl throughput under fault injection ----

// BenchmarkCrawlFaultResilience measures crawl throughput against a
// clean listing site vs one injecting ~10% transport faults, reporting
// bots/sec and how many bots each condition quarantined. The delta is
// the price of degradation-aware retries.
func BenchmarkCrawlFaultResilience(b *testing.B) {
	cases := []struct {
		name string
		prof faults.Profile
	}{
		{"faults-0pct", faults.Profile{Name: "bench-zero"}},
		{"faults-10pct", faults.Profile{
			Name:    "bench-ten",
			Default: faults.Rates{ServerError: 0.06, ConnReset: 0.02, TruncatedBody: 0.02},
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			eco := synth.Generate(synth.Config{Seed: 2022, NumBots: 300})
			srv, err := listing.NewServer(listing.NewDirectory(eco.Bots), listing.AntiScrape{}, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			bots, quarantined := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inj := faults.New(bc.prof, int64(i+1), faults.Options{})
				srv.SetMiddleware(inj.Middleware)
				c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: 500 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				records, q := crawl(b, c, scraper.Config{}, 8)
				bots += len(records)
				quarantined += q
			}
			b.StopTimer()
			srv.SetMiddleware(nil)
			b.ReportMetric(float64(bots)/b.Elapsed().Seconds(), "bots_per_sec")
			b.ReportMetric(float64(quarantined)/float64(b.N), "quarantined/op")
		})
	}
}

// ---- HONEY: the honeypot campaign ----

func BenchmarkHoneypotCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := platform.New(platform.Options{})
		gw, err := gateway.NewServer(p, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		svc, err := canary.NewService("127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		eco := synth.Generate(synth.Config{Seed: 2022, NumBots: 400})
		env := honeypot.Env{
			Platform: p, Gateway: gw.Addr(), Canary: svc,
			Minter: svc.NewMinter("canary.invalid", nil),
			Feed:   corpus.New(7),
		}
		cfg := honeypot.DefaultConfig()
		cfg.Settle = 300 * time.Millisecond
		camp := honeypot.NewCampaignRunner(env, eco, honeypot.CampaignConfig{SampleSize: 25, Experiment: cfg})
		errs := make([]error, len(camp.Sample()))
		each(len(errs), 12, func(i int) { _, _, errs[i] = camp.RunBot(context.Background(), i) })
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		res := camp.Result()
		if len(res.Triggered) != 1 || res.Triggered[0].Subject.Name != "Melonian" {
			b.Fatalf("campaign verdicts wrong: %+v", res.Triggered)
		}
		b.ReportMetric(float64(res.Tested), "bots_tested")
		b.ReportMetric(float64(len(res.Triggered)), "bots_triggered")
		gw.Close()
		svc.Close()
		p.Close()
	}
}

// ---- SCALE: the pipeline executor's smoke ----

// BenchmarkShardedScaleSmoke runs the full pipeline over a 2,000-bot
// population on the executor's 4 workers, once per per-bot
// tracing level (off, bots, full), and reports end-to-end scheduler
// throughput and the spans each level keeps. The paper-scale audit is
// perfbench's `audit` workload; this is its scaled-down rehearsal and
// the measure of what tracing costs.
func BenchmarkShardedScaleSmoke(b *testing.B) {
	for _, lvl := range []bottrace.Level{bottrace.LevelOff, bottrace.LevelBots, bottrace.LevelFull} {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := core.NewAuditor(core.Options{
					Seed:    2022,
					NumBots: 2000,
					Honeypot: core.HoneypotOptions{
						Sample: 50,
						Settle: 200 * time.Millisecond,
					},
					Exec:  core.ExecOptions{Shards: 4},
					Trace: core.TraceOptions{Level: lvl},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.RunAllContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Scale == nil || res.Scale.Items == 0 {
					b.Fatal("sharded run reported no scale stats")
				}
				b.ReportMetric(res.Scale.BotsPerSec, "bots_per_sec")
				b.ReportMetric(res.Scale.ShardImbalance, "shard_imbalance")
				b.ReportMetric(float64(res.BotTrace.Len()), "spans")
				a.Close()
			}
		})
	}
}

// ---- TRACE-V: traceability validation ----

func BenchmarkTraceabilityValidation(b *testing.B) {
	g := policygen.New(2022)
	var an traceability.Analyzer
	specs := make([]policygen.Spec, 0, 100)
	texts := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		var covered []policygen.Category
		for _, c := range policygen.AllCategories {
			if (i>>uint(c))&1 == 1 {
				covered = append(covered, c)
			}
		}
		spec := policygen.Spec{BotName: "b", Covered: covered, Generic: i%7 == 6, GenericTemplate: i}
		specs = append(specs, spec)
		texts = append(texts, g.Generate(spec))
	}
	b.ResetTimer()
	mis := 0
	for i := 0; i < b.N; i++ {
		mis = 0
		for j, text := range texts {
			v := an.AnalyzePolicy(text, permissions.ViewChannel)
			if v.Class != specs[j].TruthClass() {
				mis++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(mis), "misclassified_of_100")
	if mis != 0 {
		b.Fatalf("misclassified %d/100", mis)
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationTraceabilityMatchers compares the word-boundary
// matcher against the naive substring baseline, in both speed and
// false-positive count on keyword-free text.
func BenchmarkAblationTraceabilityMatchers(b *testing.B) {
	// Text with many embedded false-substring traps.
	trap := "Our museum of bookkeeping recordings is housed in a warehouse. " +
		"Reusable accessories amuse the user-base. Chartreuse houses refuse obtuse excuses."
	for _, mode := range []struct {
		name string
		an   traceability.Analyzer
	}{
		{"word-boundary", traceability.Analyzer{}},
		{"substring", traceability.Analyzer{Substring: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			falsePos := 0
			for i := 0; i < b.N; i++ {
				v := mode.an.AnalyzePolicy(trap, permissions.None)
				if v.Class != policygen.Broken {
					falsePos++
				}
			}
			b.ReportMetric(float64(boolToInt(falsePos > 0)), "false_positive")
		})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BenchmarkAblationLocators compares element-locator strategies on a
// realistic listing page, mirroring Selenium locator cost.
func BenchmarkAblationLocators(b *testing.B) {
	// Two pages so the page-1 render includes the next-page link.
	eco := synth.Generate(synth.Config{Seed: 3, NumBots: 2 * listing.PageSize})
	srv, err := listing.NewServer(listing.NewDirectory(eco.Bots), listing.AntiScrape{}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := c.GetContext(context.Background(), "/bots?page=1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("by-id", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if doc.ByID("next-page") == nil {
				b.Fatal("locator miss")
			}
		}
	})
	b.Run("css-selector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(doc.Select("ul.bot-list > li.bot-card")) == 0 {
				b.Fatal("locator miss")
			}
		}
	})
	b.Run("full-walk-text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(doc.ByText("Next")) == 0 {
				b.Fatal("locator miss")
			}
		}
	})
}

// BenchmarkAblationScrapeConcurrency sweeps the pipeline's shard count
// under the listing's rate limiter — the operating point §3's
// self-rate-limiting navigates. Each run crawls 100 bots and honeypots
// one with a 10 ms settle, so the crawl sets the time per op.
func BenchmarkAblationScrapeConcurrency(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := core.NewAuditor(core.Options{
					Seed:     5,
					NumBots:  100,
					Scrape:   core.ScrapeOptions{AntiScrape: listing.AntiScrape{RequestsPerSecond: 2000, Burst: 100}, Timeout: time.Second},
					Honeypot: core.HoneypotOptions{Sample: 1, Settle: 10 * time.Millisecond},
					Exec:     core.ExecOptions{Shards: shards, Strict: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, err = a.RunAllContext(context.Background())
				b.StopTimer()
				a.Close()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationHoneypotIsolation contrasts per-bot isolated guilds
// (exact attribution) with a shared guild (every co-located bot becomes
// a suspect).
func BenchmarkAblationHoneypotIsolation(b *testing.B) {
	subjects := func() []honeypot.Subject {
		return []honeypot.Subject{
			{Name: "InnocentA", Perms: snoopPermsBench, Runner: honeypot.IdleBot{}},
			{Name: "Sneaky", Perms: snoopPermsBench, Runner: &honeypot.SnoopBot{}},
			{Name: "InnocentB", Perms: snoopPermsBench, Prefix: "!", Runner: &honeypot.ResponderBot{}},
		}
	}
	newBenchEnv := func(b *testing.B) (honeypot.Env, func()) {
		p := platform.New(platform.Options{})
		gw, err := gateway.NewServer(p, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		svc, err := canary.NewService("127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		env := honeypot.Env{
			Platform: p, Gateway: gw.Addr(), Canary: svc,
			Minter: svc.NewMinter("canary.invalid", nil), Feed: corpus.New(11),
		}
		return env, func() { gw.Close(); svc.Close(); p.Close() }
	}
	cfg := honeypot.DefaultConfig()
	cfg.Settle = 600 * time.Millisecond

	b.Run("isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, done := newBenchEnv(b)
			suspects := 0
			for _, sub := range subjects() {
				v, err := honeypot.Run(env, cfg, sub)
				if err != nil {
					b.Fatal(err)
				}
				if v.Triggered {
					suspects++
				}
			}
			done()
			if suspects != 1 {
				b.Fatalf("isolated run blamed %d bots", suspects)
			}
			b.ReportMetric(float64(suspects), "suspects")
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, done := newBenchEnv(b)
			v, err := honeypot.RunShared(env, cfg, subjects())
			if err != nil {
				b.Fatal(err)
			}
			done()
			if !v.Triggered {
				b.Fatal("shared run saw no trigger")
			}
			b.ReportMetric(float64(len(v.SuspectNames)), "suspects")
		}
	})
}

const snoopPermsBench = permissions.ViewChannel | permissions.ReadMessageHistory |
	permissions.SendMessages | permissions.AttachFiles

// BenchmarkAblationRuntimeEnforcer measures what the Slack/Teams-style
// runtime policy enforcer (§6 comparison) costs per gateway action, and
// confirms the attack-success delta: without it the re-delegated kick
// lands, with it the kick is denied.
func BenchmarkAblationRuntimeEnforcer(b *testing.B) {
	setup := func(b *testing.B, enforced bool) (*platform.Platform, *botsdk.Session, *platform.Guild, *platform.User, func()) {
		p := platform.New(platform.Options{})
		gw, err := gateway.NewServer(p, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		var enf *enforcer.Enforcer
		if enforced {
			enf = enforcer.New(p, enforcer.Options{Window: time.Hour})
			gw.SetInterceptor(enf.Intercept)
		}
		owner := p.CreateUser("owner")
		g, _ := p.CreateGuild(owner.ID, "bench", false)
		var general *platform.Channel
		for _, ch := range g.Channels {
			general = ch
		}
		bot, _ := p.RegisterBot(owner.ID, "b")
		role, _ := p.InstallBot(owner.ID, g.ID, bot.ID,
			permissions.ViewChannel|permissions.SendMessages|permissions.KickMembers)
		if err := p.MoveRole(owner.ID, g.ID, role.ID, 10); err != nil {
			b.Fatal(err)
		}
		// The owner (privileged) speaks so enforced actions are
		// authorized; flush so the tracker has seen it.
		if _, err := p.SendMessage(owner.ID, general.ID, "!kick them"); err != nil {
			b.Fatal(err)
		}
		p.Flush()
		time.Sleep(10 * time.Millisecond)
		sess, err := botsdk.Dial(gw.Addr(), bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		cleanup := func() {
			sess.Close()
			gw.Close()
			if enf != nil {
				enf.Close()
			}
			p.Close()
		}
		return p, sess, g, owner, cleanup
	}
	for _, mode := range []struct {
		name     string
		enforced bool
	}{{"discord-model", false}, {"enforced-model", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p, sess, g, _, cleanup := setup(b, mode.enforced)
			defer cleanup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				victim := p.CreateUser("victim")
				if err := p.JoinGuild(victim.ID, g.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sess.Kick(g.ID.String(), victim.ID.String()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- extension benchmarks ----

// BenchmarkLongitudinalEpochs measures one evolve+measure epoch over a
// population — the unit cost of the §5 future-work longitudinal study.
func BenchmarkLongitudinalEpochs(b *testing.B) {
	eco := synth.Generate(synth.Config{Seed: 2022, NumBots: 3000})
	ev := longitudinal.NewEvolver(eco, 7)
	churn := longitudinal.DefaultChurn()
	b.ResetTimer()
	var last longitudinal.EpochStats
	for i := 0; i < b.N; i++ {
		ev.Step(churn)
		last = longitudinal.Measure(eco, ev.Epoch())
	}
	b.StopTimer()
	b.ReportMetric(last.PolicyPct, "final_policy_%")
	b.ReportMetric(last.AdminPct, "final_admin_%")
}

// BenchmarkVettingPopulation measures the §7 mitigation over a crawled
// population and reports its verdict split.
func BenchmarkVettingPopulation(b *testing.B) {
	_, res := auditFixture(b, *benchBots)
	b.ResetTimer()
	var sum vetting.Summary
	for i := 0; i < b.N; i++ {
		_, sum = vetting.VetAll(res.Records)
	}
	b.StopTimer()
	b.ReportMetric(100*float64(sum.Rejected)/float64(sum.Total), "reject_%")
	b.ReportMetric(100*float64(sum.Approved)/float64(sum.Total), "approve_%")
}

// BenchmarkDataTypeAudit measures the ontology audit per policy.
func BenchmarkDataTypeAudit(b *testing.B) {
	policy := "We collect message content and uploaded files. We use and store them."
	perms := permissions.Administrator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traceability.DataTypeGapCount(policy, perms) == 0 {
			b.Fatal("admin with partial mention should gap")
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkHTMLParseListingPage(b *testing.B) {
	eco := synth.Generate(synth.Config{Seed: 3, NumBots: listing.PageSize})
	srv, err := listing.NewServer(listing.NewDirectory(eco.Bots), listing.AntiScrape{}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, _ := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: time.Second})
	raw, err := c.GetRawContext(context.Background(), "/bots?page=1")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := htmlparse.Parse(raw)
		if len(doc.Select("li.bot-card")) == 0 {
			b.Fatal("parse lost the cards")
		}
	}
}

func BenchmarkPlatformSendMessage(b *testing.B) {
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("o")
	g, _ := p.CreateGuild(owner.ID, "bench", false)
	var ch *platform.Channel
	for _, c := range g.Channels {
		ch = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SendMessage(owner.ID, ch.ID, "benchmark message"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatewayRoundTrip(b *testing.B) {
	p := platform.New(platform.Options{})
	defer p.Close()
	gw, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	owner := p.CreateUser("o")
	g, _ := p.CreateGuild(owner.ID, "bench", false)
	bot, _ := p.RegisterBot(owner.ID, "bench-bot")
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
		b.Fatal(err)
	}
	sess, err := botsdk.Dial(gw.Addr(), bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	var chID string
	_, _, chans, err := sess.GuildInfo(g.ID.String())
	if err != nil || len(chans) == 0 {
		b.Fatal("guild info failed")
	}
	chID = chans[0].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Send(chID, "ping"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanaryDocxRoundTrip(b *testing.B) {
	m := canary.NewMinter("http://127.0.0.1:1", "c.test", canary.SequentialIDs("b"))
	tok := m.Mint(canary.KindWord, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := canary.WordDocument(tok, "bench body")
		if err != nil {
			b.Fatal(err)
		}
		refs, err := canary.ExternalRefsFromWord(doc)
		if err != nil || len(refs) != 1 {
			b.Fatal("roundtrip failed")
		}
	}
}

func BenchmarkSynthGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eco := synth.Generate(synth.Config{Seed: int64(i), NumBots: 2000})
		if len(eco.Bots) != 2000 {
			b.Fatal("generation failed")
		}
	}
}

// ---- journal hot path ----

// BenchmarkJournalEmit measures the instrumented fast path: concurrent
// emitters against a draining flusher. This is the per-event cost every
// pipeline stage pays when a journal is configured.
func BenchmarkJournalEmit(b *testing.B) {
	reg := obs.NewRegistry()
	j := journal.New(io.Discard, journal.Options{Buffer: 4096, Obs: reg})
	ev := journal.Event{
		Kind: journal.KindPageFetched, Component: "bench",
		RunID: "bench-run", BotID: 7,
		Fields: map[string]any{"ref": "/bot/7", "status": 200},
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j.Emit(ev)
		}
	})
	b.StopTimer()
	j.Close()
	total := float64(reg.Counter("journal_events_total").Value() +
		reg.Counter("journal_events_dropped_total").Value())
	b.ReportMetric(100*float64(reg.Counter("journal_events_dropped_total").Value())/total, "dropped_%")
}

// stalledWriter never completes a write until released — it wedges the
// flusher so the buffer saturates.
type stalledWriter struct{ release chan struct{} }

func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// BenchmarkJournalEmitSaturated is the contention worst case: the
// flusher is wedged on a stalled writer, the buffer is full, and every
// concurrent Emit must drop instead of blocking the pipeline. The drop
// accounting must equal the emit attempts exactly — no event may both
// block and be lost silently.
func BenchmarkJournalEmitSaturated(b *testing.B) {
	reg := obs.NewRegistry()
	w := &stalledWriter{release: make(chan struct{})}
	j := journal.New(w, journal.Options{Buffer: 64, Obs: reg})
	ev := journal.Event{Kind: journal.KindCanaryTriggered, Component: "bench"}
	// Saturate before timing so the steady state is pure drop path.
	for i := 0; i < 128; i++ {
		j.Emit(ev)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j.Emit(ev)
		}
	})
	b.StopTimer()
	close(w.release)
	j.Close()
	emitted := reg.Counter("journal_events_total").Value()
	dropped := reg.Counter("journal_events_dropped_total").Value()
	if emitted+dropped != int64(b.N)+128 {
		b.Fatalf("accounting leak: emitted %d + dropped %d != %d attempts", emitted, dropped, b.N+128)
	}
	if dropped == 0 {
		b.Fatal("saturated journal dropped nothing — Emit must have blocked")
	}
	b.ReportMetric(100*float64(dropped)/float64(emitted+dropped), "dropped_%")
}

// ---- evidence ledger write path ----

// ledgerBenchWorkload writes n pipeline-shaped events through a journal
// in the given ledger mode onto a real temp file and returns the
// wall-clock time for the full path: Emit, marshal, hash chain, ledger
// records, flush, seal.
func ledgerBenchWorkload(tb testing.TB, mode journal.LedgerMode, n int) time.Duration {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ledger.jsonl")
	j, err := journal.Open(path, journal.Options{
		Buffer: n + 1, // never drop: the comparison must write identical workloads
		Obs:    obs.NewRegistry(),
		Ledger: journal.LedgerOptions{Mode: mode, Batch: 64},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ev := journal.Event{
		Kind: journal.KindPageFetched, Component: "bench", RunID: "bench-run",
		Fields: map[string]any{"ref": "/bot/12345", "status": 200},
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		e := ev
		e.BotID = i + 1
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	if mode != journal.LedgerOff {
		res, err := journal.VerifyFile(path)
		if err != nil || !res.OK {
			tb.Fatalf("benched ledger does not verify: %v %s", err, res.Err)
		}
		if res.Events != n {
			tb.Fatalf("benched ledger covers %d events, want %d", res.Events, n)
		}
	}
	return elapsed
}

// BenchmarkJournalLedgerWrite measures what tamper-evidence costs on
// the journal's write path, one sub-benchmark per mode (off, chain,
// merkle). EXPERIMENTS.md (LEDGER) quotes its output.
func BenchmarkJournalLedgerWrite(b *testing.B) {
	for _, mode := range []journal.LedgerMode{journal.LedgerOff, journal.LedgerChain, journal.LedgerMerkle} {
		b.Run(string(mode), func(b *testing.B) {
			elapsed := ledgerBenchWorkload(b, mode, b.N)
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "events/sec")
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// TestLedgerOverheadSmoke is the CI guard on the ledger's write-path
// cost: merkle mode must stay within 2x of off mode on a small
// workload. The bound is deliberately loose — CI machines are noisy and
// the workload short; BenchmarkJournalLedgerWrite measures the honest
// overhead. What this guard catches is a regression that makes
// tamper-evidence wildly expensive (per-event fsync, quadratic batch
// handling), not single-digit drift.
func TestLedgerOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke test")
	}
	const n = 20000
	med := func(mode journal.LedgerMode) time.Duration {
		ds := make([]time.Duration, 3)
		for i := range ds {
			ds[i] = ledgerBenchWorkload(t, mode, n)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[1]
	}
	off := med(journal.LedgerOff)
	merkle := med(journal.LedgerMerkle)
	t.Logf("off=%v merkle=%v overhead=%.1f%%", off, merkle, 100*float64(merkle-off)/float64(off))
	if merkle > 2*off {
		t.Fatalf("merkle ledger costs %v vs %v off — over the 2x smoke bound", merkle, off)
	}
}
