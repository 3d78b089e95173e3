package codeanalysis

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codehost"
	"repro/internal/scraper"
	"repro/internal/synth"
)

func startHost(t *testing.T, h *codehost.Host) *scraper.Client {
	t.Helper()
	srv, err := codehost.NewServer(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: srv.BaseURL(), Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// analyzeAll folds records through an Analyzer as the pipeline's
// executor does: every perms-valid record counts as an active bot, and
// each linked one settles through SettleBot, workers at a time, so bots
// sharing a link meet in its single-flight cache. The analyses come
// back in record order.
func analyzeAll(t *testing.T, c *scraper.Client, records []*scraper.Record, workers int) (*Result, []*RepoAnalysis) {
	t.Helper()
	az := NewAnalyzer(c, AnalyzeOptions{})
	settled := make([]SettledLink, len(records))
	errs := make([]error, len(records))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(records); i = int(next.Add(1)) - 1 {
				if r := records[i]; r != nil && r.PermsValid && r.GitHubURL != "" {
					settled[i], errs[i] = az.SettleBot(context.Background(), r.ID, r.GitHubURL)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	res := NewResult()
	var analyses []*RepoAnalysis
	for i, r := range records {
		if r == nil || !r.PermsValid {
			continue
		}
		res.NoteBot(r.GitHubURL != "")
		switch sl := settled[i]; {
		case sl.RA != nil:
			analyses = append(analyses, sl.RA)
			res.Add(sl.RA)
		case sl.Quarantine != nil:
			res.Quarantined = append(res.Quarantined, QuarantinedLink{BotID: r.ID, Link: r.GitHubURL, Err: sl.Quarantine})
		}
	}
	return res, analyses
}

func TestScanSource(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"if (message.member.hasPermission('KICK_MEMBERS')) {}", 2}, // .hasPermission( also contains .has( ? no — check below
		{"member.permissions.has('BAN_MEMBERS')", 1},
		{"const r = member.roles.cache.some(x => true)", 1},
		{"userPermissions = ctx.author.guild_permissions", 1},
		{"plain code with no checks", 0},
	}
	// Clarify case 0: ".hasPermission(" does not contain ".has(" as a
	// substring (".hasP" != ".has("), so expect exactly 1.
	cases[0].want = 1
	for _, c := range cases {
		if got := len(ScanSource(c.src)); got != c.want {
			t.Errorf("ScanSource(%q) = %d patterns %v, want %d", c.src, got, ScanSource(c.src), c.want)
		}
	}
}

func TestAnalyzeLinkOutcomes(t *testing.T) {
	h := codehost.NewHost()
	h.AddRepo(&codehost.Repo{Owner: "alice", Name: "goodbot", Files: []codehost.File{
		{Path: "README.md", Content: "# goodbot"},
		{Path: "index.js", Content: "if (message.member.hasPermission('KICK_MEMBERS')) {}"},
	}})
	h.AddRepo(&codehost.Repo{Owner: "alice", Name: "docs-only", Files: []codehost.File{
		{Path: "README.md", Content: "# just docs"},
		{Path: "LICENSE", Content: "MIT"},
	}})
	h.AddRepo(&codehost.Repo{Owner: "bob", Name: "nochecks", Files: []codehost.File{
		{Path: "bot.py", Content: "import discord\n# no checks here\n"},
	}})
	h.AddProfile("emptyuser")
	c := startHost(t, h)

	cases := []struct {
		link    string
		outcome LinkOutcome
		lang    string
		checked bool
	}{
		{"/alice/goodbot", OutcomeValidRepo, "JavaScript", true},
		{"/alice/docs-only", OutcomeValidRepo, "", false},
		{"/bob/nochecks", OutcomeValidRepo, "Python", false},
		{"/alice", OutcomeProfile, "", false},
		{"/emptyuser", OutcomeNoRepos, "", false},
		{"/ghost/nothing", OutcomeDead, "", false},
	}
	for _, tc := range cases {
		ra, err := AnalyzeLinkContext(context.Background(), c, 1, tc.link)
		if err != nil {
			t.Fatalf("%s: %v", tc.link, err)
		}
		if ra.Outcome != tc.outcome {
			t.Errorf("%s: outcome = %s, want %s", tc.link, ra.Outcome, tc.outcome)
		}
		if ra.MainLanguage != tc.lang {
			t.Errorf("%s: language = %q, want %q", tc.link, ra.MainLanguage, tc.lang)
		}
		if ra.PerformsCheck != tc.checked {
			t.Errorf("%s: check = %v, want %v (patterns %v)", tc.link, ra.PerformsCheck, tc.checked, ra.PatternsFound)
		}
	}
}

func TestAnalyzeAggregate(t *testing.T) {
	h := codehost.NewHost()
	h.AddRepo(&codehost.Repo{Owner: "a", Name: "js-checked", Files: []codehost.File{
		{Path: "index.js", Content: "member.roles.cache.has('x')"},
	}})
	h.AddRepo(&codehost.Repo{Owner: "a", Name: "js-unchecked", Files: []codehost.File{
		{Path: "index.js", Content: "console.log('hello')"},
	}})
	h.AddRepo(&codehost.Repo{Owner: "b", Name: "py-unchecked", Files: []codehost.File{
		{Path: "bot.py", Content: "print('hi')"},
	}})
	c := startHost(t, h)
	records := []*scraper.Record{
		{ID: 1, PermsValid: true, GitHubURL: "/a/js-checked"},
		{ID: 2, PermsValid: true, GitHubURL: "/a/js-unchecked"},
		{ID: 3, PermsValid: true, GitHubURL: "/b/py-unchecked"},
		{ID: 4, PermsValid: true, GitHubURL: "/dead/link"},
		{ID: 5, PermsValid: true},                              // no link
		{ID: 6, PermsValid: false, GitHubURL: "/a/js-checked"}, // inactive: skipped
		nil,
	}
	res, analyses := analyzeAll(t, c, records, 2)
	if res.ActiveBots != 5 || res.WithLink != 4 {
		t.Errorf("active/link = %d/%d", res.ActiveBots, res.WithLink)
	}
	if res.ValidRepos() != 3 || res.Outcomes[OutcomeDead] != 1 {
		t.Errorf("outcomes = %v", res.Outcomes)
	}
	if res.JSAnalyzed != 2 || res.JSChecked != 1 || res.PyAnalyzed != 1 || res.PyChecked != 0 {
		t.Errorf("analysis counts = %+v", res)
	}
	if res.CheckRate("JavaScript") != 0.5 || res.CheckRate("Python") != 0 {
		t.Errorf("check rates = %f / %f", res.CheckRate("JavaScript"), res.CheckRate("Python"))
	}
	if res.CheckRate("Rust") != 0 {
		t.Error("unknown language check rate should be 0")
	}
	if len(analyses) != 4 {
		t.Errorf("analyses = %d", len(analyses))
	}
	if res.PatternHits["member.roles.cache"] != 1 {
		t.Errorf("pattern hits = %v", res.PatternHits)
	}
}

// TestSyntheticPopulationRates runs the full code-analysis pipeline over
// a synthetic ecosystem and checks the §4.2 rates come back out.
func TestSyntheticPopulationRates(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale test")
	}
	eco := synth.Generate(synth.Config{Seed: 5, NumBots: 6000})
	c := startHost(t, eco.Host)
	var records []*scraper.Record
	for _, b := range eco.Bots {
		records = append(records, &scraper.Record{
			ID:         b.ID,
			PermsValid: b.InviteHealth == 0, // listing.InviteOK
			GitHubURL:  b.GitHubURL,
		})
	}
	res, _ := analyzeAll(t, c, records, 8)
	within := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.2f, want %.2f ± %.1f", name, got, want, tol)
		}
	}
	within("link rate %", 100*float64(res.WithLink)/float64(res.ActiveBots), 23.86, 2.5)
	within("valid repo %", 100*float64(res.ValidRepos())/float64(res.WithLink), 60.46, 4.0)
	within("JS check %", 100*res.CheckRate("JavaScript"), 72.97, 6.0)
	within("Py check %", 100*res.CheckRate("Python"), 2.65, 3.0)
	if res.WithSource() >= res.ValidRepos() {
		t.Error("expected some README-only repositories")
	}
	if res.ByLanguage["JavaScript"] == 0 || res.ByLanguage["Python"] == 0 {
		t.Error("language detection found no JS/Py repos")
	}
}
