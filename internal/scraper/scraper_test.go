package scraper

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/listing"
	"repro/internal/permissions"
	"repro/internal/synth"
)

// crawl drives a Crawler as the pipeline's executor does: List, then
// Settle every listed bot, workers at a time. Records come back in
// listing order and quarantines keyed by bot ID; listErr is a
// lenient-mode pagination failure and err joins every fatal error.
func crawl(ctx context.Context, c *Client, cfg Config, workers int) (recs []*Record, quarantined map[int]error, listErr, err error) {
	cr := NewCrawler(c, cfg)
	ids, listErr, err := cr.List(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	outs := make([]SettledBot, len(ids))
	errs := make([]error, len(ids))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ids); i = int(next.Add(1)) - 1 {
				outs[i], errs[i] = cr.Settle(ctx, ids[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, nil, err
	}
	quarantined = make(map[int]error)
	for i, out := range outs {
		switch {
		case out.Rec != nil:
			recs = append(recs, out.Rec)
		case out.Quarantine != nil:
			quarantined[ids[i]] = out.Quarantine
		}
	}
	return recs, quarantined, listErr, nil
}

// crawlStrict is a crawl in which the first failed bot is fatal.
func crawlStrict(c *Client, cfg Config, workers int) ([]*Record, error) {
	cfg.Strict = true
	recs, _, _, err := crawl(context.Background(), c, cfg, workers)
	return recs, err
}

// startSite spins up a listing server over a synthetic population.
func startSite(t *testing.T, n int, cfg listing.AntiScrape) (*listing.Server, *synth.Ecosystem) {
	t.Helper()
	eco := synth.Generate(synth.Config{Seed: 99, NumBots: n})
	dir := listing.NewDirectory(eco.Bots)
	srv, err := listing.NewServer(dir, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, eco
}

func newTestClient(t *testing.T, base string, solver Solver) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{BaseURL: base, Timeout: 500 * time.Millisecond, Solver: solver})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestListBotIDsPagination(t *testing.T) {
	srv, eco := startSite(t, 60, listing.AntiScrape{})
	c := newTestClient(t, srv.BaseURL(), nil)
	ids, err := ListBotIDsContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(eco.Bots) {
		t.Fatalf("listed %d ids, want %d", len(ids), len(eco.Bots))
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestScrapeBotExtractsAttributes(t *testing.T) {
	srv, eco := startSite(t, 40, listing.AntiScrape{})
	c := newTestClient(t, srv.BaseURL(), nil)
	var target *listing.Bot
	for _, b := range eco.Bots {
		if b.InviteHealth == listing.InviteOK && b.HasWebsite {
			target = b
			break
		}
	}
	if target == nil {
		t.Skip("no suitable bot in this seed")
	}
	rec, err := ScrapeBotContext(context.Background(), c, target.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != target.Name {
		t.Errorf("name = %q, want %q", rec.Name, target.Name)
	}
	if !rec.PermsValid || rec.Perms != target.Perms {
		t.Errorf("perms = %v %s, want %s", rec.PermsValid, rec.Perms, target.Perms)
	}
	if rec.GuildCount != target.GuildCount || rec.Votes != target.Votes {
		t.Errorf("counts = %d/%d, want %d/%d", rec.GuildCount, rec.Votes, target.GuildCount, target.Votes)
	}
	if len(rec.Tags) != len(target.Tags) {
		t.Errorf("tags = %v, want %v", rec.Tags, target.Tags)
	}
	if len(rec.Developers) != 1 || rec.Developers[0] != target.Developers[0] {
		t.Errorf("developers = %v, want %v", rec.Developers, target.Developers)
	}
	if rec.GitHubURL != target.GitHubURL {
		t.Errorf("github = %q, want %q", rec.GitHubURL, target.GitHubURL)
	}
	if !rec.HasWebsite {
		t.Error("website link missed")
	}
}

func TestInvalidInviteTaxonomy(t *testing.T) {
	srv, eco := startSite(t, 120, listing.AntiScrape{SlowRedirectDelay: 2 * time.Second})
	c := newTestClient(t, srv.BaseURL(), nil) // 500ms timeout < 2s delay
	var broken, removed, slow *listing.Bot
	for _, b := range eco.Bots {
		switch b.InviteHealth {
		case listing.InviteBroken:
			if broken == nil {
				broken = b
			}
		case listing.InviteRemoved:
			if removed == nil {
				removed = b
			}
		case listing.InviteSlow:
			if slow == nil {
				slow = b
			}
		}
	}
	if broken == nil || removed == nil || slow == nil {
		t.Fatalf("seed lacks invalid bots: %v %v %v", broken, removed, slow)
	}
	cases := []struct {
		bot  *listing.Bot
		want InvalidReason
	}{
		{broken, InvalidBrokenLink},
		{removed, InvalidRemoved},
		{slow, InvalidTimeout},
	}
	for _, tc := range cases {
		rec, err := ScrapeBotContext(context.Background(), c, tc.bot.ID, 1)
		if err != nil {
			t.Fatalf("bot %d (%s): %v", tc.bot.ID, tc.bot.InviteHealth, err)
		}
		if rec.PermsValid {
			t.Errorf("bot %d (%s): perms unexpectedly valid", tc.bot.ID, tc.bot.InviteHealth)
		}
		if rec.InvalidReason != tc.want {
			t.Errorf("bot %d (%s): reason = %q, want %q", tc.bot.ID, tc.bot.InviteHealth, rec.InvalidReason, tc.want)
		}
	}
}

func TestPolicyScraping(t *testing.T) {
	srv, eco := startSite(t, 400, listing.AntiScrape{})
	c := newTestClient(t, srv.BaseURL(), nil)
	var live, dead *listing.Bot
	for _, b := range eco.Bots {
		if b.HasPolicyLink && !b.PolicyDead && live == nil {
			live = b
		}
		if b.HasPolicyLink && b.PolicyDead && dead == nil {
			dead = b
		}
	}
	if live == nil {
		t.Fatal("seed lacks a live policy")
	}
	rec, err := ScrapeBotContext(context.Background(), c, live.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.PolicyLinkFound || rec.PolicyLinkDead {
		t.Errorf("live policy flags = %v/%v", rec.PolicyLinkFound, rec.PolicyLinkDead)
	}
	if rec.PolicyText == "" {
		t.Error("policy text empty")
	}
	if dead != nil {
		rec2, err := ScrapeBotContext(context.Background(), c, dead.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rec2.PolicyLinkFound || !rec2.PolicyLinkDead || rec2.PolicyText != "" {
			t.Errorf("dead policy flags = %+v", rec2)
		}
	}
}

func TestFlakyDetailRetries(t *testing.T) {
	srv, eco := startSite(t, 80, listing.AntiScrape{FlakyEvery: 2})
	c := newTestClient(t, srv.BaseURL(), nil)
	recs, err := crawlStrict(c, Config{Retries: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(eco.Bots) {
		t.Fatalf("crawled %d, want %d", len(recs), len(eco.Bots))
	}
	if c.Stats().Retries == 0 {
		t.Error("expected retries against a flaky site")
	}
	// Despite flakiness, every OK bot's permissions must be captured —
	// retrying is what §3 prescribes.
	for i, b := range eco.Bots {
		_ = i
		if b.InviteHealth != listing.InviteOK {
			continue
		}
		var rec *Record
		for _, r := range recs {
			if r.ID == b.ID {
				rec = r
			}
		}
		if rec == nil || !rec.PermsValid {
			t.Fatalf("bot %d lost to flakiness", b.ID)
		}
	}
}

func TestCaptchaFlow(t *testing.T) {
	srv, _ := startSite(t, 30, listing.AntiScrape{CaptchaEvery: 5})
	solver := &TwoCaptchaSim{CostPerSolve: 299}
	c := newTestClient(t, srv.BaseURL(), solver)
	recs, err := crawlStrict(c, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Fatalf("crawled %d records", len(recs))
	}
	if solver.Solved() == 0 {
		t.Error("no captchas solved despite CaptchaEvery=5")
	}
	if solver.Cost() != solver.Solved()*299 {
		t.Errorf("cost accounting wrong: %d for %d solves", solver.Cost(), solver.Solved())
	}
	if c.Stats().CaptchasSolved == 0 {
		t.Error("client did not record captcha solves")
	}
}

func TestCaptchaWithoutSolverFails(t *testing.T) {
	srv, _ := startSite(t, 30, listing.AntiScrape{CaptchaEvery: 3})
	c := newTestClient(t, srv.BaseURL(), nil)
	_, err := crawlStrict(c, Config{}, 1)
	if err == nil {
		t.Fatal("crawl should fail when captchas cannot be solved")
	}
	c2 := newTestClient(t, srv.BaseURL(), FailingSolver{})
	if _, err := crawlStrict(c2, Config{}, 1); err == nil {
		t.Fatal("crawl should fail when the solver errors")
	}
	// A cancelled crawl ends on its context, not on the outage.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (FailingSolver{}).Solve(ctx, "what is 1 plus 2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("FailingSolver.Solve on a cancelled context = %v, want context.Canceled", err)
	}
}

func TestRateLimitBackoff(t *testing.T) {
	srv, _ := startSite(t, 30, listing.AntiScrape{RequestsPerSecond: 50, Burst: 5})
	c := newTestClient(t, srv.BaseURL(), nil)
	recs, err := crawlStrict(c, Config{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Fatalf("crawled %d records", len(recs))
	}
	if c.Stats().Throttled == 0 {
		t.Error("expected 429s under an aggressive crawl")
	}
}

func TestPermissionDistribution(t *testing.T) {
	recs := []*Record{
		{ID: 1, PermsValid: true, Perms: permissions.SendMessages | permissions.Administrator},
		{ID: 2, PermsValid: true, Perms: permissions.SendMessages},
		{ID: 3, PermsValid: true, Perms: permissions.ViewChannel},
		{ID: 4, PermsValid: false, Perms: permissions.BanMembers}, // excluded
		nil, // tolerated
	}
	dist := PermissionDistribution(recs)
	if len(dist) != 3 {
		t.Fatalf("distribution size = %d", len(dist))
	}
	if dist[0].Perm != permissions.SendMessages || dist[0].Count != 2 {
		t.Errorf("top = %+v", dist[0])
	}
	if dist[0].Pct < 66.5 || dist[0].Pct > 66.8 {
		t.Errorf("top pct = %f", dist[0].Pct)
	}
}

func TestErrGoneOnMissingBot(t *testing.T) {
	srv, _ := startSite(t, 5, listing.AntiScrape{})
	c := newTestClient(t, srv.BaseURL(), nil)
	_, err := ScrapeBotContext(context.Background(), c, 424242, 1)
	if !errors.Is(err, ErrGone) {
		t.Errorf("missing bot err = %v", err)
	}
}
