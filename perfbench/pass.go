package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canary"
	"repro/internal/codeanalysis"
	"repro/internal/codehost"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gateway"
	"repro/internal/honeypot"
	"repro/internal/htmlparse"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/scraper"
	"repro/internal/synth"
	"repro/internal/traceability"
)

// stack is the audit's service world built from the packages' exported
// constructors, wired as core.NewAuditor wires it.
type stack struct {
	listing *listing.Server
	host    *codehost.Server
	plat    *platform.Platform
	gw      *gateway.Server
	canary  *canary.Service
	list    *scraper.Client
	code    *scraper.Client
	env     honeypot.Env
	camp    honeypot.CampaignConfig
}

func newStack(in auditInputs, seed int64, eco *synth.Ecosystem, reg *obs.Registry) (*stack, error) {
	st := &stack{}
	var err error
	stall := listing.AntiScrape{SlowRedirectDelay: time.Duration(in.StallMS) * time.Millisecond}
	if st.listing, err = listing.NewServer(listing.NewDirectory(eco.Bots), stall, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if st.host, err = codehost.NewServer(eco.Host, "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	st.plat = platform.New(platform.Options{Obs: reg})
	if st.gw, err = gateway.NewServer(st.plat, "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	st.gw.SetObs(reg)
	if st.canary, err = canary.NewService("127.0.0.1:0", nil); err != nil {
		st.close()
		return nil, err
	}
	st.canary.SetObs(reg)
	solver := &scraper.TwoCaptchaSim{CostPerSolve: 299}
	if st.list, err = scraper.NewClient(scraper.ClientConfig{
		BaseURL: st.listing.BaseURL(), Timeout: time.Duration(in.TimeoutMS) * time.Millisecond, Solver: solver, Obs: reg,
	}); err != nil {
		st.close()
		return nil, err
	}
	if st.code, err = scraper.NewClient(scraper.ClientConfig{
		BaseURL: st.host.BaseURL(), Timeout: 5 * time.Second, Solver: solver, Obs: reg,
	}); err != nil {
		st.close()
		return nil, err
	}
	exp := honeypot.DefaultConfig()
	exp.Settle = time.Duration(in.SettleMS) * time.Millisecond
	exp.Solver = solver
	st.env = honeypot.Env{
		Platform: st.plat,
		Gateway:  st.gw.Addr(),
		Canary:   st.canary,
		Minter:   st.canary.NewMinter("canary.invalid", nil),
		Feed:     corpus.New(seed ^ 0xfeed),
		Obs:      reg,
	}
	st.camp = honeypot.CampaignConfig{SampleSize: in.Sample, Concurrency: 8, Experiment: exp}
	return st, nil
}

func (st *stack) close() {
	if st.listing != nil {
		st.listing.Close()
	}
	if st.host != nil {
		st.host.Close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	if st.canary != nil {
		st.canary.Close()
	}
	if st.plat != nil {
		st.plat.Close()
	}
}

// passResult is the per-bot pass's outputs and accounting.
type passResult struct {
	wall     time.Duration
	digest   string
	items    int
	failed   int64
	problems []string
	samples  map[string]int
	workWait map[string]map[string]float64
}

// perBotPass drives every bot through Crawler.Settle →
// Analyzer.AnalyzePolicyContext → codeanalysis Analyzer.SettleBot →
// CampaignRunner.RunBot on Shards workers, recording a span around each
// call, then measures HTML parsing and the code scan on the pages and
// sources the pass touched. It fills vals with the per-layer metrics.
func perBotPass(ctx context.Context, in auditInputs, seed int64, vals map[string]float64) (*passResult, error) {
	eco := synth.Generate(synth.Config{Seed: seed, NumBots: in.Bots})
	reg := obs.NewRegistry()
	st, err := newStack(in, seed, eco, reg)
	if err != nil {
		return nil, err
	}
	defer st.close()

	var scr, tr, ca, hp layerSpans
	start := time.Now()
	crawler := scraper.NewCrawler(st.list, scraper.Config{})
	var ids []int
	var listErr error
	scr.time(func() { ids, listErr, err = crawler.List(ctx) })
	if err != nil {
		return nil, fmt.Errorf("list: %w", err)
	}
	az := codeanalysis.NewAnalyzer(st.code, codeanalysis.AnalyzeOptions{})
	camp := honeypot.NewCampaignRunner(st.env, eco, st.camp)

	type item struct{ botID, listIdx, sampleIdx int }
	items := make([]item, 0, len(ids))
	byBot := make(map[int]int, len(ids))
	for i, id := range ids {
		byBot[id] = len(items)
		items = append(items, item{id, i, -1})
	}
	for si, b := range camp.Sample() {
		if idx, ok := byBot[b.ID]; ok {
			items[idx].sampleIdx = si
		} else {
			items = append(items, item{b.ID, -1, si})
		}
	}

	records := make([]*scraper.Record, len(ids))
	analyses := make([]*codeanalysis.RepoAnalysis, len(ids))
	var an traceability.Analyzer
	var linkMu sync.Mutex
	links := make(map[string]bool)
	var failed, next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < in.Shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(items) {
					return
				}
				it := items[idx]
				var rec *scraper.Record
				if it.listIdx >= 0 {
					var out scraper.SettledBot
					var err error
					scr.time(func() { out, err = crawler.Settle(ctx, it.botID) })
					if err != nil || out.Quarantine != nil {
						failed.Add(1)
					}
					records[it.listIdx], rec = out.Rec, out.Rec
				}
				if rec != nil && rec.PermsValid {
					tr.time(func() { an.AnalyzePolicyContext(ctx, rec.PolicyText, rec.Perms) })
					if rec.GitHubURL != "" {
						var sl codeanalysis.SettledLink
						var err error
						ca.time(func() { sl, err = az.SettleBot(ctx, rec.ID, rec.GitHubURL) })
						if err != nil || sl.Quarantine != nil {
							failed.Add(1)
						}
						analyses[it.listIdx] = sl.RA
						linkMu.Lock()
						links[rec.GitHubURL] = true
						linkMu.Unlock()
					}
				}
				if it.sampleIdx >= 0 {
					var qerr, err error
					hp.time(func() { _, qerr, err = camp.RunBot(ctx, it.sampleIdx) })
					if err != nil || qerr != nil {
						failed.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	pass := &passResult{wall: time.Since(start), items: len(items), failed: failed.Load()}

	// Assemble in listing order, as the sharded executor does.
	res := &core.Results{Honeypot: camp.Result()}
	for i, rec := range records {
		if rec == nil {
			continue
		}
		res.Records = append(res.Records, rec)
		if rec.PermsValid && rec.GitHubURL != "" && analyses[i] != nil {
			res.Analyses = append(res.Analyses, analyses[i])
		}
	}
	if listErr != nil {
		res.StageErrors = map[string]error{"collect": listErr}
	}
	if pass.digest, err = auditDigest(res); err != nil {
		return nil, err
	}
	pass.problems = checkAudit(in, seed, eco, res, pass.digest)

	stats := st.list.Stats()
	scr.wait = time.Duration(stats.Timeouts) * time.Duration(in.TimeoutMS) * time.Millisecond
	hp.wait = reg.Histogram("honeypot_settle_seconds").Sum()
	vals["scraper.calls"] = scr.calls()
	vals["scraper.work_s"] = scr.workS()
	vals["scraper.wait_s"] = scr.wait.Seconds()
	vals["scraper.p50_ms"] = scr.pMS(0.5)
	vals["scraper.p99_ms"] = scr.pMS(0.99)
	vals["scraper.requests"] = float64(stats.Requests)
	vals["scraper.timeouts"] = float64(stats.Timeouts)
	vals["scraper.retries"] = float64(stats.Retries + stats.TransientRetries)
	if stats.Requests > 0 {
		vals["scraper.yield"] = float64(len(res.Records)) / float64(stats.Requests)
	}
	vals["traceability.calls"] = tr.calls()
	vals["traceability.work_s"] = tr.workS()
	if tr.calls() > 0 {
		vals["traceability.us_per_policy"] = tr.total.Seconds() * 1e6 / tr.calls()
	}
	vals["codeanalysis.calls"] = ca.calls()
	vals["codeanalysis.work_s"] = ca.workS()
	vals["codeanalysis.p99_ms"] = ca.pMS(0.99)
	if ca.calls() > 0 {
		vals["codeanalysis.dedupe_ratio"] = float64(len(links)) / ca.calls()
	}
	vals["honeypot.calls"] = hp.calls()
	vals["honeypot.work_s"] = hp.workS()
	vals["honeypot.wait_s"] = hp.wait.Seconds()
	vals["honeypot.p50_ms"] = hp.pMS(0.5)
	vals["honeypot.p99_ms"] = hp.pMS(0.99)
	vals["honeypot.triggered"] = float64(len(res.Honeypot.Triggered))
	pass.workWait = map[string]map[string]float64{
		"scraper":      {"work_s": scr.workS(), "wait_s": scr.wait.Seconds()},
		"traceability": {"work_s": tr.workS(), "wait_s": 0},
		"codeanalysis": {"work_s": ca.workS(), "wait_s": 0},
		"honeypot":     {"work_s": hp.workS(), "wait_s": hp.wait.Seconds()},
	}
	pass.samples = map[string]int{
		"scraper_spans": len(scr.durs), "codeanalysis_spans": len(ca.durs), "honeypot_spans": len(hp.durs),
	}

	pages, err := fetchPages(st.listing.BaseURL(), ids)
	if err != nil {
		return nil, err
	}
	usPerKB, allocs := parseCost(pages)
	vals["htmlparse.us_per_kb"] = usPerKB
	vals["htmlparse.allocs_per_page"] = allocs
	pass.samples["htmlparse_pages"] = len(pages)
	vals["codeanalysis.scan_us_per_kb"] = scanCost(eco, links)
	return pass, nil
}

// fetchPages reads listing pages, detail pages and the consent pages
// their invite links lead to from the in-process listing server, for
// the first bots of the listing.
func fetchPages(base string, ids []int) ([]string, error) {
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	var pages []string
	for p := 1; p <= 5; p++ {
		page, err := get(fmt.Sprintf("/bots?page=%d", p))
		if err != nil {
			return nil, err
		}
		pages = append(pages, page)
	}
	for i, id := range ids {
		if i == 200 {
			break
		}
		detail, err := get(fmt.Sprintf("/bot/%d", id))
		if err != nil {
			return nil, err
		}
		pages = append(pages, detail)
		a := htmlparse.Parse(detail).SelectFirst("a.invite")
		if a == nil {
			continue
		}
		if href, _ := a.Attr("href"); strings.HasPrefix(href, "/oauth/authorize") {
			consent, err := get(href)
			if err != nil {
				return nil, err
			}
			pages = append(pages, consent)
		}
	}
	return pages, nil
}

// parseCost times htmlparse.Parse over the pages for at least 300 ms and
// counts its allocations per page in one further pass.
func parseCost(pages []string) (usPerKB, allocsPerPage float64) {
	var bytes int
	for _, p := range pages {
		bytes += len(p)
	}
	if bytes == 0 {
		return 0, 0
	}
	reps := 0
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		for _, p := range pages {
			htmlparse.Parse(p)
		}
		reps++
	}
	usPerKB = time.Since(start).Seconds() * 1e6 / (float64(reps) * float64(bytes) / 1024)
	m0 := readMem()
	for _, p := range pages {
		htmlparse.Parse(p)
	}
	m1 := readMem()
	return usPerKB, float64(m1.Mallocs-m0.Mallocs) / float64(len(pages))
}

// scanCost times codeanalysis.ScanSource over every file of the
// repositories the pass's links name, for at least 200 ms.
func scanCost(eco *synth.Ecosystem, links map[string]bool) float64 {
	var srcs []string
	var bytes int
	for link := range links {
		repo, ok := eco.Host.Repo(strings.TrimPrefix(link, "/"))
		if !ok {
			continue
		}
		for _, f := range repo.Files {
			srcs = append(srcs, f.Content)
			bytes += len(f.Content)
		}
	}
	if bytes == 0 {
		return 0
	}
	reps := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, s := range srcs {
			codeanalysis.ScanSource(s)
		}
		reps++
	}
	return time.Since(start).Seconds() * 1e6 / (float64(reps) * float64(bytes) / 1024)
}
