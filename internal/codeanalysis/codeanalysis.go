// Package codeanalysis implements the paper's code analysis stage (§3,
// §4.2): it visits the GitHub links collected from bot listings,
// classifies each link (valid repository, user profile, profile without
// public repositories, dead link), detects the repository's main
// language from its page, downloads the source files, and scans
// JavaScript and Python code for the four permission-check APIs of
// Table 3 to decide whether the bot checks its invokers' permissions.
package codeanalysis

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/htmlparse"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/scraper"
)

// Pattern is one Table 3 permission/role-check API.
type Pattern struct {
	Name    string // label used in reports
	Literal string // substring searched in source files
}

// Table3Patterns are the four checks the paper identifies for
// JavaScript and Python Discord libraries.
var Table3Patterns = []Pattern{
	{Name: ".hasPermission(", Literal: ".hasPermission("},
	{Name: ".has(", Literal: ".has("},
	{Name: "member.roles.cache", Literal: "member.roles.cache"},
	{Name: "userPermissions", Literal: "userPermissions"},
}

// LinkOutcome classifies one GitHub link, following §4.2's taxonomy:
// "The rest [of the] links take us to user profiles, a GitHub with no
// repositories, a GitHub with no public repositories, or an invalid
// link."
type LinkOutcome string

// Link outcomes.
const (
	OutcomeValidRepo LinkOutcome = "valid-repo"
	OutcomeProfile   LinkOutcome = "user-profile"
	OutcomeNoRepos   LinkOutcome = "profile-without-repos"
	OutcomeDead      LinkOutcome = "invalid-link"
)

// RepoAnalysis is the per-bot result.
type RepoAnalysis struct {
	BotID    int
	Link     string
	Outcome  LinkOutcome
	FullName string
	// MainLanguage is the first (main) language shown on the repo page;
	// empty for repositories with no identifiable source code.
	MainLanguage string
	// Analyzed is true for JavaScript/Python repositories whose sources
	// were scanned.
	Analyzed bool
	// PerformsCheck is true when any source file contains a Table 3
	// pattern.
	PerformsCheck bool
	// PatternsFound lists which APIs matched.
	PatternsFound []string
}

// ScanSource reports which Table 3 patterns appear in a source blob.
func ScanSource(src string) []string {
	var found []string
	for _, p := range Table3Patterns {
		if strings.Contains(src, p.Literal) {
			found = append(found, p.Name)
		}
	}
	return found
}

// AnalyzeLinkContext resolves one GitHub link against the code host
// and produces the per-bot analysis; fetches abort as soon as ctx is
// done.
func AnalyzeLinkContext(ctx context.Context, c *scraper.Client, botID int, link string) (*RepoAnalysis, error) {
	ra := &RepoAnalysis{BotID: botID, Link: link}
	doc, err := c.GetContext(ctx, link)
	if err != nil {
		if errors.Is(err, scraper.ErrGone) {
			ra.Outcome = OutcomeDead
			return ra, nil
		}
		return nil, fmt.Errorf("codeanalysis: fetch %s: %w", link, err)
	}
	if repoDiv := doc.ByID("repo"); repoDiv != nil {
		ra.Outcome = OutcomeValidRepo
		ra.FullName, _ = repoDiv.Attr("data-full-name")
		// "The scraper will then check for languages used for the code
		// and extracts the first (main) language provided."
		if lang := doc.SelectFirst("#lang-bar span.lang"); lang != nil {
			ra.MainLanguage, _ = lang.Attr("data-lang")
		}
		if ra.MainLanguage == "JavaScript" || ra.MainLanguage == "Python" {
			if err := scanRepoSources(ctx, c, doc, ra); err != nil {
				return nil, err
			}
		}
		return ra, nil
	}
	if prof := doc.ByID("profile"); prof != nil {
		if len(doc.Select("ul.repo-list li.repo")) == 0 {
			ra.Outcome = OutcomeNoRepos
		} else {
			ra.Outcome = OutcomeProfile
		}
		return ra, nil
	}
	ra.Outcome = OutcomeDead
	return ra, nil
}

// scanRepoSources downloads the repository's files and scans those of
// the main language for check APIs.
func scanRepoSources(ctx context.Context, c *scraper.Client, repoPage *htmlparse.Node, ra *RepoAnalysis) error {
	ra.Analyzed = true
	wantExt := ".js"
	if ra.MainLanguage == "Python" {
		wantExt = ".py"
	}
	seen := make(map[string]bool)
	for _, fileLink := range repoPage.Select("ul.file-list li.file a") {
		href, _ := fileLink.Attr("href")
		if !strings.HasSuffix(href, wantExt) {
			continue
		}
		src, err := c.GetRawContext(ctx, href)
		if err != nil {
			return fmt.Errorf("codeanalysis: raw %s: %w", href, err)
		}
		for _, name := range ScanSource(src) {
			if !seen[name] {
				seen[name] = true
				ra.PatternsFound = append(ra.PatternsFound, name)
			}
		}
	}
	ra.PerformsCheck = len(ra.PatternsFound) > 0
	sort.Strings(ra.PatternsFound)
	return nil
}

// Result aggregates a population of analyses into the §4.2 numbers.
type Result struct {
	ActiveBots int
	WithLink   int
	Outcomes   map[LinkOutcome]int
	// ByLanguage counts valid repositories per main language; the ""
	// key counts repositories with no identifiable source.
	ByLanguage map[string]int
	// JSAnalyzed/PyAnalyzed are repository counts whose sources were
	// scanned; *Checked counts those containing a Table 3 API.
	JSAnalyzed, JSChecked int
	PyAnalyzed, PyChecked int
	// PatternHits counts repositories containing each API.
	PatternHits map[string]int
	// Quarantined lists (bot, link) pairs whose analysis was abandoned
	// after the fetch exhausted its retries — counted and skipped, not
	// fatal. Bots sharing a dead-to-us link are quarantined together.
	Quarantined []QuarantinedLink
}

// QuarantinedLink records one bot whose GitHub link could not be
// analyzed because of infrastructure failures.
type QuarantinedLink struct {
	BotID int
	Link  string
	Err   error
}

// Degraded reports whether any link analysis was lost.
func (r *Result) Degraded() bool { return len(r.Quarantined) > 0 }

// NewResult creates an empty aggregate with its maps allocated — both
// executors build Results through it so fault-free runs compare equal.
func NewResult() *Result {
	return &Result{
		Outcomes:    make(map[LinkOutcome]int),
		ByLanguage:  make(map[string]int),
		PatternHits: make(map[string]int),
	}
}

// NoteBot counts one active (perms-valid) bot into the stage totals.
func (r *Result) NoteBot(hasLink bool) {
	r.ActiveBots++
	if hasLink {
		r.WithLink++
	}
}

// Add folds one per-bot analysis into the §4.2 aggregate. Commutative,
// so accumulation order — sequential job order or sharded completion
// order — does not affect the totals.
func (r *Result) Add(ra *RepoAnalysis) {
	r.Outcomes[ra.Outcome]++
	if ra.Outcome != OutcomeValidRepo {
		return
	}
	r.ByLanguage[ra.MainLanguage]++
	switch ra.MainLanguage {
	case "JavaScript":
		r.JSAnalyzed++
		if ra.PerformsCheck {
			r.JSChecked++
		}
	case "Python":
		r.PyAnalyzed++
		if ra.PerformsCheck {
			r.PyChecked++
		}
	}
	for _, p := range ra.PatternsFound {
		r.PatternHits[p]++
	}
}

// AnalyzeOptions extends AnalyzeContext with checkpoint/resume hooks.
// The stage's dedup unit is the unique link, so resume state and the
// checkpointer's feed are keyed by link, not bot: one settled link
// covers every bot referencing it.
type AnalyzeOptions struct {
	// Workers controls fetch parallelism (default 4).
	Workers int
	// Resume, when set, replays settled link outcomes from a
	// checkpoint; settled links are never re-fetched.
	Resume *AnalyzeResume
	// OnLink observes each freshly settled unique link — the
	// checkpointer's feed. ra is nil when the link failed (errText
	// set). Not called for resumed skips. May be called concurrently.
	OnLink func(link string, ra *RepoAnalysis, errText string)
}

// AnalyzeResume carries a checkpoint's settled link outcomes back into
// a resumed run.
type AnalyzeResume struct {
	// Settled maps unique link → its analysis (BotID field is
	// meaningless; it is re-stamped per referencing bot).
	Settled map[string]*RepoAnalysis
	// Failed maps unique link → the error text that quarantined its
	// bots.
	Failed map[string]string
}

// AnalyzeContext is Analyze with cancellation: no new link fetches
// start after ctx is done, and in-flight fetches abort. Each fetched
// link records one codeanalysis bot-stage span, attributed to the first
// bot that references it, around its codehost_fetch op.
//
// Links are deduplicated before fetching: many bots share a developer's
// profile page or repository, so each unique link is resolved exactly
// once and its analysis cloned per bot. Besides saving fetches, this
// keeps the fault injector's per-endpoint attempt numbering — and with
// it the degradation ledger — independent of worker interleaving.
//
// A link whose fetch fails after retries quarantines every bot that
// referenced it (Result.Quarantined) instead of aborting the stage;
// only context cancellation returns an error.
func AnalyzeContext(ctx context.Context, c *scraper.Client, records []*scraper.Record, workers int) (*Result, []*RepoAnalysis, error) {
	return AnalyzeOptionsContext(ctx, c, records, AnalyzeOptions{Workers: workers})
}

// AnalyzeOptionsContext is AnalyzeContext with checkpoint/resume hooks:
// links settled in opts.Resume are replayed (journaled as work_skipped
// per referencing bot) instead of re-fetched, and every freshly settled
// link is reported through opts.OnLink.
func AnalyzeOptionsContext(ctx context.Context, c *scraper.Client, records []*scraper.Record, opts AnalyzeOptions) (*Result, []*RepoAnalysis, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	res := NewResult()
	type job struct {
		botID int
		link  string
	}
	var jobs []job
	links := make(map[string][]int) // unique link → indexes into jobs
	var uniq []string
	for _, r := range records {
		if r == nil || !r.PermsValid {
			continue
		}
		res.NoteBot(r.GitHubURL != "")
		if r.GitHubURL == "" {
			continue
		}
		if _, ok := links[r.GitHubURL]; !ok {
			uniq = append(uniq, r.GitHubURL)
		}
		links[r.GitHubURL] = append(links[r.GitHubURL], len(jobs))
		jobs = append(jobs, job{r.ID, r.GitHubURL})
	}

	linkResults := make([]*RepoAnalysis, len(uniq))
	linkErrs := make([]error, len(uniq))
	resumed := make([]bool, len(uniq))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var firstErr error
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for u, link := range uniq {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		if opts.Resume != nil {
			if ra, ok := opts.Resume.Settled[link]; ok {
				clone := *ra
				linkResults[u] = &clone
				resumed[u] = true
				continue
			}
			if msg, ok := opts.Resume.Failed[link]; ok {
				linkErrs[u] = errors.New(msg)
				resumed[u] = true
				continue
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(u int, link string) {
			defer wg.Done()
			defer func() { <-sem }()
			linkCtx := trace.WithBot(ctx, jobs[links[link][0]].botID, "")
			endStage := trace.StartStage(linkCtx)
			endOp := trace.StartOpDetail(linkCtx, "codehost_fetch", link)
			ra, err := AnalyzeLinkContext(linkCtx, c, 0, link)
			endOp()
			endStage()
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					fail(err)
					return
				}
				linkErrs[u] = err
				if opts.OnLink != nil {
					opts.OnLink(link, nil, err.Error())
				}
				return
			}
			linkResults[u] = ra
			if opts.OnLink != nil {
				opts.OnLink(link, ra, "")
			}
		}(u, link)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Assemble per-bot analyses in job (listing) order, cloning the
	// shared link result, and quarantine the bots behind failed links.
	// Bots behind a link settled in the checkpoint are journaled as
	// work_skipped instead of re-emitting their original milestones.
	perJob := make([]*RepoAnalysis, len(jobs))
	jobErr := make([]error, len(jobs))
	jobResumed := make([]bool, len(jobs))
	for u, link := range uniq {
		for _, ji := range links[link] {
			jobResumed[ji] = resumed[u]
			if lerr := linkErrs[u]; lerr != nil {
				jobErr[ji] = lerr
				continue
			}
			if linkResults[u] == nil {
				continue // fetch never ran (cancellation mid-stage)
			}
			clone := *linkResults[u]
			clone.BotID = jobs[ji].botID
			perJob[ji] = &clone
		}
	}
	analyses := make([]*RepoAnalysis, 0, len(jobs))
	for ji, ra := range perJob {
		if ra == nil {
			if jobErr[ji] != nil {
				res.Quarantined = append(res.Quarantined, QuarantinedLink{
					BotID: jobs[ji].botID, Link: jobs[ji].link, Err: jobErr[ji],
				})
				if jobResumed[ji] {
					journal.Emit(journal.WithBot(ctx, jobs[ji].botID, ""), "codeanalysis",
						journal.KindWorkSkipped, map[string]any{
							"stage":  "codeanalysis",
							"reason": "quarantined in checkpoint",
							"link":   jobs[ji].link,
						})
				} else {
					journal.Emit(journal.WithBot(ctx, jobs[ji].botID, ""), "codeanalysis",
						journal.KindBotQuarantined, map[string]any{
							"link":  jobs[ji].link,
							"error": jobErr[ji].Error(),
						})
				}
			}
			continue
		}
		analyses = append(analyses, ra)
		if jobResumed[ji] {
			journal.Emit(journal.WithBot(ctx, ra.BotID, ""), "codeanalysis",
				journal.KindWorkSkipped, map[string]any{
					"stage":  "codeanalysis",
					"reason": "settled in checkpoint",
					"link":   jobs[ji].link,
				})
			continue
		}
		journal.Emit(journal.WithBot(ctx, ra.BotID, ""), "codeanalysis",
			journal.KindCodeFlag, map[string]any{
				"outcome":        string(ra.Outcome),
				"language":       ra.MainLanguage,
				"analyzed":       ra.Analyzed,
				"performs_check": ra.PerformsCheck,
				"patterns":       ra.PatternsFound,
			})
	}

	for _, ra := range analyses {
		res.Add(ra)
	}
	return res, analyses, nil
}

// ValidRepos returns the count of links that resolved to repositories.
func (r *Result) ValidRepos() int { return r.Outcomes[OutcomeValidRepo] }

// WithSource returns valid repositories whose language was identified.
func (r *Result) WithSource() int { return r.ValidRepos() - r.ByLanguage[""] }

// CheckRate returns the fraction (0..1) of analyzed repos in a language
// that perform permission checks.
func (r *Result) CheckRate(language string) float64 {
	switch language {
	case "JavaScript":
		if r.JSAnalyzed == 0 {
			return 0
		}
		return float64(r.JSChecked) / float64(r.JSAnalyzed)
	case "Python":
		if r.PyAnalyzed == 0 {
			return 0
		}
		return float64(r.PyChecked) / float64(r.PyAnalyzed)
	default:
		return 0
	}
}
