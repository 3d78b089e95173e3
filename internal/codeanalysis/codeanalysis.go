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

	"repro/internal/htmlparse"
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

// NewResult creates an empty aggregate with its maps allocated.
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
// so accumulation order does not affect the totals.
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

// AnalyzeOptions gives an Analyzer its checkpoint/resume hooks. The
// stage's dedup unit is the unique link, so resume state and the
// checkpointer's feed are keyed by link, not bot: one settled link
// covers every bot referencing it.
type AnalyzeOptions struct {
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
