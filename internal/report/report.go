// Package report renders the pipeline's results in the shape of the
// paper's tables and figures: plain-text tables and horizontal bar
// charts suitable for terminals and for EXPERIMENTS.md diffs.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/obs/trace"
	"repro/internal/policygen"
	"repro/internal/scraper"
	"repro/internal/traceability"
	"repro/internal/vetting"
)

// Table is a simple text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table, column-aligned by character count, so a
// multi-byte cell (µs) pads like any other.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// pad right-fills s with spaces to w characters.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Figure3 renders the permission-distribution bar chart from scraped
// records — the paper's Figure 3.
func Figure3(w io.Writer, dist []scraper.PermissionShare) {
	fmt.Fprintln(w, "Figure 3: Percentage distribution of permissions requested by chatbots")
	maxName := 0
	for _, d := range dist {
		if n := len(d.Perm.Name()); n > maxName {
			maxName = n
		}
	}
	for _, d := range dist {
		bars := int(d.Pct / 2) // 50 chars == 100%
		fmt.Fprintf(w, "  %s %s %6.2f%% (%d)\n",
			pad(d.Perm.Name(), maxName), pad(strings.Repeat("#", bars), 30), d.Pct, d.Count)
	}
}

// Table1 renders the bots-per-developer distribution. developers maps
// developer tags to their bot counts.
func Table1(w io.Writer, botsPerDev map[string]int) {
	counts := make(map[int]int) // k bots -> number of developers
	total := 0
	for _, k := range botsPerDev {
		counts[k]++
		total++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	t := &Table{
		Title:   "Table 1: Bots distribution by number of developers",
		Headers: []string{"No of Bots", "Developers (No.)", "Developers (%)"},
	}
	for _, k := range keys {
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", counts[k]),
			fmt.Sprintf("%.2f%%", 100*float64(counts[k])/float64(total)))
	}
	t.Render(w)
}

// Table2Data carries the traceability counts of the paper's Table 2.
type Table2Data struct {
	ActiveBots   int
	WebsiteLink  int
	PolicyLink   int
	PolicyValid  int
	Traceability traceability.Result
}

// Table2 renders the Discord traceability results.
func Table2(w io.Writer, d Table2Data) {
	pct := func(n int) string {
		if d.ActiveBots == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(d.ActiveBots))
	}
	t := &Table{
		Title:   "Table 2: Discord Traceability Results",
		Headers: []string{"Features", "Count", "Percent"},
	}
	t.AddRow("Unique active chatbots", fmt.Sprintf("%d", d.ActiveBots), "100%")
	t.AddRow("Website Link", fmt.Sprintf("%d", d.WebsiteLink), pct(d.WebsiteLink))
	t.AddRow("Privacy Policy Link", fmt.Sprintf("%d", d.PolicyLink), pct(d.PolicyLink))
	t.AddRow("Privacy Policy", fmt.Sprintf("%d", d.PolicyValid), pct(d.PolicyValid))
	t.Render(w)
	fmt.Fprintf(w, "Disclosure classes: broken %d (%.2f%%), partial %d, complete %d\n",
		d.Traceability.Broken, d.Traceability.BrokenPct(),
		d.Traceability.Partial, d.Traceability.Complete)
}

// DataTypes renders the ontology-based exposure-vs-disclosure audit —
// the refinement of Table 2 this reproduction adds (the paper's §5
// notes existing ontologies miss this ecosystem's data types).
func DataTypes(w io.Writer, r *traceability.DataTypeResult) {
	fmt.Fprintf(w, "Data-type audit (ontology): %d bots; %d (%.2f%%) mention every data type they expose\n",
		r.Bots, r.FullyAccounted(), pctOf(r.FullyAccounted(), r.Bots))
	t := &Table{Headers: []string{"Data type", "Exposed (bots)", "Mentioned (bots)"}}
	keys := make([]string, 0, len(r.ExposedByData))
	for dt := range r.ExposedByData {
		keys = append(keys, string(dt))
	}
	sort.Slice(keys, func(i, j int) bool {
		return r.ExposedByData[policyDataType(keys[i])] > r.ExposedByData[policyDataType(keys[j])]
	})
	for _, k := range keys {
		dt := policyDataType(k)
		t.AddRow(k, fmt.Sprintf("%d", r.ExposedByData[dt]), fmt.Sprintf("%d", r.MentionedByData[dt]))
	}
	t.Render(w)
}

func pctOf(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func policyDataType(s string) policygen.DataType { return policygen.DataType(s) }

// Table3 renders the permission-check API hit counts plus the
// per-language check rates from §4.2.
func Table3(w io.Writer, res *codeanalysis.Result) {
	t := &Table{
		Title:   "Table 3: Permission/role checks found in JavaScript & Python",
		Headers: []string{"Check API", "Repos containing it"},
	}
	for _, p := range codeanalysis.Table3Patterns {
		t.AddRow(p.Name, fmt.Sprintf("%d", res.PatternHits[p.Name]))
	}
	t.Render(w)
	fmt.Fprintf(w, "JavaScript: %d analyzed, %d (%.2f%%) perform checks\n",
		res.JSAnalyzed, res.JSChecked, 100*res.CheckRate("JavaScript"))
	fmt.Fprintf(w, "Python:     %d analyzed, %d (%.2f%%) perform checks\n",
		res.PyAnalyzed, res.PyChecked, 100*res.CheckRate("Python"))
}

// CodeTaxonomy renders the §4.2 GitHub-link yield text statistics.
func CodeTaxonomy(w io.Writer, res *codeanalysis.Result) {
	pctOf := func(n, of int) string {
		if of == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(of))
	}
	fmt.Fprintf(w, "GitHub link taxonomy (of %d active bots):\n", res.ActiveBots)
	fmt.Fprintf(w, "  with GitHub link:   %d (%s of active)\n", res.WithLink, pctOf(res.WithLink, res.ActiveBots))
	fmt.Fprintf(w, "  valid repositories: %d (%s of links)\n", res.ValidRepos(), pctOf(res.ValidRepos(), res.WithLink))
	fmt.Fprintf(w, "  with source code:   %d (%s of active)\n", res.WithSource(), pctOf(res.WithSource(), res.ActiveBots))
	langs := make([]string, 0, len(res.ByLanguage))
	for l := range res.ByLanguage {
		if l != "" {
			langs = append(langs, l)
		}
	}
	sort.Slice(langs, func(i, j int) bool { return res.ByLanguage[langs[i]] > res.ByLanguage[langs[j]] })
	for _, l := range langs {
		fmt.Fprintf(w, "  language %-12s %d (%s of valid repos)\n", l+":", res.ByLanguage[l], pctOf(res.ByLanguage[l], res.ValidRepos()))
	}
	if n := res.ByLanguage[""]; n > 0 {
		fmt.Fprintf(w, "  no identifiable code: %d\n", n)
	}
}

// ScrapeYield renders the §4.2 collection yield: valid vs invalid
// permissions, by cause.
func ScrapeYield(w io.Writer, records []*scraper.Record) {
	total, valid := 0, 0
	causes := make(map[scraper.InvalidReason]int)
	for _, r := range records {
		if r == nil {
			continue
		}
		total++
		if r.PermsValid {
			valid++
		} else {
			causes[r.InvalidReason]++
		}
	}
	fmt.Fprintf(w, "Scrape yield: %d bots collected; %d (%.2f%%) valid permissions, %d (%.2f%%) invalid\n",
		total, valid, 100*float64(valid)/float64(total), total-valid, 100*float64(total-valid)/float64(total))
	reasons := make([]string, 0, len(causes))
	for r := range causes {
		reasons = append(reasons, string(r))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "  invalid cause %-26s %d\n", r+":", causes[scraper.InvalidReason(r)])
	}
}

// Vetting renders the mitigation summary: what a listing-time vetting
// process (the paper's §7 recommendation) would do to this population.
func Vetting(w io.Writer, s vetting.Summary) {
	fmt.Fprintf(w, "Vetting (listing-time mitigation): %d bots — %d approve (%.2f%%), %d flag (%.2f%%), %d reject (%.2f%%)\n",
		s.Total,
		s.Approved, pctOf(s.Approved, s.Total),
		s.Flagged, pctOf(s.Flagged, s.Total),
		s.Rejected, pctOf(s.Rejected, s.Total))
	for _, rule := range s.TopRules() {
		fmt.Fprintf(w, "  rule %-28s hit %d bots\n", rule+":", s.ByRule[rule])
	}
}

// StageDegradation carries the per-stage degradation tallies shown
// alongside timings: how many retries the stage burned, how many bots
// it quarantined, and how many stage-level errors it absorbed while
// running in lenient mode.
type StageDegradation struct {
	Retries     int
	Quarantined int
	Errors      int
	// BudgetLeft is the stage's remaining shared retry budget when the
	// stage finished; -1 means the stage ran unbudgeted (historical
	// per-fetch pools) and renders as "-".
	BudgetLeft int
}

// StageTimings renders the run's stage table from the tracer's
// run-level spans and per-stage totals: Wall is the stage span's
// wall-clock time, Busy the summed time of its bot-stage spans, Items
// their count, and Mean Busy per item. The sharded executor's stages
// share one wall-clock window, so their Wall columns overlap while Busy
// stays per stage. Retries, Quarantined and Budget left come from the
// stage-name-keyed degradation map; stages missing from it render "-".
func StageTimings(w io.Writer, rows []trace.StageTiming, deg map[string]StageDegradation) {
	t := &Table{
		Title:   "Stage timings",
		Headers: []string{"Stage", "Wall", "Busy", "Items", "Mean", "Retries", "Quarantined", "Budget left"},
	}
	for _, st := range rows {
		busy, items, mean := "-", "-", "-"
		if st.Items > 0 {
			busyMS := float64(st.BusyNS) / 1e6
			busy, items, mean = fmtMS(busyMS), fmt.Sprintf("%d", st.Items), fmtMS(busyMS/float64(st.Items))
		}
		retries, quarantined, budget := "-", "-", "-"
		if d, ok := deg[st.Stage]; ok {
			retries, quarantined = fmt.Sprintf("%d", d.Retries), fmt.Sprintf("%d", d.Quarantined)
			if d.BudgetLeft >= 0 {
				budget = fmt.Sprintf("%d", d.BudgetLeft)
			}
		}
		t.AddRow(st.Stage, fmtMS(float64(st.WallNS)/1e6), busy, items, mean, retries, quarantined, budget)
	}
	t.Render(w)
}

// Honeypot renders a campaign summary.
func Honeypot(w io.Writer, res *honeypot.CampaignResult) {
	fmt.Fprintf(w, "Honeypot campaign: %d bots tested in isolated guilds\n", res.Tested)
	if d := res.Diversity; d.TagCoverage != nil && res.Tested > 0 {
		tags := make([]string, 0, len(d.TagCoverage))
		for tg := range d.TagCoverage {
			tags = append(tags, tg)
		}
		sort.Strings(tags)
		fmt.Fprintf(w, "  sample diversity: guild count %d..%d, votes %d..%d, purposes %s\n",
			d.GuildCountMin, d.GuildCountMax, d.VotesMin, d.VotesMax, strings.Join(tags, "/"))
	}
	fmt.Fprintf(w, "  bots triggering canary tokens: %d\n", len(res.Triggered))
	for _, v := range res.Triggered {
		kinds := make([]string, 0, len(v.TriggeredKinds))
		for _, k := range v.TriggeredKinds {
			kinds = append(kinds, k.String())
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "  * %s (guild %s): tokens %s, %d trigger(s)\n",
			v.Subject.Name, v.GuildTag, strings.Join(kinds, "+"), len(v.Triggers))
		for _, msg := range res.GiveawayMessages[v.Subject.Name] {
			fmt.Fprintf(w, "    bot posted: %q\n", msg)
		}
	}
}
