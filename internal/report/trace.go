// Trace renderers: the `botscan trace` subcommand views over a span
// log captured with -trace-out (summary, slowest bots, per-stage
// costs, critical path).
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs/trace"
)

// TraceSummary renders the headline view of a span log.
func TraceSummary(w io.Writer, s trace.Summary) {
	fmt.Fprintf(w, "Trace summary: run %s (level %s, %d shards)\n", s.RunID, s.Level, s.Shards)
	fmt.Fprintf(w, "  wall clock   %s\n", fmtMS(s.WallMS))
	fmt.Fprintf(w, "  ops          %d (%d bot-stage, %d sub-op, %d run)\n",
		s.Ops, s.StageOps, s.SubOps, s.RunSpans)
	fmt.Fprintf(w, "  bots traced  %d\n", s.Bots)
	fmt.Fprintf(w, "  busy (sum)   %s across shards\n", fmtMS(s.BusyMS))
	fmt.Fprintln(w)
	t := &Table{
		Title:   "Per-stage bot span cost",
		Headers: []string{"Stage", "Spans", "Total", "P50", "P95", "Max", "Max Bot"},
	}
	for _, st := range s.Stages {
		t.AddRow(st.Stage, fmt.Sprintf("%d", st.Count), fmtMS(st.TotalMS),
			fmtMS(st.P50MS), fmtMS(st.P95MS), fmtMS(st.MaxMS), fmt.Sprintf("%d", st.MaxBot))
	}
	t.Render(w)
	if len(s.ShardLoad) == 0 {
		return
	}
	fmt.Fprintln(w)
	lt := &Table{
		Title:   "Per-shard load",
		Headers: []string{"Shard", "Items", "Busy"},
	}
	for _, sl := range s.ShardLoad {
		shard := fmt.Sprintf("%d", sl.Shard)
		if sl.Shard == trace.ControlShard {
			shard = "control"
		}
		lt.AddRow(shard, fmt.Sprintf("%d", sl.Items), fmtMS(sl.BusyMS))
	}
	lt.Render(w)
}

// TraceSlowest renders the top-n most expensive bots with their
// per-stage split.
func TraceSlowest(w io.Writer, bots []trace.BotCost) {
	if len(bots) == 0 {
		fmt.Fprintln(w, "no bot-stage spans in trace (was it captured with -trace-level bots or full?)")
		return
	}
	// Stage columns: union of stages seen, widest first for stability.
	stageSet := map[string]bool{}
	for _, b := range bots {
		for st := range b.StageMS {
			stageSet[st] = true
		}
	}
	stages := make([]string, 0, len(stageSet))
	for st := range stageSet {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	headers := []string{"#", "Bot", "ID", "Shard", "Total"}
	for _, st := range stages {
		headers = append(headers, st)
	}
	t := &Table{Title: fmt.Sprintf("Slowest %d bots by traced span time", len(bots)), Headers: headers}
	for i, b := range bots {
		name := b.Bot
		if name == "" {
			name = "-"
		}
		row := []string{fmt.Sprintf("%d", i+1), name, fmt.Sprintf("%d", b.BotID),
			fmt.Sprintf("%d", b.Shard), fmtMS(b.TotalMS)}
		for _, st := range stages {
			if d, ok := b.StageMS[st]; ok {
				row = append(row, fmtMS(d))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// TraceByStage renders per-stage costs sorted by total time.
func TraceByStage(w io.Writer, stages []trace.StageCost) {
	t := &Table{
		Title:   "Stage cost (bot spans, most expensive first)",
		Headers: []string{"Stage", "Spans", "Total", "P50", "P95", "Max", "Max Bot"},
	}
	for _, st := range stages {
		t.AddRow(st.Stage, fmt.Sprintf("%d", st.Count), fmtMS(st.TotalMS),
			fmtMS(st.P50MS), fmtMS(st.P95MS), fmtMS(st.MaxMS), fmt.Sprintf("%d", st.MaxBot))
	}
	t.Render(w)
}

// TraceCriticalPath renders the back-to-back chain of spans that ends
// at the run's last-finishing bot span — where wall-clock time went on
// the longest shard.
func TraceCriticalPath(w io.Writer, steps []trace.PathStep) {
	if len(steps) == 0 {
		fmt.Fprintln(w, "no spans with duration in trace")
		return
	}
	shard := steps[len(steps)-1].Op.Shard
	var onPath, gaps float64
	for _, s := range steps {
		onPath += s.OnCritMS
		gaps += s.GapMS
	}
	fmt.Fprintf(w, "Critical path: %d spans on shard %d — %s busy, %s idle gaps\n",
		len(steps), shard, fmtMS(onPath), fmtMS(gaps))
	for _, s := range steps {
		op := s.Op
		who := op.Bot
		if who == "" && op.BotID != 0 {
			who = fmt.Sprintf("bot %d", op.BotID)
		}
		if who == "" {
			who = "(run)"
		}
		fmt.Fprintf(w, "  %s %s %s [%s]\n",
			pad(fmtMS(s.OnCritMS), 10), pad(op.Stage, 14), pad(who, 24), bar(s.OnCritMS, onPath))
		if s.GapMS > 0 {
			fmt.Fprintf(w, "  %s %s (shard idle)\n", pad(fmtMS(s.GapMS), 10), pad("·· gap", 14))
		}
	}
}

// bar renders a proportional 20-char bar for the critical-path view.
func bar(ms, total float64) string {
	if total <= 0 {
		return ""
	}
	n := int(20 * ms / total)
	if n < 1 {
		n = 1
	}
	if n > 20 {
		n = 20
	}
	return strings.Repeat("#", n)
}

// fmtMS renders a millisecond figure compactly (µs under 1ms, seconds
// above 10s).
func fmtMS(ms float64) string {
	switch {
	case ms <= 0:
		return "0"
	case ms < 1:
		return fmt.Sprintf("%.0fµs", ms*1000)
	case ms < 10_000:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.2fs", ms/1000)
	}
}
