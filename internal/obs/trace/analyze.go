package trace

import "sort"

// Summary is the headline view of a span log.
type Summary struct {
	RunID     string
	Level     string
	Shards    int
	WallMS    float64
	Ops       int
	StageOps  int
	SubOps    int
	RunSpans  int
	Bots      int
	BusyMS    float64 // summed bot-stage span time across shards
	Stages    []StageCost
	ShardLoad []ShardLoad
}

// StageCost aggregates one stage's bot spans.
type StageCost struct {
	Stage   string
	Count   int
	TotalMS float64
	P50MS   float64
	P95MS   float64
	MaxMS   float64
	MaxBot  int32
}

// ShardLoad is one worker's share of the work.
type ShardLoad struct {
	Shard  int32
	Items  int
	BusyMS float64
}

// BotCost is one bot's total span time with its per-stage split.
type BotCost struct {
	BotID   int32
	Bot     string
	Shard   int32
	TotalMS float64
	StageMS map[string]float64
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Summarize computes the Summary for a decoded span log.
func Summarize(h Header, ops []Op) Summary {
	s := Summary{RunID: h.RunID, Level: h.Level, Shards: h.Shards, Ops: len(ops)}
	durs := map[string][]float64{}
	maxBot := map[string]int32{}
	maxDur := map[string]float64{}
	bots := map[int32]bool{}
	shards := map[int32]*ShardLoad{}
	var wallNS int64
	for _, op := range ops {
		if op.EndNS() > wallNS {
			wallNS = op.EndNS()
		}
		switch op.Kind {
		case KindStage:
			s.StageOps++
			d := msOf(op.DurNS)
			durs[op.Stage] = append(durs[op.Stage], d)
			if d > maxDur[op.Stage] {
				maxDur[op.Stage] = d
				maxBot[op.Stage] = op.BotID
			}
			if op.BotID != 0 {
				bots[op.BotID] = true
			}
			s.BusyMS += d
			if op.Shard >= 0 {
				e := shards[op.Shard]
				if e == nil {
					e = &ShardLoad{Shard: op.Shard}
					shards[op.Shard] = e
				}
				e.Items++
				e.BusyMS += d
			}
		case KindOp:
			s.SubOps++
		case KindRun:
			s.RunSpans++
		}
	}
	s.WallMS = msOf(wallNS)
	s.Bots = len(bots)
	for stage, ds := range durs {
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		s.Stages = append(s.Stages, StageCost{
			Stage: stage, Count: len(ds), TotalMS: total,
			P50MS: percentile(ds, 0.50), P95MS: percentile(ds, 0.95),
			MaxMS: maxDur[stage], MaxBot: maxBot[stage],
		})
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].TotalMS > s.Stages[j].TotalMS })
	for _, e := range shards {
		s.ShardLoad = append(s.ShardLoad, *e)
	}
	sort.Slice(s.ShardLoad, func(i, j int) bool { return s.ShardLoad[i].Shard < s.ShardLoad[j].Shard })
	return s
}

// SlowestBots returns the n most expensive bots by total bot-stage
// span time, each with its per-stage breakdown.
func SlowestBots(ops []Op, n int) []BotCost {
	bots := map[int32]*BotCost{}
	for _, op := range ops {
		if op.Kind != KindStage || op.BotID == 0 {
			continue
		}
		b := bots[op.BotID]
		if b == nil {
			b = &BotCost{BotID: op.BotID, Bot: op.Bot, Shard: op.Shard, StageMS: map[string]float64{}}
			bots[op.BotID] = b
		}
		d := msOf(op.DurNS)
		b.TotalMS += d
		b.StageMS[op.Stage] += d
		b.Shard = op.Shard
		if b.Bot == "" {
			b.Bot = op.Bot
		}
	}
	out := make([]BotCost, 0, len(bots))
	for _, b := range bots {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].BotID < out[j].BotID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ByStage returns per-stage costs sorted by total time — the
// `botscan trace by-stage` view.
func ByStage(h Header, ops []Op) []StageCost {
	return Summarize(h, ops).Stages
}

// PathStep is one hop of the critical path: a span that ran
// back-to-back with the next one on the same shard, plus the idle gap
// that preceded it.
type PathStep struct {
	Op       Op
	GapMS    float64 // idle time on the shard before this span started
	OnCritMS float64 // the span's own duration
}

// CriticalPath walks backwards from the last-finishing bot-stage span:
// starting at the op that determines the run's wall clock, it collects
// the chain of spans on that op's shard that ran back-to-back before
// it (recording any idle gaps). The result, first step earliest,
// approximates where wall-clock time went on the run's longest shard —
// the spans to shrink or re-balance first.
func CriticalPath(ops []Op) []PathStep {
	// Candidate spans: bot-stage and run spans with real duration.
	var spans []Op
	for _, op := range ops {
		if (op.Kind == KindStage || op.Kind == KindRun) && op.DurNS > 0 {
			spans = append(spans, op)
		}
	}
	if len(spans) == 0 {
		return nil
	}
	last := spans[0]
	for _, op := range spans {
		if op.Kind == KindRun {
			continue // the run mirror always spans the whole stage
		}
		if op.EndNS() > last.EndNS() || last.Kind == KindRun {
			last = op
		}
	}
	if last.Kind == KindRun && len(spans) == 1 {
		return []PathStep{{Op: last, OnCritMS: msOf(last.DurNS)}}
	}
	// All spans on the terminal op's shard, sorted by end time.
	var lane []Op
	for _, op := range spans {
		if op.Kind == KindStage && op.Shard == last.Shard {
			lane = append(lane, op)
		}
	}
	sort.Slice(lane, func(i, j int) bool { return lane[i].EndNS() < lane[j].EndNS() })
	var rev []PathStep
	cursor := last.StartNS
	rev = append(rev, PathStep{Op: last, OnCritMS: msOf(last.DurNS)})
	for i := len(lane) - 1; i >= 0; i-- {
		op := lane[i]
		if op.EndNS() > cursor || op == last {
			continue
		}
		gap := msOf(cursor - op.EndNS())
		rev[len(rev)-1].GapMS = gap
		rev = append(rev, PathStep{Op: op, OnCritMS: msOf(op.DurNS)})
		cursor = op.StartNS
	}
	// Reverse into chronological order.
	out := make([]PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}
