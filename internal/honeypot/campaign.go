package honeypot

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/canary"
	"repro/internal/corpus"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/synth"
)

// CampaignConfig tunes a multi-bot honeypot campaign.
type CampaignConfig struct {
	// SampleSize is how many most-voted bots to test (paper: 500).
	SampleSize int
	// Concurrency is ignored.
	//
	// Deprecated: no executor reads it. The caller that drives
	// CampaignRunner.RunBot decides how many experiments run at once.
	Concurrency int
	// Experiment is the per-bot configuration.
	Experiment Config
	// Strict restores the pre-quarantine behavior: the first failed
	// experiment is a fatal error from RunBot. Default (false) quarantines the failing bot and keeps
	// the rest of the campaign's work.
	Strict bool
}

// Quarantine records one experiment abandoned after an infrastructure
// failure — the bot was sampled but produced no verdict.
type Quarantine struct {
	BotID int
	Name  string
	Err   error
}

// Diversity summarizes how varied the tested sample is — the paper
// justifies its sample by its spread in guild count (3M..25), votes
// (876K..6) and purpose tags.
type Diversity struct {
	GuildCountMin, GuildCountMax int
	VotesMin, VotesMax           int
	// TagCoverage counts sampled bots per purpose tag.
	TagCoverage map[string]int
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Tested    int
	Triggered []*Verdict
	Verdicts  []*Verdict
	// GiveawayMessages maps bot names to non-command messages they
	// posted (the human-operator tell).
	GiveawayMessages map[string][]string
	// Diversity describes the tested sample.
	Diversity Diversity
	// Quarantined lists sampled bots whose experiments failed on
	// infrastructure errors, in sample order. Tested counts only bots
	// with verdicts, so Tested + len(Quarantined) == sample size.
	Quarantined []Quarantine
}

// Degraded reports whether any sampled bot went unverdicted.
func (r *CampaignResult) Degraded() bool { return len(r.Quarantined) > 0 }

// sampleDiversity computes the spread of a selected sample.
func sampleDiversity(sample []*listing.Bot) Diversity {
	d := Diversity{TagCoverage: make(map[string]int)}
	for i, b := range sample {
		if i == 0 {
			d.GuildCountMin, d.GuildCountMax = b.GuildCount, b.GuildCount
			d.VotesMin, d.VotesMax = b.Votes, b.Votes
		}
		if b.GuildCount < d.GuildCountMin {
			d.GuildCountMin = b.GuildCount
		}
		if b.GuildCount > d.GuildCountMax {
			d.GuildCountMax = b.GuildCount
		}
		if b.Votes < d.VotesMin {
			d.VotesMin = b.Votes
		}
		if b.Votes > d.VotesMax {
			d.VotesMax = b.Votes
		}
		for _, tag := range b.Tags {
			d.TagCoverage[tag]++
		}
	}
	return d
}

// SelectMostVoted picks the top-K most-voted bots with valid invites —
// "a diverse sample of most-voted chatbots … as these chatbots are more
// likely to be active and maintained" (§4.2).
func SelectMostVoted(bots []*listing.Bot, k int) []*listing.Bot {
	var eligible []*listing.Bot
	for _, b := range bots {
		if b.InviteHealth == listing.InviteOK {
			eligible = append(eligible, b)
		}
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		if eligible[i].Votes != eligible[j].Votes {
			return eligible[i].Votes > eligible[j].Votes
		}
		return eligible[i].ID < eligible[j].ID
	})
	if k > 0 && len(eligible) > k {
		eligible = eligible[:k]
	}
	return eligible
}

// RunnerForBehavior maps a synthetic behaviour profile to a runner.
func RunnerForBehavior(b synth.Behavior) BotRunner {
	switch b {
	case synth.BehaviorResponder:
		return &ResponderBot{}
	case synth.BehaviorSnoop:
		return &SnoopBot{}
	default:
		return IdleBot{}
	}
}

// CampaignRunner runs the campaign one bot at a time for a
// caller-scheduled executor: the pipeline drives RunBot for each sample
// index under its own scheduling, hands over with Restore any outcome
// it settled elsewhere (a checkpoint's), and assembles the result with
// Result. Each experiment records one honeypot bot-stage span on any
// tracer carried by its context.
type CampaignRunner struct {
	env Env
	eco *synth.Ecosystem
	cfg CampaignConfig

	sample       []*listing.Bot
	verdicts     []*Verdict
	quarantined  []error
	cQuarantined *obs.Counter
}

// NewCampaignRunner selects the sample and prepares per-bot slots.
// cfg's sample-size default is applied here, before the sample
// selection and feed derivation that depend on it.
func NewCampaignRunner(env Env, eco *synth.Ecosystem, cfg CampaignConfig) *CampaignRunner {
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 500
	}
	sample := SelectMostVoted(eco.Bots, cfg.SampleSize)
	return &CampaignRunner{
		env:          env,
		eco:          eco,
		cfg:          cfg,
		sample:       sample,
		verdicts:     make([]*Verdict, len(sample)),
		quarantined:  make([]error, len(sample)),
		cQuarantined: obs.Or(env.Obs).Counter("honeypot_bots_quarantined_total"),
	}
}

// Sample returns the selected most-voted sample in campaign order.
func (cr *CampaignRunner) Sample() []*listing.Bot { return cr.sample }

// Restore stores an outcome settled outside the runner in sample slot
// i — a verdict, or the error that quarantined the bot — so Result
// still assembles the whole sample. The caller does not also RunBot i.
func (cr *CampaignRunner) Restore(i int, v *Verdict, qerr error) {
	cr.verdicts[i], cr.quarantined[i] = v, qerr
}

// RunBot runs the experiment for sample index i, records the outcome
// in the runner's slots, and returns it for checkpoint batching: a
// verdict, or the error that quarantined the bot. The returned err is
// fatal: context cancellation, or any failure under cfg.Strict. RunBot
// is safe for concurrent use on distinct indexes.
func (cr *CampaignRunner) RunBot(ctx context.Context, i int) (v *Verdict, qerr error, err error) {
	b := cr.sample[i]
	sub := Subject{
		ListingID: b.ID,
		Name:      b.Name,
		Perms:     b.Perms,
		Prefix:    b.Prefix,
		Runner:    RunnerForBehavior(cr.eco.Behaviors[b.ID]),
	}
	// Each experiment gets its own derived feed so concurrent guilds
	// neither interleave one RNG stream nor lose per-experiment
	// determinism — the same property makes verdicts independent of
	// which worker ran the experiment, and when.
	expEnv := cr.env
	expEnv.Feed = corpus.Derive(int64(cr.cfg.SampleSize), int64(b.ID))
	expCtx := journal.WithBot(ctx, b.ID, b.Name)
	expCtx = trace.WithBot(expCtx, b.ID, b.Name)
	endStage := trace.StartStage(expCtx)
	verdict, rerr := RunContext(expCtx, expEnv, cr.cfg.Experiment, sub)
	endStage()
	if rerr != nil {
		switch {
		case errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded):
			return nil, nil, rerr
		case cr.cfg.Strict:
			return nil, nil, fmt.Errorf("bot %s: %w", b.Name, rerr)
		}
		cr.quarantined[i] = rerr
		cr.cQuarantined.Inc()
		journal.Emit(expCtx, "honeypot", journal.KindBotQuarantined, map[string]any{
			"error": rerr.Error(),
		})
		return nil, rerr, nil
	}
	cr.verdicts[i] = verdict
	return verdict, nil, nil
}

// Result assembles the campaign outcome in sample order.
func (cr *CampaignRunner) Result() *CampaignResult {
	res := &CampaignResult{
		GiveawayMessages: make(map[string][]string),
		Diversity:        sampleDiversity(cr.sample),
	}
	for i, v := range cr.verdicts {
		if v == nil {
			if cr.quarantined[i] != nil {
				res.Quarantined = append(res.Quarantined, Quarantine{
					BotID: cr.sample[i].ID, Name: cr.sample[i].Name, Err: cr.quarantined[i],
				})
			}
			continue
		}
		res.Tested++
		res.Verdicts = append(res.Verdicts, v)
		if v.Triggered {
			res.Triggered = append(res.Triggered, v)
		}
		if len(v.BotMessages) > 0 {
			res.GiveawayMessages[v.Subject.Name] = v.BotMessages
		}
	}
	return res
}

// KindsTriggered summarizes which token kinds fired across a campaign.
func (r *CampaignResult) KindsTriggered() map[canary.Kind]int {
	out := make(map[canary.Kind]int)
	for _, v := range r.Triggered {
		for _, k := range v.TriggeredKinds {
			out[k]++
		}
	}
	return out
}
