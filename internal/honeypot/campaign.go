package honeypot

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

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
	// Concurrency bounds simultaneous experiments.
	Concurrency int
	// Experiment is the per-bot configuration.
	Experiment Config
	// Strict restores the pre-quarantine behavior: the first failed
	// experiment aborts the campaign and discards every completed
	// verdict. Default (false) quarantines the failing bot and keeps
	// the rest of the campaign's work.
	//
	// Strict interacts with Resume deliberately: the resume pass is
	// applied across the WHOLE sample before any fresh experiment
	// launches, so a Strict campaign resumed over a checkpoint that
	// recorded a quarantine fails fast — settled verdicts are replayed,
	// nothing is re-run, and no new guild is ever created.
	Strict bool
	// Resume, when set, replays settled experiment outcomes from a
	// checkpoint: settled bots are skipped idempotently (journaled as
	// work_skipped) with their prior verdict or quarantine copied into
	// the result.
	Resume *CampaignResume
	// OnSettled observes each freshly settled bot — the checkpointer's
	// feed. v is nil when the experiment was quarantined (qerr set).
	// Not called for resumed skips. May be called concurrently.
	OnSettled func(botID int, v *Verdict, qerr error)
}

// CampaignResume carries a checkpoint's settled experiment outcomes
// back into a resumed campaign, keyed by listing bot ID.
type CampaignResume struct {
	Verdicts    map[int]*Verdict
	Quarantined map[int]error
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
		return ResponderBot{}
	case synth.BehaviorSnoop:
		return &SnoopBot{}
	default:
		return IdleBot{}
	}
}

// CampaignRunner is the campaign's per-bot form for caller-scheduled
// executors: the sharded pipeline applies the resume pass, then drives
// RunBot for each sample index under its own scheduling, and assembles
// the result with Result. CampaignContext is a thin worker pool over
// the same machinery, so both executors settle bots identically.
type CampaignRunner struct {
	env Env
	eco *synth.Ecosystem
	cfg CampaignConfig

	sample       []*listing.Bot
	verdicts     []*Verdict
	quarantined  []error
	settled      []bool
	cQuarantined *obs.Counter
}

// NewCampaignRunner selects the sample and prepares per-bot slots.
// cfg's sample-size and concurrency defaults are applied here, before
// the sample selection and feed derivation that depend on them.
func NewCampaignRunner(env Env, eco *synth.Ecosystem, cfg CampaignConfig) *CampaignRunner {
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 500
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	sample := SelectMostVoted(eco.Bots, cfg.SampleSize)
	return &CampaignRunner{
		env:          env,
		eco:          eco,
		cfg:          cfg,
		sample:       sample,
		verdicts:     make([]*Verdict, len(sample)),
		quarantined:  make([]error, len(sample)),
		settled:      make([]bool, len(sample)),
		cQuarantined: obs.Or(env.Obs).Counter("honeypot_bots_quarantined_total"),
	}
}

// Sample returns the selected most-voted sample in campaign order.
func (cr *CampaignRunner) Sample() []*listing.Bot { return cr.sample }

// Settled reports whether sample index i was settled by the resume
// pass (no fresh experiment needed).
func (cr *CampaignRunner) Settled(i int) bool { return cr.settled[i] }

// ApplyResume replays checkpointed outcomes over the WHOLE sample
// before any fresh experiment launches. This ordering is what makes
// Strict×resume safe: a checkpointed quarantine fails the campaign
// fast without re-running a single settled experiment or creating a
// new guild.
func (cr *CampaignRunner) ApplyResume(ctx context.Context) error {
	if cr.cfg.Resume == nil {
		return nil
	}
	for i, b := range cr.sample {
		if v, ok := cr.cfg.Resume.Verdicts[b.ID]; ok {
			cr.verdicts[i] = v
			cr.settled[i] = true
			journal.Emit(journal.WithBot(ctx, b.ID, b.Name), "honeypot",
				journal.KindWorkSkipped, map[string]any{
					"stage":  "honeypot",
					"reason": "settled in checkpoint",
				})
			continue
		}
		if qerr, ok := cr.cfg.Resume.Quarantined[b.ID]; ok {
			if cr.cfg.Strict {
				return fmt.Errorf("honeypot: bot %s: %w", b.Name, qerr)
			}
			cr.quarantined[i] = qerr
			cr.settled[i] = true
			journal.Emit(journal.WithBot(ctx, b.ID, b.Name), "honeypot",
				journal.KindWorkSkipped, map[string]any{
					"stage":  "honeypot",
					"reason": "quarantined in checkpoint",
				})
		}
	}
	return nil
}

// RunBot runs the fresh experiment for sample index i (a no-op for
// resume-settled indexes), records the outcome in the runner's slots,
// and returns it for checkpoint batching. The returned error is fatal:
// context cancellation, or any failure under cfg.Strict.
func (cr *CampaignRunner) RunBot(ctx context.Context, i int) (v *Verdict, qerr error, err error) {
	if cr.settled[i] {
		return nil, nil, nil
	}
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
	// which executor (sequential or sharded) scheduled the experiment.
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
			return nil, nil, fmt.Errorf("honeypot: bot %s: %w", b.Name, rerr)
		}
		cr.quarantined[i] = rerr
		cr.cQuarantined.Inc()
		journal.Emit(expCtx, "honeypot", journal.KindBotQuarantined, map[string]any{
			"error": rerr.Error(),
		})
		if cr.cfg.OnSettled != nil {
			cr.cfg.OnSettled(b.ID, nil, rerr)
		}
		return nil, rerr, nil
	}
	cr.verdicts[i] = verdict
	if cr.cfg.OnSettled != nil {
		cr.cfg.OnSettled(b.ID, verdict, nil)
	}
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

// CampaignContext runs isolated experiments over the most-voted sample
// of an ecosystem with cancellation, mirroring the paper's 500-bot
// study: no new experiments launch after ctx is done, and in-flight
// experiments abort at their next wait point. Each experiment records
// one honeypot bot-stage span on any tracer carried by ctx.
//
// By default a failed experiment quarantines its bot — counted,
// journaled, skipped — and every completed verdict is kept; set
// cfg.Strict to restore the historical first-error-discards-everything
// behavior. Context cancellation always ends the campaign, but the
// verdicts completed before the cut are returned alongside the error.
func CampaignContext(ctx context.Context, env Env, eco *synth.Ecosystem, cfg CampaignConfig) (*CampaignResult, error) {
	cr := NewCampaignRunner(env, eco, cfg)
	if err := cr.ApplyResume(ctx); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cr.cfg.Concurrency)
	var firstErr error
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := range cr.sample {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		if cr.settled[i] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, _, err := cr.RunBot(ctx, i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()

	res := cr.Result()
	if firstErr != nil {
		if cfg.Strict {
			return nil, firstErr
		}
		// Cancellation (the only lenient-mode firstErr): hand back the
		// work that did complete alongside the error.
		return res, firstErr
	}
	return res, nil
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
