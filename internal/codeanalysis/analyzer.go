package codeanalysis

import (
	"context"
	"errors"
	"sync"

	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/scraper"
)

// Analyzer runs the stage one bot at a time for a caller-scheduled
// executor (the pipeline's). Many bots share a developer's profile
// page or repository, so links are deduplicated with a single-flight
// cache: the first bot to reach a link fetches it, later bots (possibly
// concurrent) wait on the same flight and clone its analysis. One fetch
// per unique link keeps the fault injector's per-endpoint attempt
// numbering — and with it the degradation ledger — independent of
// scheduling. A link whose fetch fails after retries quarantines every
// bot that references it.
type Analyzer struct {
	Client *scraper.Client
	Opts   AnalyzeOptions

	mu      sync.Mutex
	flights map[string]*linkFlight
}

// linkFlight is one unique link's resolution, shared by every bot
// referencing it.
type linkFlight struct {
	done    chan struct{}
	ra      *RepoAnalysis // master copy (BotID unset), nil on failure
	err     error
	resumed bool
}

// SettledLink is one bot's code-analysis outcome.
type SettledLink struct {
	// RA is the per-bot analysis, nil when the link was quarantined.
	RA *RepoAnalysis
	// Quarantine is the fetch failure that set the bot aside.
	Quarantine error
	// Resumed marks an outcome replayed from Opts.Resume.
	Resumed bool
}

// NewAnalyzer builds an Analyzer sharing one flight cache.
func NewAnalyzer(c *scraper.Client, opts AnalyzeOptions) *Analyzer {
	return &Analyzer{Client: c, Opts: opts, flights: make(map[string]*linkFlight)}
}

// resolve returns the link's flight, fetching it exactly once across
// all callers. A non-nil error is context cancellation.
func (az *Analyzer) resolve(ctx context.Context, link string) (*linkFlight, error) {
	az.mu.Lock()
	if f, ok := az.flights[link]; ok {
		az.mu.Unlock()
		select {
		case <-f.done:
			return f, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &linkFlight{done: make(chan struct{})}
	az.flights[link] = f
	az.mu.Unlock()
	defer close(f.done)
	if r := az.Opts.Resume; r != nil {
		if ra, ok := r.Settled[link]; ok {
			clone := *ra
			f.ra, f.resumed = &clone, true
			return f, nil
		}
		if msg, ok := r.Failed[link]; ok {
			f.err, f.resumed = errors.New(msg), true
			return f, nil
		}
	}
	endOp := trace.StartOpDetail(ctx, "codehost_fetch", link)
	ra, err := AnalyzeLinkContext(ctx, az.Client, 0, link)
	endOp()
	if err != nil {
		f.err = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return f, nil // waiters see the cancellation through f.err
		}
		if az.Opts.OnLink != nil {
			az.Opts.OnLink(link, nil, err.Error())
		}
		return f, nil
	}
	f.ra = ra
	if az.Opts.OnLink != nil {
		az.Opts.OnLink(link, ra, "")
	}
	return f, nil
}

// SettleBot resolves one bot's link through the flight cache and emits
// the bot's journal milestone: code_flag, bot_quarantined, or
// work_skipped for a link settled in the checkpoint. Each call records
// one codeanalysis bot-stage span. The returned error is fatal (context
// cancellation only).
func (az *Analyzer) SettleBot(ctx context.Context, botID int, link string) (SettledLink, error) {
	ctx = trace.WithBot(ctx, botID, "")
	defer trace.StartStage(ctx)()
	f, err := az.resolve(ctx, link)
	if err != nil {
		return SettledLink{}, err
	}
	botCtx := journal.WithBot(ctx, botID, "")
	if f.err != nil {
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			return SettledLink{}, f.err
		}
		if f.resumed {
			journal.Emit(botCtx, "codeanalysis", journal.KindWorkSkipped, map[string]any{
				"stage":  "codeanalysis",
				"reason": "quarantined in checkpoint",
				"link":   link,
			})
		} else {
			journal.Emit(botCtx, "codeanalysis", journal.KindBotQuarantined, map[string]any{
				"link":  link,
				"error": f.err.Error(),
			})
		}
		return SettledLink{Quarantine: f.err, Resumed: f.resumed}, nil
	}
	clone := *f.ra
	clone.BotID = botID
	if f.resumed {
		journal.Emit(botCtx, "codeanalysis", journal.KindWorkSkipped, map[string]any{
			"stage":  "codeanalysis",
			"reason": "settled in checkpoint",
			"link":   link,
		})
	} else {
		journal.Emit(botCtx, "codeanalysis", journal.KindCodeFlag, map[string]any{
			"outcome":        string(clone.Outcome),
			"language":       clone.MainLanguage,
			"analyzed":       clone.Analyzed,
			"performs_check": clone.PerformsCheck,
			"patterns":       clone.PatternsFound,
		})
	}
	return SettledLink{RA: &clone, Resumed: f.resumed}, nil
}
