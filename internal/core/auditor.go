// Package core wires the reproduction together into the paper's
// Figure 1 pipeline: data collection over the listing site,
// keyword-based traceability analysis of the collected privacy
// policies, static code analysis of the linked repositories, and
// dynamic honeypot analysis of the most-voted bots — all running
// against in-process but socket-real services.
//
// The Auditor owns the full infrastructure (listing server, code host,
// messaging platform + gateway, canary trigger service) so a single
// call sequence reproduces the paper end to end:
//
//	a, _ := core.NewAuditor(core.Options{Seed: 1, NumBots: 2000})
//	defer a.Close()
//	res, _ := a.RunAllContext(ctx)
//	res.Report(os.Stdout)
//
// Two executors share the same per-bot machinery: the default
// sequential one runs the four stages as whole-population batches, and
// the sharded one (Options.Exec.Shards >= 1) carries each bot through
// collect → traceability → code analysis → honeypot on a work-stealing
// scheduler with per-stage concurrency gates.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/canary"
	"repro/internal/checkpoint"
	"repro/internal/codeanalysis"
	"repro/internal/codehost"
	"repro/internal/corpus"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/honeypot"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/ops"
	bottrace "repro/internal/obs/trace"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/scraper"
	"repro/internal/synth"
	"repro/internal/traceability"
	"repro/internal/vetting"
)

// ScrapeOptions groups the collection-stage knobs.
type ScrapeOptions struct {
	// AntiScrape configures the listing site's defences; zero value
	// disables them for fast runs.
	AntiScrape listing.AntiScrape
	// Timeout bounds each scraper fetch (default 500ms — shorter than
	// the slow-redirect delay, as the paper's timeouts were).
	Timeout time.Duration
	// Workers is the crawl parallelism (default 8). The sharded
	// executor uses Exec.StageWorkers.Collect instead.
	Workers int
	// Solver answers captchas for both the scraper and the honeypot
	// installer; defaults to a TwoCaptchaSim.
	Solver scraper.Solver
}

// HoneypotOptions groups the dynamic-analysis knobs.
type HoneypotOptions struct {
	// Sample is how many most-voted bots the dynamic analysis tests
	// (default: the paper's 500, capped at the population).
	Sample int
	// Concurrency bounds simultaneous guild experiments in the
	// sequential executor (default 8); the sharded executor uses
	// Exec.StageWorkers.Honeypot.
	Concurrency int
	// Settle is the per-bot trigger-watch window (default 500ms).
	Settle time.Duration
}

// StageWorkers bounds the sharded executor's per-stage concurrency:
// how many workers may simultaneously occupy each stage's gate, i.e.
// how much pressure the listing server, code host, and gateway each
// see. Zero fields default to Exec.Shards.
type StageWorkers struct {
	Collect  int
	Code     int
	Honeypot int
}

// ExecOptions selects and tunes the pipeline executor.
type ExecOptions struct {
	// Strict restores fail-fast semantics: the first stage-level or
	// per-bot failure aborts the pipeline instead of quarantining the
	// bot and continuing with partial results.
	Strict bool
	// Shards switches RunAllContext to the sharded work-stealing
	// executor with that many shards: each worker carries one bot
	// through all four stages, stealing from loaded shards when its
	// own drains. Zero (the default) keeps the sequential
	// stage-at-a-time executor.
	Shards int
	// StageWorkers bounds per-stage concurrency under the sharded
	// executor; zero fields default to Shards.
	StageWorkers StageWorkers
	// StageSoftDeadline, when positive, arms a watchdog over each
	// pipeline stage: a stage running past the deadline gets a
	// stage_stalled journal event carrying a full goroutine dump, then
	// its context is cancelled with ErrStageStalled as the cause.
	// Under the sharded executor stages share one wall-clock window,
	// so the deadline spans the whole pipelined phase.
	StageSoftDeadline time.Duration
	// StageRetryBudget, when positive, gives each network stage
	// (collect, codeanalysis) its own shared retry budget of that many
	// retries, surfaced as the stage table's "Budget left" column and
	// persisted across checkpoint/resume. Zero keeps the historical
	// per-fetch pools.
	StageRetryBudget int
}

// TraceOptions configures the per-bot tracing layer: a span per bot
// per stage plus (at full level) sub-operation spans, collected into
// per-shard buffers and exported as a JSONL span log, a
// Perfetto-loadable Chrome trace, and the profile.json timing artifact
// that seeds the steal-aware partitioner.
type TraceOptions struct {
	// Level selects recording depth: off (default: run-level stage
	// spans and per-stage totals only), bots (one span per bot per
	// stage + scheduler events), or full
	// (adds sub-operation spans: page fetches, retries, captcha solves,
	// invite redirects, policy audits, honeypot settles, codehost
	// fetches).
	Level bottrace.Level
	// Tracer overrides the run-built tracer (tests and benchmarks).
	Tracer *bottrace.Tracer
}

// FaultOptions configures deterministic fault injection. When enabled
// the injector is installed as middleware on the listing server and
// code host and as the gateway's event-fault policy, so the whole
// pipeline runs against a deterministically misbehaving substrate.
type FaultOptions struct {
	// Profile names a built-in fault profile (faults.Names()); empty
	// disables injection.
	Profile string
	// Seed drives the injector; same seed + profile replays the same
	// fault ledger.
	Seed int64
	// Injector overrides Profile/Seed with a prebuilt injector.
	Injector *faults.Injector
}

// BreakerOptions configures per-endpoint-class circuit breakers around
// the scraper, code-host, and gateway transports: persistently failing
// endpoints short-circuit (and quarantine their bots fast) instead of
// burning full retry schedules.
type BreakerOptions struct {
	// Enabled builds a breaker set from Config, reporting to the
	// auditor's registry and journal.
	Enabled bool
	// Config tunes the breakers built when Enabled; zero uses the
	// retry package defaults.
	Config retry.BreakerConfig
	// Set overrides Enabled/Config with a prebuilt breaker set.
	Set *retry.BreakerSet
}

// Options configures an Auditor. Identity fields (Seed, NumBots,
// Ecosystem) sit at the top level; everything else is grouped by
// subsystem so cmd/botscan collapses to one constructor call.
type Options struct {
	// Seed drives every generator; equal seeds give equal ecosystems.
	Seed int64
	// NumBots is the listing population (default: the paper's 20,915).
	NumBots int
	// Ecosystem overrides generation with a prebuilt population.
	Ecosystem *synth.Ecosystem

	// Scrape tunes stage 1 (collection).
	Scrape ScrapeOptions
	// Honeypot tunes stage 4 (dynamic analysis).
	Honeypot HoneypotOptions
	// Exec selects the executor and its safety envelope.
	Exec ExecOptions
	// Faults configures deterministic fault injection.
	Faults FaultOptions
	// Checkpoint enables crash-safe snapshots and resume; see
	// CheckpointOptions.
	Checkpoint CheckpointOptions
	// Breakers configures transport circuit breakers.
	Breakers BreakerOptions
	// Trace configures per-bot tracing (off by default: stage spans
	// and totals only).
	Trace TraceOptions

	// Obs receives every stage's counters and histograms; nil uses the
	// process-default registry. Its text exposition is also mounted at
	// /metrics on the listing server.
	Obs *obs.Registry
	// Journal receives one correlated event per pipeline milestone (page
	// fetched, bot discovered, policy audited, experiment settled, canary
	// triggered, permission denied, ...). Nil disables the journal; every
	// emission site is nil-safe.
	Journal *journal.Journal
}

// Auditor owns the simulated ecosystem and its services.
type Auditor struct {
	opts     Options
	eco      *synth.Ecosystem
	obs      *obs.Registry
	journal  *journal.Journal
	faults   *faults.Injector
	breakers *retry.BreakerSet

	listingSrv *listing.Server
	hostSrv    *codehost.Server
	plat       *platform.Platform
	gw         *gateway.Server
	canarySvc  *canary.Service

	listClient *scraper.Client
	codeClient *scraper.Client
}

// QuarantinedBot is one entry in the run's unified quarantine ledger:
// a bot (or bot-owned link) whose stage work failed on infrastructure
// errors and was set aside so the rest of the run could complete.
type QuarantinedBot struct {
	Stage string // "collect", "codeanalysis", or "honeypot"
	BotID int
	Name  string // honeypot only
	Link  string // codeanalysis only
	Err   error
}

// Results bundles every stage's output.
type Results struct {
	// Stage 1: data collection.
	Records  []*scraper.Record
	PermDist []scraper.PermissionShare
	Scraper  scraper.Stats

	// Stage 2: traceability.
	Table2 report.Table2Data
	// DataTypes is the ontology-based refinement: per-data-type
	// exposure vs. disclosure.
	DataTypes *traceability.DataTypeResult

	// Stage 3: code analysis.
	Code     *codeanalysis.Result
	Analyses []*codeanalysis.RepoAnalysis

	// Stage 4: dynamic analysis.
	Honeypot *honeypot.CampaignResult

	// Mitigation: listing-time vetting verdicts (§7 recommendation).
	Vetting        []*vetting.Report
	VettingSummary vetting.Summary

	// Developer attribution (Table 1).
	BotsPerDeveloper map[string]int

	// BotTrace is the run's tracer, built at every level: its run-level
	// stage spans and per-stage totals feed Report's stage table, and at
	// levels bots and full it also holds every bot-stage span,
	// sub-operation, and scheduler event, exportable via its WriteJSONL /
	// WriteChromeTrace / BuildProfile methods.
	BotTrace *bottrace.Tracer

	// RunID is the correlation identifier stamped on every journal event
	// this run emitted (empty when no journal is configured — the ID is
	// minted regardless so reports can cite it).
	RunID string

	// Scale is the sharded executor's scheduler/throughput accounting
	// (nil under the sequential executor) — the source of
	// BENCH_SCALE.json.
	Scale *ScaleStats

	// Degraded reports whether any stage absorbed an error or
	// quarantined a bot; the fields below itemize the damage so partial
	// results are honest about what they omit.
	Degraded bool
	// StageErrors records stage-level errors absorbed in lenient mode
	// (e.g. a listing page that never came back), keyed by stage name.
	StageErrors map[string]error
	// Quarantined is the unified per-bot quarantine ledger across all
	// stages.
	Quarantined []QuarantinedBot
	// Degradation carries per-stage retry/quarantine/error tallies,
	// rendered as extra columns of the stage-timings table.
	Degradation map[string]report.StageDegradation
	// FaultLog is the injector's canonical fault ledger for this run
	// (nil when no injector is configured).
	FaultLog []faults.Fault
}

// NewAuditor generates the ecosystem, resolves every subsystem option
// (fault profile → injector, checkpoint dir → store, breaker config →
// breaker set), and starts all services.
func NewAuditor(opts Options) (*Auditor, error) {
	if opts.Scrape.Timeout <= 0 {
		opts.Scrape.Timeout = 500 * time.Millisecond
	}
	if opts.Scrape.Workers <= 0 {
		opts.Scrape.Workers = 8
	}
	if opts.Scrape.Solver == nil {
		opts.Scrape.Solver = &scraper.TwoCaptchaSim{CostPerSolve: 299}
	}
	if opts.Honeypot.Sample <= 0 {
		opts.Honeypot.Sample = 500
	}
	if opts.Honeypot.Concurrency <= 0 {
		opts.Honeypot.Concurrency = 8
	}
	if opts.Honeypot.Settle <= 0 {
		opts.Honeypot.Settle = 500 * time.Millisecond
	}

	eco := opts.Ecosystem
	if eco == nil {
		eco = synth.Generate(synth.Config{Seed: opts.Seed, NumBots: opts.NumBots})
	}
	a := &Auditor{opts: opts, eco: eco, obs: obs.Or(opts.Obs), journal: opts.Journal}

	a.faults = opts.Faults.Injector
	if a.faults == nil && opts.Faults.Profile != "" {
		prof, err := faults.Named(opts.Faults.Profile)
		if err != nil {
			return nil, fmt.Errorf("core: fault profile: %w", err)
		}
		a.faults = faults.New(prof, opts.Faults.Seed, faults.Options{Obs: a.obs, Journal: opts.Journal})
	}
	a.breakers = opts.Breakers.Set
	if a.breakers == nil && opts.Breakers.Enabled {
		a.breakers = retry.NewBreakerSet(opts.Breakers.Config, retry.BreakerOptions{Obs: a.obs, Journal: opts.Journal})
	}
	if a.opts.Checkpoint.Store == nil && a.opts.Checkpoint.Dir != "" {
		st, err := checkpoint.NewStore(a.opts.Checkpoint.Dir)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint store: %w", err)
		}
		a.opts.Checkpoint.Store = st
	}
	if a.opts.Checkpoint.Resume != "" && a.opts.Checkpoint.Store == nil {
		return nil, fmt.Errorf("core: checkpoint resume requires a store or dir")
	}

	var err error
	if a.listingSrv, err = listing.NewServer(listing.NewDirectory(eco.Bots), opts.Scrape.AntiScrape, "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("core: listing server: %w", err)
	}
	// Full operational surface on the listing server: /metrics plus
	// /healthz, /readyz, and /debug/pprof/*.
	ops.Mount(a.listingSrv, a.obs, nil)
	if a.hostSrv, err = codehost.NewServer(eco.Host, "127.0.0.1:0"); err != nil {
		a.Close()
		return nil, fmt.Errorf("core: code host: %w", err)
	}
	a.plat = platform.New(platform.Options{Obs: a.obs, Journal: opts.Journal})
	if a.gw, err = gateway.NewServer(a.plat, "127.0.0.1:0"); err != nil {
		a.Close()
		return nil, fmt.Errorf("core: gateway: %w", err)
	}
	a.gw.SetObs(a.obs)
	a.gw.SetJournal(opts.Journal)
	if a.canarySvc, err = canary.NewService("127.0.0.1:0", nil); err != nil {
		a.Close()
		return nil, fmt.Errorf("core: canary service: %w", err)
	}
	a.canarySvc.SetObs(a.obs)
	a.canarySvc.SetJournal(opts.Journal)
	if a.listClient, err = scraper.NewClient(scraper.ClientConfig{
		BaseURL:  a.listingSrv.BaseURL(),
		Timeout:  opts.Scrape.Timeout,
		Solver:   opts.Scrape.Solver,
		Obs:      a.obs,
		Breakers: a.breakers,
	}); err != nil {
		a.Close()
		return nil, err
	}
	// The code host imposes no defences; give it a generous timeout.
	if a.codeClient, err = scraper.NewClient(scraper.ClientConfig{
		BaseURL:  a.hostSrv.BaseURL(),
		Timeout:  5 * time.Second,
		Solver:   opts.Scrape.Solver,
		Obs:      a.obs,
		Breakers: a.breakers,
	}); err != nil {
		a.Close()
		return nil, err
	}
	if a.faults != nil {
		// Chaos harness: the same seeded injector misbehaves on the
		// listing site, the code host, and the gateway event stream.
		a.listingSrv.SetMiddleware(a.faults.Middleware)
		a.hostSrv.SetMiddleware(a.faults.Middleware)
		a.gw.SetFaultPolicy(a.faults)
	}
	return a, nil
}

// Faults returns the configured fault injector (nil when the run is
// fault-free).
func (a *Auditor) Faults() *faults.Injector { return a.faults }

// Obs returns the auditor's observability registry.
func (a *Auditor) Obs() *obs.Registry { return a.obs }

// Journal returns the configured event journal (nil when disabled).
func (a *Auditor) Journal() *journal.Journal { return a.journal }

// Breakers returns the resolved circuit-breaker set (nil when
// disabled).
func (a *Auditor) Breakers() *retry.BreakerSet { return a.breakers }

// Gateway returns the live gateway server, so a harness can flip its
// Limits or point external traffic (loadgen personas) at its address.
func (a *Auditor) Gateway() *gateway.Server { return a.gw }

// Platform returns the hosted platform, so a harness can graft extra
// guilds and traffic onto the same world the pipeline audits.
func (a *Auditor) Platform() *platform.Platform { return a.plat }

// SetResume changes which snapshot the NEXT RunAllContext call resumes
// from ("" fresh, ResumeLatest, or a run ID). It exists for kill/resume
// harnesses that re-enter RunAllContext on one long-lived Auditor; do
// not call it while a run is in flight.
func (a *Auditor) SetResume(run string) { a.opts.Checkpoint.Resume = run }

// SetJournal re-points every journal-emitting component — the auditor
// itself, platform, gateway, canary service, fault injector, and
// breaker set — at a new journal. A kill/resume harness uses it between
// run segments after closing the crashed segment's journal and
// reopening it with Resume; do not call it while a run is in flight.
func (a *Auditor) SetJournal(j *journal.Journal) {
	a.journal = j
	a.opts.Journal = j
	if a.plat != nil {
		a.plat.SetJournal(j)
	}
	if a.gw != nil {
		a.gw.SetJournal(j)
	}
	if a.canarySvc != nil {
		a.canarySvc.SetJournal(j)
	}
	a.faults.SetJournal(j)
	a.breakers.SetJournal(j)
}

// MetricsURL returns the Prometheus-style text exposition endpoint
// mounted on the listing server.
func (a *Auditor) MetricsURL() string { return a.listingSrv.BaseURL() + "/metrics" }

// Ecosystem exposes the generated ground truth (for validation and
// examples).
func (a *Auditor) Ecosystem() *synth.Ecosystem { return a.eco }

// CanaryTriggers returns every trigger the canary service recorded.
func (a *Auditor) CanaryTriggers() []canary.Trigger { return a.canarySvc.Triggers() }

// ListingURL returns the listing site base URL.
func (a *Auditor) ListingURL() string { return a.listingSrv.BaseURL() }

// Close tears down every service.
func (a *Auditor) Close() {
	if a.listingSrv != nil {
		a.listingSrv.Close()
	}
	if a.hostSrv != nil {
		a.hostSrv.Close()
	}
	if a.gw != nil {
		a.gw.Close()
	}
	if a.canarySvc != nil {
		a.canarySvc.Close()
	}
	if a.plat != nil {
		a.plat.Close()
	}
}

// CollectContext runs stage 1: crawl the listing and decode
// permissions, failing fast on the first lost bot.
func (a *Auditor) CollectContext(ctx context.Context) ([]*scraper.Record, error) {
	res, err := scraper.CrawlResultContext(ctx, a.listClient, scraper.Config{
		Workers: a.opts.Scrape.Workers,
		Strict:  true,
	})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("core: collect: %w", err)
	}
	return res.Records, nil
}

// auditOne folds one perms-valid record into the traceability
// aggregates and emits its policy_audited event. Both executors route
// every record through it, so per-record traceability is identical
// whether it runs in a batch loop or interleaved per bot; the
// aggregates themselves are commutative counters.
func auditOne(ctx context.Context, an *traceability.Analyzer, d *report.Table2Data, dt *traceability.DataTypeResult, r *scraper.Record) {
	ctx = bottrace.WithBot(ctx, r.ID, r.Name)
	defer bottrace.StartStage(ctx)()
	d.ActiveBots++
	if r.HasWebsite {
		d.WebsiteLink++
	}
	if r.PolicyLinkFound {
		d.PolicyLink++
		if !r.PolicyLinkDead {
			d.PolicyValid++
		}
	}
	v := an.AnalyzePolicyContext(ctx, r.PolicyText, r.Perms)
	d.Traceability.Add(v)
	dt.Add(r.PolicyText, r.Perms)
	journal.Emit(journal.WithBot(ctx, r.ID, r.Name), "core", journal.KindPolicyAudited, map[string]any{
		"verdict":           v.Class.String(),
		"has_policy":        v.HasPolicy,
		"covered":           len(v.Covered),
		"undisclosed_perms": len(v.UndisclosedPerms),
	})
}

// TraceabilityContext runs stage 2 over collected records — the
// Table 2 counts plus the ontology-based per-data-type refinement —
// with ctx carrying the run's journal correlation: every audited
// policy becomes a policy_audited event recording the bot and its
// disclosure verdict.
func (a *Auditor) TraceabilityContext(ctx context.Context, records []*scraper.Record) (report.Table2Data, *traceability.DataTypeResult) {
	var d report.Table2Data
	var an traceability.Analyzer
	dt := traceability.NewDataTypeResult()
	for _, r := range records {
		if r == nil || !r.PermsValid {
			continue
		}
		auditOne(ctx, &an, &d, dt, r)
	}
	return d, dt
}

// CodeAnalysisContext runs stage 3 over collected records.
func (a *Auditor) CodeAnalysisContext(ctx context.Context, records []*scraper.Record) (*codeanalysis.Result, []*codeanalysis.RepoAnalysis, error) {
	return codeanalysis.AnalyzeContext(ctx, a.codeClient, records, a.opts.Scrape.Workers)
}

// DynamicAnalysisContext runs stage 4: the honeypot campaign over the
// most-voted sample.
func (a *Auditor) DynamicAnalysisContext(ctx context.Context) (*honeypot.CampaignResult, error) {
	return honeypot.CampaignContext(ctx, a.honeypotEnv(), a.eco, a.campaignConfig(nil, nil))
}

// honeypotEnv assembles the experiment environment shared by every
// campaign this auditor runs.
func (a *Auditor) honeypotEnv() honeypot.Env {
	return honeypot.Env{
		Platform: a.plat,
		Gateway:  a.gw.Addr(),
		Canary:   a.canarySvc,
		Minter:   a.canarySvc.NewMinter("canary.invalid", nil),
		Feed:     corpus.New(a.opts.Seed ^ 0xfeed),
		Obs:      a.obs,
		Breakers: a.breakers,
	}
}

// campaignConfig assembles the campaign configuration with optional
// checkpoint hooks: a resume state replaying settled experiments and a
// settle observer feeding the checkpointer.
func (a *Auditor) campaignConfig(resume *honeypot.CampaignResume, onSettled func(int, *honeypot.Verdict, error)) honeypot.CampaignConfig {
	expCfg := honeypot.DefaultConfig()
	expCfg.Settle = a.opts.Honeypot.Settle
	expCfg.Solver = a.opts.Scrape.Solver
	return honeypot.CampaignConfig{
		SampleSize:  a.opts.Honeypot.Sample,
		Concurrency: a.opts.Honeypot.Concurrency,
		Experiment:  expCfg,
		Strict:      a.opts.Exec.Strict,
		Resume:      resume,
		OnSettled:   onSettled,
	}
}

// run carries one RunAllContext invocation's shared state between the
// prologue, the chosen executor, and the epilogue.
type run struct {
	a      *Auditor
	ctx    context.Context
	res    *Results
	tracer *bottrace.Tracer
	ck     *ckptState

	scrapeRes *scraper.ResumeState
	codeRes   *codeanalysis.AnalyzeResume
	hpRes     *honeypot.CampaignResume

	collectBudget *retry.Budget
	codeBudget    *retry.Budget
	cDegraded     *obs.Counter
}

// stage opens a run-level stage span with watchdog and journal
// brackets; the returned func closes all three, stamping the span's
// wall time on stage_completed.
func (r *run) stage(name string) (context.Context, func()) {
	sctx := bottrace.ContextWithStage(r.ctx, r.tracer, name)
	endRunSpan := r.tracer.StartRunSpan(name)
	stopWatchdog := func() {}
	if dl := r.a.opts.Exec.StageSoftDeadline; dl > 0 {
		var cancel context.CancelCauseFunc
		sctx, cancel = context.WithCancelCause(sctx)
		stopWatchdog = watchdog(sctx, name, dl, cancel)
	}
	journal.Emit(sctx, "core", journal.KindStageStarted, map[string]any{"stage": name})
	return sctx, func() {
		stopWatchdog()
		wall := endRunSpan()
		journal.Emit(sctx, "core", journal.KindStageCompleted, map[string]any{
			"stage":   name,
			"seconds": wall.Seconds(),
		})
	}
}

// stageFail translates a stage error: watchdog stalls surface as
// ErrStageStalled, outer cancellation as the context's error.
func (r *run) stageFail(sctx context.Context, name string, err error) error {
	if cause := context.Cause(sctx); cause != nil && errors.Is(cause, ErrStageStalled) {
		return cause
	}
	if ctxErr := r.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return fmt.Errorf("core: %s: %w", name, err)
}

// note records a stage's degradation tallies; a stage with absorbed
// errors or quarantines marks the whole run degraded and emits one
// stage_degraded event so the journal tells the story end to end.
func (r *run) note(sctx context.Context, name string, d report.StageDegradation) {
	r.res.Degradation[name] = d
	if d.Quarantined == 0 && d.Errors == 0 {
		return
	}
	r.res.Degraded = true
	r.cDegraded.Inc()
	journal.Emit(sctx, "core", journal.KindStageDegraded, map[string]any{
		"stage":       name,
		"quarantined": d.Quarantined,
		"errors":      d.Errors,
		"retries":     d.Retries,
	})
}

func retriesOf(c *scraper.Client) int {
	s := c.Stats()
	return s.Retries + s.TransientRetries
}

// RunAllContext executes the full Figure 1 pipeline with cancellation:
// cancelling ctx aborts the pipeline at its next wait point and
// returns the context's error. The run's tracer records one run-level
// span per stage, and — when a journal is configured — the run is a
// stream of correlated events sharing one run ID, bracketed by
// stage_started/stage_completed pairs.
//
// With Options.Exec.Shards >= 1 the four analysis stages run on the
// sharded work-stealing executor; fault-free runs produce verdicts,
// quarantines, and aggregates identical to the sequential executor on
// the same seed.
func (a *Auditor) RunAllContext(ctx context.Context) (*Results, error) {
	runID := fmt.Sprintf("run-%d", time.Now().UnixNano())

	// Checkpointing: load the resume snapshot (keeping its run ID so
	// the journal reads as one logical run), or start a fresh one.
	var ck *ckptState
	var resumed *checkpoint.Snapshot
	var scrapeRes *scraper.ResumeState
	var codeRes *codeanalysis.AnalyzeResume
	var hpRes *honeypot.CampaignResume
	if cc := a.opts.Checkpoint; cc.Store != nil {
		base := &checkpoint.Snapshot{
			RunID:          runID,
			Seed:           a.opts.Seed,
			NumBots:        a.opts.NumBots,
			HoneypotSample: a.opts.Honeypot.Sample,
		}
		if cc.Resume != "" {
			snap, err := a.loadResume()
			if err != nil {
				return nil, err
			}
			resumed = snap
			runID = snap.RunID
			base = snap
			// The resumed run re-finalizes; Completed is re-stamped by
			// the final snapshot.
			base.Completed = false
			scrapeRes = scraperResume(snap)
			codeRes = codeResume(snap)
			hpRes = honeypotResume(snap)
		}
		ck = newCkptState(cc, base, a.obs)
	}

	res := &Results{
		RunID:       runID,
		StageErrors: make(map[string]error),
		Degradation: make(map[string]report.StageDegradation),
	}
	ctx = journal.WithRunID(journal.NewContext(ctx, a.journal), runID)
	if ck != nil {
		ck.ctx = ctx
	}
	if resumed != nil {
		fields := map[string]any{
			"settled":     resumed.Settled(),
			"records":     len(resumed.Records),
			"code_links":  len(resumed.CodeLinks),
			"verdicts":    len(resumed.Verdicts),
			"quarantined": len(resumed.CollectQuarantine) + len(resumed.HoneypotQuarantine),
		}
		// When the journal is ledgered, stamp the resume event with the
		// chain anchor so the evidence trail records, in-band, where the
		// resumed segment attached to the pre-crash one.
		if ls := a.journal.Ledger(); ls.Mode != "" && ls.Mode != journal.LedgerOff {
			fields["ledger_mode"] = string(ls.Mode)
			fields["ledger_anchor_seq"] = ls.PriorEvents
			fields["ledger_recovered"] = ls.Recovered
			if ls.PriorHead != "" {
				fields["ledger_prior_head"] = ls.PriorHead
			}
		}
		journal.Emit(ctx, "core", journal.KindRunResumed, fields)
	}

	// The run's tracer, at every level: sharded by the executor's
	// worker count (the sequential executor hashes bots across the same
	// buffer count).
	tracer := a.opts.Trace.Tracer
	if tracer == nil {
		shards := a.opts.Exec.Shards
		if shards <= 0 {
			shards = a.opts.Scrape.Workers
		}
		tracer = bottrace.New(runID, shards, a.opts.Trace.Level)
	}
	res.BotTrace = tracer

	r := &run{
		a:         a,
		ctx:       ctx,
		res:       res,
		tracer:    tracer,
		ck:        ck,
		scrapeRes: scrapeRes,
		codeRes:   codeRes,
		hpRes:     hpRes,
		cDegraded: a.obs.Counter("core_stages_degraded_total"),
	}

	// Per-stage retry budgets, restored to their checkpointed
	// remainders on resume so a resumed run cannot out-retry an
	// uninterrupted one.
	if a.opts.Exec.StageRetryBudget > 0 {
		nCollect, nCode := a.opts.Exec.StageRetryBudget, a.opts.Exec.StageRetryBudget
		if resumed != nil {
			if left, ok := resumed.BudgetLeft["collect"]; ok {
				nCollect = left
			}
			if left, ok := resumed.BudgetLeft["codeanalysis"]; ok {
				nCode = left
			}
		}
		r.collectBudget = retry.NewBudget(nCollect)
		r.codeBudget = retry.NewBudget(nCode)
		a.listClient.SetRetryBudget(r.collectBudget)
		a.codeClient.SetRetryBudget(r.codeBudget)
		ck.trackBudget("collect", r.collectBudget)
		ck.trackBudget("codeanalysis", r.codeBudget)
	}

	var err error
	if a.opts.Exec.Shards > 0 {
		err = a.runSharded(r)
	} else {
		err = a.runSequential(r)
	}
	if err != nil {
		return nil, err
	}

	_, endVet := r.stage("vetting")
	res.Vetting, res.VettingSummary = vetting.VetAll(res.Records)
	endVet()

	res.BotsPerDeveloper = make(map[string]int)
	for dev, ids := range a.eco.Developers {
		res.BotsPerDeveloper[dev] = len(ids)
	}
	if a.faults != nil {
		res.FaultLog = a.faults.Log()
	}
	ck.finish()
	return res, nil
}

// runSequential is the historical stage-at-a-time executor: each stage
// processes the whole population before the next begins.
func (a *Auditor) runSequential(r *run) error {
	res := r.res

	collectCtx, endCollect := r.stage("collect")
	listRetries := retriesOf(a.listClient)
	crawl, err := scraper.CrawlResultContext(collectCtx, a.listClient, scraper.Config{
		Workers:   a.opts.Scrape.Workers,
		Strict:    a.opts.Exec.Strict,
		Resume:    r.scrapeRes,
		OnSettled: r.ck.noteCollect,
		OnListed:  r.ck.noteListed,
	})
	endCollect()
	if err != nil {
		return r.stageFail(collectCtx, "collect", err)
	}
	r.ck.boundary("collect")
	res.Records = crawl.Records
	d := report.StageDegradation{
		Retries:     retriesOf(a.listClient) - listRetries,
		Quarantined: len(crawl.Quarantined),
		BudgetLeft:  r.collectBudget.Remaining(),
	}
	if crawl.ListErr != nil {
		res.StageErrors["collect"] = crawl.ListErr
		d.Errors++
	}
	for _, q := range crawl.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "collect", BotID: q.BotID, Err: q.Err})
	}
	r.note(collectCtx, "collect", d)
	res.PermDist = scraper.PermissionDistribution(res.Records)
	res.Scraper = a.listClient.Stats()

	traceCtx, endTrace := r.stage("traceability")
	res.Table2, res.DataTypes = a.TraceabilityContext(traceCtx, res.Records)
	endTrace()

	codeCtx, endCode := r.stage("codeanalysis")
	codeRetries := retriesOf(a.codeClient)
	res.Code, res.Analyses, err = codeanalysis.AnalyzeOptionsContext(codeCtx, a.codeClient, res.Records, codeanalysis.AnalyzeOptions{
		Workers: a.opts.Scrape.Workers,
		Resume:  r.codeRes,
		OnLink:  r.ck.noteLink,
	})
	endCode()
	if err != nil {
		return r.stageFail(codeCtx, "codeanalysis", err)
	}
	r.ck.boundary("codeanalysis")
	d = report.StageDegradation{
		Retries:     retriesOf(a.codeClient) - codeRetries,
		Quarantined: len(res.Code.Quarantined),
		BudgetLeft:  r.codeBudget.Remaining(),
	}
	for _, q := range res.Code.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "codeanalysis", BotID: q.BotID, Link: q.Link, Err: q.Err})
	}
	r.note(codeCtx, "codeanalysis", d)

	hpCtx, endHoneypot := r.stage("honeypot")
	res.Honeypot, err = honeypot.CampaignContext(hpCtx, a.honeypotEnv(), a.eco, a.campaignConfig(r.hpRes, r.ck.noteVerdict))
	endHoneypot()
	if err != nil {
		return r.stageFail(hpCtx, "honeypot", err)
	}
	r.ck.boundary("honeypot")
	d = report.StageDegradation{Quarantined: len(res.Honeypot.Quarantined), BudgetLeft: -1}
	for _, q := range res.Honeypot.Quarantined {
		res.Quarantined = append(res.Quarantined, QuarantinedBot{Stage: "honeypot", BotID: q.BotID, Name: q.Name, Err: q.Err})
	}
	r.note(hpCtx, "honeypot", d)
	return nil
}

// Report renders every table and figure to w.
func (r *Results) Report(w io.Writer) {
	report.ScrapeYield(w, r.Records)
	fmt.Fprintln(w)
	report.Figure3(w, r.PermDist)
	fmt.Fprintln(w)
	report.Table1(w, r.BotsPerDeveloper)
	fmt.Fprintln(w)
	report.Table2(w, r.Table2)
	fmt.Fprintln(w)
	if r.DataTypes != nil {
		report.DataTypes(w, r.DataTypes)
		fmt.Fprintln(w)
	}
	if r.Code != nil {
		report.CodeTaxonomy(w, r.Code)
		fmt.Fprintln(w)
		report.Table3(w, r.Code)
		fmt.Fprintln(w)
	}
	if r.Honeypot != nil {
		report.Honeypot(w, r.Honeypot)
	}
	if r.VettingSummary.Total > 0 {
		fmt.Fprintln(w)
		report.Vetting(w, r.VettingSummary)
	}
	fmt.Fprintf(w, "\nScraper stats: %d requests, %d throttled, %d captchas solved, %d timeouts, %d retries, %d transient retries\n",
		r.Scraper.Requests, r.Scraper.Throttled, r.Scraper.CaptchasSolved, r.Scraper.Timeouts, r.Scraper.Retries, r.Scraper.TransientRetries)
	if r.BotTrace != nil {
		fmt.Fprintln(w)
		report.StageTimings(w, r.BotTrace.StageTimings(), r.Degradation)
	}
	if r.Scale != nil {
		fmt.Fprintln(w)
		r.Scale.Report(w)
	}
	if len(r.FaultLog) > 0 {
		byKind := make(map[string]int)
		for _, f := range r.FaultLog {
			byKind[string(f.Kind)]++
		}
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "\nFault injection: %d fault(s) injected:", len(r.FaultLog))
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d", k, byKind[k])
		}
		fmt.Fprintln(w)
	}
	if r.Degraded {
		fmt.Fprintf(w, "\nDegraded run: %d stage error(s) absorbed, %d bot(s) quarantined\n",
			len(r.StageErrors), len(r.Quarantined))
		stages := make([]string, 0, len(r.StageErrors))
		for s := range r.StageErrors {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			fmt.Fprintf(w, "  stage %-14s %v\n", s+":", r.StageErrors[s])
		}
		for _, q := range r.Quarantined {
			id := fmt.Sprintf("bot %d", q.BotID)
			if q.Name != "" {
				id += " (" + q.Name + ")"
			}
			if q.Link != "" {
				id += " link " + q.Link
			}
			fmt.Fprintf(w, "  quarantined [%s] %s: %v\n", q.Stage, id, q.Err)
		}
	}
}
