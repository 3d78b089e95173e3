package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/honeypot"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
	"repro/internal/scraper"
	"repro/internal/synth"
)

// auditInputs are one audit workload's inputs. Deliberate waits are
// compressed only through the pipeline's existing options, keeping the
// paper's 6:1 ratio between the slow-redirect stall and the scraper
// timeout so slow invites still time out and nothing else does.
type auditInputs struct {
	Bots      int `json:"bots"`
	Sample    int `json:"sample"`
	Shards    int `json:"shards"`
	TimeoutMS int `json:"scrape_timeout_ms"`
	StallMS   int `json:"slow_redirect_delay_ms"`
	SettleMS  int `json:"honeypot_settle_ms"`
	// Evidence adds a merkle-ledgered journal, checkpoints every
	// CheckpointEvery freshly settled bots, and full per-bot tracing
	// with spans.jsonl, trace.json and profile.json written.
	Evidence        bool `json:"evidence"`
	CheckpointEvery int  `json:"checkpoint_every,omitempty"`
	// FaultProfile injects the named deterministic fault profile; the
	// benchmark's tests use it to prove failures are counted.
	FaultProfile string `json:"fault_profile,omitempty"`
}

func (in auditInputs) options(seed int64, eco *synth.Ecosystem, reg *obs.Registry) core.Options {
	opts := core.Options{
		Seed:      seed,
		NumBots:   in.Bots,
		Ecosystem: eco,
		Scrape: core.ScrapeOptions{
			Timeout:    time.Duration(in.TimeoutMS) * time.Millisecond,
			AntiScrape: listing.AntiScrape{SlowRedirectDelay: time.Duration(in.StallMS) * time.Millisecond},
		},
		Honeypot: core.HoneypotOptions{Sample: in.Sample, Settle: time.Duration(in.SettleMS) * time.Millisecond},
		Exec:     core.ExecOptions{Shards: in.Shards},
		Obs:      reg,
	}
	if in.FaultProfile != "" {
		opts.Faults = core.FaultOptions{Profile: in.FaultProfile, Seed: seed}
	}
	return opts
}

// auditWorkloads are the benchmark's audit workloads. The shard count is
// the smallest at which CPU, not sleeping, sets the wall time on a
// 2-vCPU machine; audit-evidence uses a smaller population so that one
// run stays short while checkpointing remains its largest layer.
var auditWorkloads = map[string]auditInputs{
	"audit": {
		Bots: synth.PaperPopulation, Sample: 500, Shards: 24,
		TimeoutMS: 100, StallMS: 600, SettleMS: 50,
	},
	"audit-evidence": {
		Bots: 8000, Sample: 500, Shards: 24,
		TimeoutMS: 100, StallMS: 600, SettleMS: 50,
		Evidence: true, CheckpointEvery: 25,
	},
}

// refKey identifies an ecosystem whose audit outputs are pinned.
type refKey struct {
	seed         int64
	bots, sample int
}

// referenceDigests pins sha256(dataset.WriteRecords ‖ WriteCodeAnalyses)
// as produced at the repository's default waits (500 ms timeout, 3 s
// stall, 500 ms settle). Every seed is also checked against the
// ecosystem's ground truth; these pins add a byte-exact check.
var referenceDigests = map[refKey]string{
	{2022, synth.PaperPopulation, 500}: "38200f9390e9b80a13aa5b21b9b724003600bc60689aa5b45112ec5bd69d4666",
	{2022, 8000, 500}:                  "f285c1dec37b655d215867d32352324380584df04caf0347019cf3ba491218a0",
}

// audit is one set-up auditor, ready to run.
type audit struct {
	in    auditInputs
	eco   *synth.Ecosystem
	reg   *obs.Registry
	a     *core.Auditor
	j     *journal.Journal
	dir   string
	setup time.Duration
}

// newAudit generates the ecosystem and starts the auditor's services —
// the set-up the benchmark times. Evidence files go under dir.
func newAudit(in auditInputs, seed int64, dir string) (*audit, error) {
	start := time.Now()
	eco := synth.Generate(synth.Config{Seed: seed, NumBots: in.Bots})
	reg := obs.NewRegistry()
	opts := in.options(seed, eco, reg)
	au := &audit{in: in, eco: eco, reg: reg, dir: dir}
	if in.Evidence {
		j, err := journal.Open(filepath.Join(dir, "journal.jsonl"), journal.Options{
			Obs:    reg,
			Ledger: journal.LedgerOptions{Mode: journal.LedgerMerkle},
		})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		au.j = j
		opts.Journal = j
		opts.Checkpoint = core.CheckpointOptions{Dir: filepath.Join(dir, "ckpt"), Every: in.CheckpointEvery}
		opts.Trace = core.TraceOptions{Level: bottrace.LevelFull}
	}
	a, err := core.NewAuditor(opts)
	if err != nil {
		au.close()
		return nil, fmt.Errorf("start auditor: %w", err)
	}
	au.a = a
	au.setup = time.Since(start)
	return au, nil
}

func (au *audit) close() {
	if au.a != nil {
		au.a.Close()
	}
	if au.j != nil {
		au.j.Close() // idempotent; run reports the sealing Close's error
	}
}

// auditRun is one audit's measurements and output check.
type auditRun struct {
	setup time.Duration
	wall  time.Duration // RunAllContext
	// cpu covers RunAllContext plus, with evidence, sealing the journal
	// and writing the trace artifacts.
	cpu       time.Duration
	items     int
	digest    string
	attempted int64
	failed    int64
	problems  []string
	res       *core.Results
	evidence  evidenceStats
}

// evidenceStats describes what an evidence run wrote.
type evidenceStats struct {
	JournalEvents   int64   `json:"journal_events"`
	JournalDropped  int64   `json:"journal_dropped"`
	JournalBytes    int64   `json:"journal_bytes"`
	CheckpointSaves int64   `json:"checkpoint_saves"`
	CheckpointErrs  int64   `json:"checkpoint_errors"`
	CheckpointBytes int64   `json:"checkpoint_final_bytes"`
	Spans           int     `json:"trace_spans"`
	TraceBytes      int64   `json:"trace_bytes"`
	ExportS         float64 `json:"trace_export_s"`
	runID           string
}

// run executes the audit, seals its evidence, and checks the outputs.
func (au *audit) run(ctx context.Context, seed int64) (*auditRun, error) {
	out := &auditRun{setup: au.setup}
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := au.a.RunAllContext(ctx)
	out.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if au.in.Evidence {
		if err := au.j.Close(); err != nil {
			return nil, fmt.Errorf("seal journal: %w", err)
		}
		t := time.Now()
		n, err := writeTraceArtifacts(filepath.Join(au.dir, "trace"), res.BotTrace)
		if err != nil {
			return nil, fmt.Errorf("trace artifacts: %w", err)
		}
		out.evidence.ExportS = time.Since(t).Seconds()
		out.evidence.TraceBytes = n
		out.evidence.Spans = res.BotTrace.Len()
	}
	out.cpu = cpuTime() - cpu0
	out.res = res
	if res.Scale != nil {
		out.items = res.Scale.Items
	}
	if out.digest, err = auditDigest(res); err != nil {
		return nil, err
	}
	out.problems = checkAudit(au.in, seed, au.eco, res, out.digest)

	// Every work item and every listing request is an attempt; a
	// request that hit a transport fault or was throttled failed, even
	// when a retry later succeeded.
	out.attempted = int64(out.items + res.Scraper.Requests)
	out.failed = int64(len(res.Quarantined) + len(res.StageErrors) + res.Scraper.TransientRetries + res.Scraper.Throttled)
	if res.Degraded && out.failed == 0 {
		out.failed = 1
	}
	if au.in.Evidence {
		ev := &out.evidence
		ev.runID = res.RunID
		ev.JournalEvents = au.reg.Counter("journal_events_total").Value()
		ev.JournalDropped = au.reg.Counter("journal_events_dropped_total").Value()
		ev.CheckpointSaves = au.reg.Counter("core_checkpoints_written_total").Value()
		ev.CheckpointErrs = au.reg.Counter("core_checkpoint_write_errors_total").Value()
		out.attempted += ev.JournalEvents + ev.JournalDropped + ev.CheckpointSaves + ev.CheckpointErrs
		out.failed += ev.JournalDropped + ev.CheckpointErrs
		out.problems = append(out.problems, au.checkEvidence(ev)...)
	}
	// Outputs that fail the check are not results: the whole audit
	// counts as failed.
	if len(out.problems) > 0 {
		out.failed = out.attempted
	}
	return out, nil
}

// checkEvidence verifies what an evidence run wrote: the ledger, the
// final checkpoint and the Chrome trace.
func (au *audit) checkEvidence(ev *evidenceStats) []string {
	var problems []string
	jpath := filepath.Join(au.dir, "journal.jsonl")
	if vr, err := journal.VerifyFile(jpath); err != nil || !vr.OK {
		problems = append(problems, fmt.Sprintf("journal does not verify: %v %s", err, vr.Err))
	}
	if fi, err := os.Stat(jpath); err == nil {
		ev.JournalBytes = fi.Size()
	}
	st, err := checkpoint.NewStore(filepath.Join(au.dir, "ckpt"))
	if err == nil {
		var snap *checkpoint.Snapshot
		if snap, err = st.Load(ev.runID); err == nil && !snap.Completed {
			err = fmt.Errorf("final snapshot not marked completed")
		}
		if fi, serr := os.Stat(st.Path(ev.runID)); serr == nil {
			ev.CheckpointBytes = fi.Size()
		}
	}
	if err != nil {
		problems = append(problems, fmt.Sprintf("checkpoint: %v", err))
	}
	data, err := os.ReadFile(filepath.Join(au.dir, "trace", "trace.json"))
	if err == nil {
		err = bottrace.ValidateChromeTrace(data)
	}
	if err != nil {
		problems = append(problems, fmt.Sprintf("chrome trace: %v", err))
	}
	return problems
}

// auditDigest hashes the exported records and code analyses.
func auditDigest(res *core.Results) (string, error) {
	h := sha256.New()
	if err := dataset.WriteRecords(h, res.Records); err != nil {
		return "", fmt.Errorf("digest records: %w", err)
	}
	if err := dataset.WriteCodeAnalyses(h, res.Analyses); err != nil {
		return "", fmt.Errorf("digest code analyses: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// wantReason is the invalid-permission reason each invite health must
// produce.
var wantReason = map[listing.InviteHealth]scraper.InvalidReason{
	listing.InviteOK:      scraper.InvalidNone,
	listing.InviteBroken:  scraper.InvalidBrokenLink,
	listing.InviteRemoved: scraper.InvalidRemoved,
	listing.InviteSlow:    scraper.InvalidTimeout,
}

// checkAudit compares an audit's outputs with the ecosystem's ground
// truth — what a correct crawl and honeypot campaign must report for
// every bot, whatever the seed — and, where one is pinned, with the
// reference digest. It returns at most a handful of problems.
func checkAudit(in auditInputs, seed int64, eco *synth.Ecosystem, res *core.Results, digest string) []string {
	var problems []string
	bad := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if res.Degraded || len(res.Quarantined) > 0 || len(res.StageErrors) > 0 {
		bad("degraded run: %d quarantined, %d stage errors", len(res.Quarantined), len(res.StageErrors))
	}
	if len(res.Records) != len(eco.Bots) {
		bad("collected %d of %d listed bots", len(res.Records), len(eco.Bots))
	}
	byID := make(map[int]*listing.Bot, len(eco.Bots))
	for _, b := range eco.Bots {
		byID[b.ID] = b
	}
	withCode := 0
	for _, r := range res.Records {
		b := byID[r.ID]
		if b == nil {
			bad("bot %d is not listed", r.ID)
			continue
		}
		if msg := recordMismatch(r, b); msg != "" {
			bad("bot %d: %s", r.ID, msg)
		}
		if r.PermsValid && r.GitHubURL != "" {
			withCode++
		}
	}
	if len(res.Analyses) != withCode {
		bad("%d code analyses for %d linked repositories", len(res.Analyses), withCode)
	}
	hp := res.Honeypot
	if hp == nil {
		bad("no honeypot result")
		return problems
	}
	if sample := honeypot.SelectMostVoted(eco.Bots, in.Sample); hp.Tested != len(sample) || len(hp.Quarantined) > 0 {
		bad("honeypot tested %d of %d sampled bots", hp.Tested, len(sample))
	}
	for _, v := range hp.Verdicts {
		id := v.Subject.ListingID
		if want := eco.Behaviors[id] == synth.BehaviorResponder; v.Responded != want {
			bad("bot %d responded=%v, its behaviour says %v", id, v.Responded, want)
		}
		if want := id == eco.MaliciousID; v.Triggered != want {
			bad("bot %d triggered=%v, want %v", id, v.Triggered, want)
		}
	}
	if ref, ok := referenceDigests[refKey{seed, in.Bots, in.Sample}]; ok && digest != ref {
		bad("output digest %s, reference %s", digest, ref)
	}
	return problems
}

// recordMismatch names the first field where a scraped record disagrees
// with the listed bot, or returns "".
func recordMismatch(r *scraper.Record, b *listing.Bot) string {
	policyFound := b.HasWebsite && b.HasPolicyLink
	switch {
	case r.Name != b.Name:
		return "name"
	case r.Votes != b.Votes || r.GuildCount != b.GuildCount:
		return "vote or guild count"
	case r.Incomplete:
		return "incomplete record"
	case r.InvalidReason != wantReason[b.InviteHealth]:
		return fmt.Sprintf("invalid reason %q, want %q", r.InvalidReason, wantReason[b.InviteHealth])
	case r.PermsValid != (b.InviteHealth == listing.InviteOK) || (r.PermsValid && r.Perms != b.Perms):
		return "permissions"
	case r.GitHubURL != b.GitHubURL:
		return "github link"
	case r.HasWebsite != b.HasWebsite:
		return "website link"
	case r.PolicyLinkFound != policyFound || r.PolicyLinkDead != (policyFound && b.PolicyDead):
		return "policy link"
	}
	return ""
}

// writeTraceArtifacts writes the tracer's span log, Chrome trace and
// timing profile into dir and returns their total size.
func writeTraceArtifacts(dir string, tr *bottrace.Tracer) (int64, error) {
	if tr == nil {
		return 0, fmt.Errorf("run recorded no trace")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	write := func(name string, fn func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	}
	if err := write("spans.jsonl", tr.WriteJSONL); err != nil {
		return 0, err
	}
	if err := write("trace.json", tr.WriteChromeTrace); err != nil {
		return 0, err
	}
	err := write("profile.json", func(w io.Writer) error {
		return bottrace.WriteProfile(w, tr.BuildProfile())
	})
	return total, err
}

// auditOutcome aggregates one untraced audit workload run.
type auditOutcome struct {
	runs   []*auditRun
	setups []time.Duration
}

// setupSamples is the minimum number of set-ups a run times, so
// setup_s is a median even when only one audit fits the run.
const setupSamples = 7

// runAudits repeats whole audits, each on a freshly set-up auditor,
// until budget has elapsed (at least one), then tops up the set-up
// samples. Work files live under work and are removed per audit.
func runAudits(ctx context.Context, in auditInputs, seed int64, budget time.Duration, work string) (*auditOutcome, error) {
	out := &auditOutcome{}
	start := time.Now()
	for len(out.runs) == 0 || time.Since(start) < budget {
		r, err := auditInDir(in, seed, work, func(au *audit) (*auditRun, error) { return au.run(ctx, seed) })
		if err != nil {
			return nil, err
		}
		r.res = nil // keep only the measurements; the next audit starts clean
		out.runs = append(out.runs, r)
		out.setups = append(out.setups, r.setup)
	}
	for len(out.setups) < setupSamples {
		r, err := auditInDir(in, seed, work, func(au *audit) (*auditRun, error) { return &auditRun{setup: au.setup}, nil })
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, r.setup)
	}
	return out, nil
}

// auditInDir sets up an audit in a fresh directory under work, applies
// fn, and tears everything down again, collecting garbage so the next
// audit starts from the same heap.
func auditInDir(in auditInputs, seed int64, work string, fn func(*audit) (*auditRun, error)) (*auditRun, error) {
	dir, err := os.MkdirTemp(work, "audit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer runtime.GC()
	au, err := newAudit(in, seed, dir)
	if err != nil {
		return nil, err
	}
	defer au.close()
	return fn(au)
}

// measureAudit is an audit workload's untraced run.
func measureAudit(ctx context.Context, in auditInputs, seed int64, budget time.Duration, work string) (*outcome, error) {
	o, err := runAudits(ctx, in, seed, budget, work)
	if err != nil {
		return nil, err
	}
	out := &outcome{inputs: in}
	var perS, cpu []float64
	var detail []map[string]any
	for _, r := range o.runs {
		perS = append(perS, float64(r.items)/r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		out.res.Attempted += r.attempted
		out.res.Failed += r.failed
		out.problems = append(out.problems, r.problems...)
		if r.digest != o.runs[0].digest {
			out.problems = append(out.problems, "audit outputs differ between repetitions")
		}
		d := map[string]any{
			"setup_s": r.setup.Seconds(), "wall_s": r.wall.Seconds(), "cpu_s": r.cpu.Seconds(),
			"items": r.items, "digest": r.digest,
		}
		if in.Evidence {
			d["evidence"] = r.evidence
		}
		detail = append(detail, d)
	}
	out.set("setup_s", median(seconds(o.setups)), "s")
	out.set("items_per_s", median(perS), "1/s")
	out.set("cpu_s", median(cpu), "s")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	out.samples = map[string]int{"audits": len(o.runs), "setups": len(o.setups)}
	out.detail = map[string]any{"audits": detail, "setups_s": seconds(o.setups)}
	return out, nil
}
