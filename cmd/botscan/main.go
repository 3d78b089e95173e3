// Command botscan runs the complete chatbot security & privacy audit
// pipeline (Figure 1 of the paper) against a freshly generated
// synthetic ecosystem: scrape the listing, analyze traceability, scan
// linked source repositories, and run the honeypot campaign. It prints
// every table and figure the paper reports.
//
// Usage:
//
//	botscan -bots 2000 -sample 100 -seed 42
//	botscan -bots 2000 -journal run.jsonl
//	botscan -bots 2000 -journal run.jsonl -ledger-mode merkle   # tamper-evident
//	botscan -bots 2000 -checkpoint-dir ckpt     # crash-safe snapshots
//	botscan -bots 2000 -checkpoint-dir ckpt -resume latest
//	botscan -bots 2000 -trace-out traces/run1   # per-bot tracing
//	botscan journal -file run.jsonl             # summarize a journal
//	botscan journal -file run.jsonl -timeline   # per-bot replay
//	botscan trace summary -file traces/run1/spans.jsonl   # span-log views
//	botscan trace slowest -file traces/run1/spans.jsonl -n 10
//	botscan trace critical-path -file traces/run1/spans.jsonl
//	botscan verify-ledger run.jsonl             # prove evidence integrity
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/listing"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/ops"
	bottrace "repro/internal/obs/trace"
	"repro/internal/report"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "journal":
			journalMode(os.Args[2:])
			return
		case "verify-ledger":
			verifyLedgerMode(os.Args[2:])
			return
		case "trace":
			traceMode(os.Args[2:])
			return
		case "soak":
			soakMode(os.Args[2:])
			return
		}
	}

	var (
		seed        = flag.Int64("seed", 2022, "ecosystem generation seed")
		bots        = flag.Int("bots", 2000, "listing population size (paper: 20915)")
		sample      = flag.Int("sample", 100, "honeypot sample size (paper: 500)")
		shards      = flag.Int("shards", 8, "executor shards: each worker carries one bot through every stage (1 = one bot at a time)")
		settle      = flag.Duration("settle", 500*time.Millisecond, "honeypot trigger-watch window per bot, opened once the bot has handled the planted command")
		defences    = flag.Bool("defences", false, "enable listing anti-scraping defences (captcha, flaky pages, rate limit)")
		fullScale   = flag.Bool("full-scale", false, "use the paper's full 20,915-bot population (slow)")
		exportDir   = flag.String("export-dir", "", "write records/code/verdicts/triggers as JSON Lines into this directory")
		metricsAddr = flag.String("metrics-addr", "", "also serve the operational endpoints (/metrics, /healthz, /debug/pprof) on this address")
		journalPath = flag.String("journal", "", "append every pipeline event to this JSONL journal (inspect with 'botscan journal')")
		ledgerMode  = flag.String("ledger-mode", "off", "journal tamper-evidence: off, chain (per-event hash chain), or merkle (batched roots)")
		ledgerBatch = flag.Int("ledger-batch", 64, "merkle ledger batch size (events per committed root)")
		ledgerWait  = flag.Int("ledger-wait-ms", 50, "commit a partial ledger batch after this many milliseconds")
		faultProf   = flag.String("fault-profile", "", fmt.Sprintf("inject deterministic faults using this named profile (%s)", strings.Join(faults.Names(), ", ")))
		faultSeed   = flag.Int64("fault-seed", 1, "fault injector seed (same seed + profile replays the same fault ledger)")
		ckptDir     = flag.String("checkpoint-dir", "", "write crash-safe progress snapshots into this directory")
		ckptEvery   = flag.Int("checkpoint-every", 25, "also snapshot after this many freshly settled bots (stage boundaries always snapshot)")
		resumeRun   = flag.String("resume", "", "resume a checkpointed run: a run ID, or 'latest' (requires -checkpoint-dir)")
		traceOut    = flag.String("trace-out", "", "write per-bot trace artifacts (spans.jsonl, trace.json, profile.json) into this directory")
		traceLevel  = flag.String("trace-level", "", "per-bot tracing level: off, bots, or full (defaults to full when -trace-out is set)")
		stageDL     = flag.Duration("stage-deadline", 0, "soft deadline over the pipelined stages (0 disables; a stalled pipeline is dumped once and cancelled)")
		verbose     = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "botscan: unknown command %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := journal.NewLogger("botscan", os.Stderr, level)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	if *resumeRun != "" && *ckptDir == "" {
		fatal("resume", fmt.Errorf("-resume requires -checkpoint-dir"))
	}

	// The whole run configuration is one options literal; NewAuditor
	// resolves profile names and directories into live subsystems.
	reg := obs.NewRegistry()
	opts := core.Options{
		Seed:    *seed,
		NumBots: *bots,
		Honeypot: core.HoneypotOptions{
			Sample: *sample,
			Settle: *settle,
		},
		Exec:       core.ExecOptions{Shards: *shards, StageSoftDeadline: *stageDL},
		Faults:     core.FaultOptions{Profile: *faultProf, Seed: *faultSeed},
		Checkpoint: core.CheckpointOptions{Dir: *ckptDir, Every: *ckptEvery, Resume: *resumeRun},
		Obs:        reg,
	}
	if *fullScale {
		opts.NumBots = 0 // defaults to 20,915
	}
	levelName := *traceLevel
	if levelName == "" && *traceOut != "" {
		levelName = "full"
	}
	if levelName != "" {
		lvl, err := bottrace.ParseLevel(levelName)
		if err != nil {
			fatal("trace level", err)
		}
		opts.Trace.Level = lvl
	}
	if *defences {
		opts.Scrape.AntiScrape = listing.AntiScrape{
			RequestsPerSecond: 500,
			Burst:             50,
			CaptchaEvery:      200,
			FlakyEvery:        10,
		}
	}
	var j *journal.Journal
	if *journalPath != "" {
		mode, err := journal.ParseLedgerMode(*ledgerMode)
		if err != nil {
			fatal("ledger mode", err)
		}
		j, err = journal.Open(*journalPath, journal.Options{
			Obs: reg,
			// A resumed run appends to the pre-crash journal (re-anchoring
			// its hash chain on the prior segment) instead of destroying it.
			Resume: *resumeRun != "",
			Ledger: journal.LedgerOptions{
				Mode:  mode,
				Batch: *ledgerBatch,
				Wait:  time.Duration(*ledgerWait) * time.Millisecond,
			},
		})
		if err != nil {
			fatal("open journal", err)
		}
		defer j.Close()
		opts.Journal = j
		logger.Info("journal enabled", "path", *journalPath, "ledger", string(mode))
		if ls := j.Ledger(); ls.Resumed {
			logger.Info("ledger re-anchored on prior segment",
				"prior_events", ls.PriorEvents, "recovered_tail", ls.Recovered)
		}
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("listen metrics", err)
		}
		defer ln.Close()
		go http.Serve(ln, ops.Mux(reg, nil))
		logger.Info("operational endpoints up", "url", "http://"+ln.Addr().String()+"/metrics")
	}

	start := time.Now()
	a, err := core.NewAuditor(opts)
	if err != nil {
		fatal("start auditor", err)
	}
	defer a.Close()
	if opts.Faults.Profile != "" {
		logger.Info("fault injection enabled", "profile", opts.Faults.Profile, "seed", *faultSeed)
	}
	if *ckptDir != "" {
		logger.Info("checkpointing enabled", "dir", *ckptDir, "every", *ckptEvery, "resume", *resumeRun)
	}
	logger.Info("ecosystem generated",
		"bots", len(a.Ecosystem().Bots), "listing", a.ListingURL(), "metrics", a.MetricsURL())

	res, err := a.RunAllContext(context.Background())
	if err != nil {
		fatal("pipeline", err)
	}
	res.Report(os.Stdout)
	fmt.Printf("\ntotal pipeline time: %v\n", time.Since(start).Round(time.Millisecond))
	logger.Info("pipeline complete", "run_id", res.RunID, "elapsed", time.Since(start).Round(time.Millisecond))
	if inj := a.Faults(); inj != nil {
		logger.Info("fault ledger",
			"profile", inj.Profile().Name, "faults", inj.Count(),
			"quarantined", len(res.Quarantined), "degraded", res.Degraded)
	}

	if *exportDir != "" {
		if err := exportAll(*exportDir, a, res); err != nil {
			fatal("export", err)
		}
		logger.Info("datasets written", "dir", *exportDir)
	}
	if *traceOut != "" {
		if res.BotTrace.Level() == bottrace.LevelOff {
			fatal("trace-out", fmt.Errorf("-trace-out requires a tracing level other than off"))
		}
		if err := writeTraceArtifacts(*traceOut, res.BotTrace); err != nil {
			fatal("trace-out", err)
		}
		logger.Info("trace artifacts written", "dir", *traceOut,
			"spans", res.BotTrace.Len(), "level", res.BotTrace.Level().String())
	}
	// Close (idempotent with the defer) so the ledger seals before we
	// report its head — the value to note out-of-band for true
	// tamper-proofing, since a tamper-evident file alone can be
	// rewritten wholesale.
	if j != nil {
		if err := j.Close(); err != nil {
			fatal("close journal", err)
		}
		if ls := j.Ledger(); ls.Mode != "" && ls.Mode != journal.LedgerOff {
			logger.Info("ledger sealed — note the chain head out-of-band",
				"mode", string(ls.Mode), "events", ls.Seq, "records", ls.Records, "head", ls.Head)
		}
	}
}

// verifyLedgerMode is the forensic subcommand: replay a ledgered
// journal, recompute its hash chain and Merkle roots, and report either
// an intact-evidence verdict or the first unverifiable line.
func verifyLedgerMode(args []string) {
	fs := flag.NewFlagSet("botscan verify-ledger", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress the report; exit status only")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: botscan verify-ledger [-q] <journal.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)
	res, err := journal.VerifyFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "botscan: verify-ledger: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		report.LedgerVerdict(os.Stdout, path, res)
	}
	if !res.OK {
		os.Exit(1)
	}
}

// writeTraceArtifacts materialises a run's tracer as the three
// -trace-out files: the JSONL span log (for `botscan trace`), the
// Chrome trace-event JSON (load trace.json in Perfetto / chrome://
// tracing), and the timing profile that seeds the scheduler.
func writeTraceArtifacts(dir string, tr *bottrace.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("spans.jsonl", tr.WriteJSONL); err != nil {
		return err
	}
	if err := write("trace.json", tr.WriteChromeTrace); err != nil {
		return err
	}
	return write("profile.json", func(w io.Writer) error {
		return bottrace.WriteProfile(w, tr.BuildProfile())
	})
}

// traceMode is the span-log inspection subcommand: decode a
// spans.jsonl written by -trace-out and render one of the four views.
func traceMode(args []string) {
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: botscan trace <summary|slowest|by-stage|critical-path> -file spans.jsonl [-n 10]")
	}
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		usage()
		os.Exit(2)
	}
	view := args[0]
	fs := flag.NewFlagSet("botscan trace "+view, flag.ExitOnError)
	var (
		file = fs.String("file", "", "span log to inspect (spans.jsonl from -trace-out; required)")
		topN = fs.Int("n", 10, "bots to list under 'slowest'")
	)
	fs.Parse(args[1:])
	logger := journal.NewLogger("botscan", os.Stderr, slog.LevelInfo)
	if *file == "" {
		usage()
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		logger.Error("open span log", "err", err)
		os.Exit(1)
	}
	defer f.Close()
	h, spans, skipped, err := bottrace.DecodeJSONL(f)
	if err != nil {
		logger.Error("decode span log", "err", err)
		os.Exit(1)
	}
	if skipped > 0 {
		logger.Warn("skipped undecodable lines", "skipped", skipped)
	}
	switch view {
	case "summary":
		report.TraceSummary(os.Stdout, bottrace.Summarize(h, spans))
	case "slowest":
		report.TraceSlowest(os.Stdout, bottrace.SlowestBots(spans, *topN))
	case "by-stage":
		report.TraceByStage(os.Stdout, bottrace.ByStage(h, spans))
	case "critical-path":
		report.TraceCriticalPath(os.Stdout, bottrace.CriticalPath(spans))
	default:
		usage()
		os.Exit(2)
	}
}

// journalMode is the inspection subcommand: decode a journal written by
// a previous run, filter it, and render either the aggregate summary or
// the per-bot replay timeline.
func journalMode(args []string) {
	fs := flag.NewFlagSet("botscan journal", flag.ExitOnError)
	var (
		file      = fs.String("file", "", "journal JSONL file to inspect (required)")
		timeline  = fs.Bool("timeline", false, "render the per-bot replay timeline instead of the summary")
		kind      = fs.String("kind", "", "only events of this kind (e.g. permission_denied)")
		component = fs.String("component", "", "only events from this component (e.g. honeypot)")
		botName   = fs.String("bot", "", "only events correlated to this bot name")
		botID     = fs.Int("botid", 0, "only events correlated to this listing ID")
		runID     = fs.String("run", "", "only events from this run ID")
	)
	fs.Parse(args)
	logger := journal.NewLogger("botscan", os.Stderr, slog.LevelInfo)
	if *file == "" {
		fs.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		logger.Error("open journal", "err", err)
		os.Exit(1)
	}
	defer f.Close()
	events, skipped, err := journal.Decode(f)
	if err != nil {
		logger.Error("decode journal", "err", err)
		os.Exit(1)
	}
	if skipped > 0 {
		logger.Warn("skipped undecodable lines", "skipped", skipped)
	}
	events = journal.Filter(events, journal.Query{
		Kind:      journal.Kind(*kind),
		Component: *component,
		Bot:       *botName,
		BotID:     *botID,
		RunID:     *runID,
	})
	if *timeline {
		report.JournalTimeline(os.Stdout, events)
		return
	}
	report.JournalSummary(os.Stdout, journal.Summarize(events))
}

// exportAll snapshots every stage's output as JSON Lines.
func exportAll(dir string, a *core.Auditor, res *core.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write("records.jsonl", func(f *os.File) error {
		return dataset.WriteRecords(f, res.Records)
	}); err != nil {
		return err
	}
	if err := write("code.jsonl", func(f *os.File) error {
		return dataset.WriteCodeAnalyses(f, res.Analyses)
	}); err != nil {
		return err
	}
	if err := write("verdicts.jsonl", func(f *os.File) error {
		return dataset.WriteVerdicts(f, res.Honeypot.Verdicts)
	}); err != nil {
		return err
	}
	return write("triggers.jsonl", func(f *os.File) error {
		return dataset.WriteTriggers(f, a.CanaryTriggers())
	})
}
