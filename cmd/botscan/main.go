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
//	botscan -bots 2000 -shards 8 -trace-out traces/run1   # per-bot tracing
//	botscan journal -file run.jsonl             # summarize a journal
//	botscan journal -file run.jsonl -timeline   # per-bot replay
//	botscan trace summary -file traces/run1/spans.jsonl   # span-log views
//	botscan trace slowest -file traces/run1/spans.jsonl -n 10
//	botscan trace critical-path -file traces/run1/spans.jsonl
//	botscan verify-ledger run.jsonl             # prove evidence integrity
//	botscan bench-ledger -out BENCH_LEDGER.json # cost of tamper-evidence
//	botscan bench-trace -out BENCH_TRACE.json   # cost of per-bot tracing
//	botscan bench-gateway -out BENCH_GATEWAY.json # traffic plane under load
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/listing"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/ops"
	bottrace "repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/synth"
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
		case "bench-ledger":
			benchLedgerMode(os.Args[2:])
			return
		case "trace":
			traceMode(os.Args[2:])
			return
		case "bench-trace":
			benchTraceMode(os.Args[2:])
			return
		case "bench-gateway":
			benchGatewayMode(os.Args[2:])
			return
		case "soak":
			soakMode(os.Args[2:])
			return
		}
	}

	var (
		seed         = flag.Int64("seed", 2022, "ecosystem generation seed")
		bots         = flag.Int("bots", 2000, "listing population size (paper: 20915)")
		sample       = flag.Int("sample", 100, "honeypot sample size (paper: 500)")
		workers      = flag.Int("workers", 8, "scraper parallelism (sequential executor)")
		shards       = flag.Int("shards", 0, "run the sharded work-stealing executor with this many shards (0 = sequential)")
		stageWorkers = flag.Int("stage-workers", 0, "per-stage concurrency bound under -shards (0 = one per shard)")
		benchScale   = flag.String("bench-scale", "", "append this run's scheduler/throughput stats to this JSON file (requires -shards)")
		settle       = flag.Duration("settle", 500*time.Millisecond, "honeypot trigger-watch window per bot")
		defences     = flag.Bool("defences", false, "enable listing anti-scraping defences (captcha, flaky pages, rate limit)")
		fullScale    = flag.Bool("full-scale", false, "use the paper's full 20,915-bot population (slow)")
		exportDir    = flag.String("export-dir", "", "write records/code/verdicts/triggers as JSON Lines into this directory")
		metricsAddr  = flag.String("metrics-addr", "", "also serve the operational endpoints (/metrics, /healthz, /debug/pprof) on this address")
		journalPath  = flag.String("journal", "", "append every pipeline event to this JSONL journal (inspect with 'botscan journal')")
		ledgerMode   = flag.String("ledger-mode", "off", "journal tamper-evidence: off, chain (per-event hash chain), or merkle (batched roots)")
		ledgerBatch  = flag.Int("ledger-batch", 64, "merkle ledger batch size (events per committed root)")
		ledgerWait   = flag.Int("ledger-wait-ms", 50, "commit a partial ledger batch after this many milliseconds")
		faultProf    = flag.String("fault-profile", "", fmt.Sprintf("inject deterministic faults using this named profile (%s)", strings.Join(faults.Names(), ", ")))
		faultSeed    = flag.Int64("fault-seed", 1, "fault injector seed (same seed + profile replays the same fault ledger)")
		ckptDir      = flag.String("checkpoint-dir", "", "write crash-safe progress snapshots into this directory")
		ckptEvery    = flag.Int("checkpoint-every", 25, "also snapshot after this many freshly settled bots (stage boundaries always snapshot)")
		resumeRun    = flag.String("resume", "", "resume a checkpointed run: a run ID, or 'latest' (requires -checkpoint-dir)")
		breakers     = flag.Bool("breakers", false, "wrap scraper/code-host/gateway transports in per-endpoint-class circuit breakers")
		traceOut     = flag.String("trace-out", "", "write per-bot trace artifacts (spans.jsonl, trace.json, profile.json) into this directory")
		traceLevel   = flag.String("trace-level", "", "per-bot tracing level: off, bots, or full (defaults to full when -trace-out is set)")
		stageDL      = flag.Duration("stage-deadline", 0, "soft per-stage watchdog deadline (0 disables; a stalled stage is dumped and cancelled)")
		verbose      = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()

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
	// resolves profile names, directories, and breaker configs into
	// live subsystems.
	reg := obs.NewRegistry()
	opts := core.Options{
		Seed:    *seed,
		NumBots: *bots,
		Scrape:  core.ScrapeOptions{Workers: *workers},
		Honeypot: core.HoneypotOptions{
			Sample:      *sample,
			Concurrency: 16,
			Settle:      *settle,
		},
		Exec: core.ExecOptions{
			Shards: *shards,
			StageWorkers: core.StageWorkers{
				Collect:  *stageWorkers,
				Code:     *stageWorkers,
				Honeypot: *stageWorkers,
			},
			StageSoftDeadline: *stageDL,
		},
		Faults:     core.FaultOptions{Profile: *faultProf, Seed: *faultSeed},
		Checkpoint: core.CheckpointOptions{Dir: *ckptDir, Every: *ckptEvery, Resume: *resumeRun},
		Breakers:   core.BreakerOptions{Enabled: *breakers},
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
	if *breakers {
		logger.Info("circuit breakers enabled")
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
	if *benchScale != "" {
		if res.Scale == nil {
			fatal("bench-scale", fmt.Errorf("-bench-scale requires -shards"))
		}
		if err := appendBenchScale(*benchScale, res.Scale); err != nil {
			fatal("bench-scale", err)
		}
		logger.Info("scale benchmark appended", "path", *benchScale, "shards", res.Scale.Shards,
			"bots_per_sec", fmt.Sprintf("%.1f", res.Scale.BotsPerSec))
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

// benchLedgerMode measures the write-path cost of tamper-evidence: it
// replays a BENCH_SCALE-shaped synthetic event workload through a real
// journal in each ledger mode and records throughput into a JSON file
// (see EXPERIMENTS.md, LEDGER).
func benchLedgerMode(args []string) {
	fs := flag.NewFlagSet("botscan bench-ledger", flag.ExitOnError)
	var (
		out    = fs.String("out", "BENCH_LEDGER.json", "write results to this JSON file")
		events = fs.Int("events", 62745, "events per run (default ≈ 3 per bot at the paper's 20,915-bot scale)")
		batch  = fs.Int("batch", 64, "merkle batch size")
		waitMS = fs.Int("wait-ms", 50, "merkle partial-batch wait")
		reps   = fs.Int("repeats", 3, "runs per mode; the median is recorded")
	)
	fs.Parse(args)
	logger := journal.NewLogger("botscan", os.Stderr, slog.LevelInfo)
	doc, err := benchLedger(*events, *batch, *waitMS, *reps)
	if err != nil {
		logger.Error("bench-ledger", "err", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logger.Error("bench-ledger", "err", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		logger.Error("bench-ledger", "err", err)
		os.Exit(1)
	}
	for _, r := range doc.Runs {
		logger.Info("ledger bench", "mode", r.Mode, "events_per_sec", fmt.Sprintf("%.0f", r.EventsPerSec),
			"overhead_pct", fmt.Sprintf("%.1f", r.OverheadPct), "records", r.Records)
	}
	logger.Info("ledger benchmark written", "path", *out)
}

// ledgerBenchDoc is the BENCH_LEDGER.json shape.
type ledgerBenchDoc struct {
	Workload ledgerBenchWorkload `json:"workload"`
	Runs     []ledgerBenchRun    `json:"runs"`
}

type ledgerBenchWorkload struct {
	Events  int    `json:"events"`
	Batch   int    `json:"batch"`
	WaitMS  int    `json:"wait_ms"`
	Repeats int    `json:"repeats"`
	Source  string `json:"source"`
}

type ledgerBenchRun struct {
	Mode         string  `json:"mode"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	Bytes        int64   `json:"journal_bytes"`
	Records      int     `json:"ledger_records"`
	OverheadPct  float64 `json:"overhead_pct_vs_off"`
}

// benchLedger runs the three-mode grid. Events mirror the pipeline's
// real mix (fetch/discovery/audit/verdict shapes) so the marshal and
// hash cost is representative, and every run writes through journal.New
// onto a real temp file so the measured path is the production one.
func benchLedger(events, batch, waitMS, reps int) (*ledgerBenchDoc, error) {
	doc := &ledgerBenchDoc{
		Workload: ledgerBenchWorkload{
			Events:  events,
			Batch:   batch,
			WaitMS:  waitMS,
			Repeats: reps,
			Source:  "BENCH_SCALE.json 20,915-bot workload, ~3 journal events per bot",
		},
	}
	var offNs float64
	for _, mode := range []journal.LedgerMode{journal.LedgerOff, journal.LedgerChain, journal.LedgerMerkle} {
		var nsSamples []float64
		var bytes int64
		var records int
		for rep := 0; rep < reps; rep++ {
			ns, b, recs, err := ledgerBenchRunOnce(mode, events, batch, waitMS)
			if err != nil {
				return nil, err
			}
			nsSamples = append(nsSamples, ns)
			bytes, records = b, recs
		}
		ns := median(nsSamples)
		run := ledgerBenchRun{
			Mode:         string(mode),
			EventsPerSec: 1e9 / ns,
			NsPerEvent:   ns,
			Bytes:        bytes,
			Records:      records,
		}
		if mode == journal.LedgerOff {
			offNs = ns
		} else if offNs > 0 {
			run.OverheadPct = 100 * (ns - offNs) / offNs
		}
		doc.Runs = append(doc.Runs, run)
	}
	return doc, nil
}

// ledgerBenchRunOnce writes the synthetic workload through one journal
// and returns ns/event, file size, and ledger record count.
func ledgerBenchRunOnce(mode journal.LedgerMode, events, batch, waitMS int) (nsPerEvent float64, size int64, records int, err error) {
	dir, err := os.MkdirTemp("", "ledgerbench")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.jsonl")
	j, err := journal.Open(path, journal.Options{
		// The buffer holds the whole workload so the comparison measures
		// the write path, never drop accounting.
		Buffer: events + 1,
		Obs:    obs.NewRegistry(),
		Ledger: journal.LedgerOptions{
			Mode:  mode,
			Batch: batch,
			Wait:  time.Duration(waitMS) * time.Millisecond,
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	shapes := benchEventShapes()
	start := time.Now()
	for i := 0; i < events; i++ {
		e := shapes[i%len(shapes)]
		e.BotID = i%20915 + 1
		j.Emit(e)
	}
	if err := j.Close(); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(events), fi.Size(), j.Ledger().Records, nil
}

// benchEventShapes mirrors the stage mix a real 20,915-bot run journals
// (page fetches dominate, then policy audits, code flags, verdicts).
func benchEventShapes() []journal.Event {
	return []journal.Event{
		{Kind: journal.KindPageFetched, Component: "scraper", RunID: "bench", Fields: map[string]any{"ref": "/bot/12345", "status": 200}},
		{Kind: journal.KindPageFetched, Component: "scraper", RunID: "bench", Fields: map[string]any{"ref": "/bot/12345/policy", "status": 200}},
		{Kind: journal.KindBotDiscovered, Component: "scraper", RunID: "bench", Bot: "HelperBot", Fields: map[string]any{"perms": 8}},
		{Kind: journal.KindPolicyAudited, Component: "core", RunID: "bench", Bot: "HelperBot", Fields: map[string]any{"class": "broken", "covered": 1}},
		{Kind: journal.KindCodeFlag, Component: "codeanalysis", RunID: "bench", Fields: map[string]any{"flag": "token_exfil", "file": "bot.py"}},
		{Kind: journal.KindExperimentSettled, Component: "honeypot", RunID: "bench", ExperimentID: "hp-HelperBot", Fields: map[string]any{"verdict": "leaky", "personas": 5}},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// appendBenchScale read-modify-writes the BENCH_SCALE.json run list so
// successive runs (different shard counts) accumulate in one file.
func appendBenchScale(path string, s *core.ScaleStats) error {
	doc := struct {
		Runs []*core.ScaleStats `json:"runs"`
	}{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("bench-scale: %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc.Runs = append(doc.Runs, s)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
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

// benchTraceMode measures what per-bot tracing costs end to end: the
// real sharded pipeline runs once per level (off, bots, full) on the
// same workload and the throughput delta vs off lands in a JSON file
// (see EXPERIMENTS.md, TRACE).
func benchTraceMode(args []string) {
	fs := flag.NewFlagSet("botscan bench-trace", flag.ExitOnError)
	var (
		out    = fs.String("out", "BENCH_TRACE.json", "write results to this JSON file")
		bots   = fs.Int("bots", 0, "listing population (0 = the paper's 20,915)")
		sample = fs.Int("sample", 500, "honeypot sample size")
		shards = fs.Int("shards", 8, "sharded-executor shard count")
		settle = fs.Duration("settle", 200*time.Millisecond, "honeypot trigger-watch window per bot")
		seed   = fs.Int64("seed", 2022, "ecosystem generation seed")
		reps   = fs.Int("repeats", 1, "runs per level; the median is recorded")
		smoke  = fs.Int("smoke", 0, "smoke mode: use this small population with a scaled-down sample and settle (tier-1 CI)")
	)
	fs.Parse(args)
	logger := journal.NewLogger("botscan", os.Stderr, slog.LevelInfo)
	if *smoke > 0 {
		*bots = *smoke
		if *sample > *smoke/4 {
			*sample = *smoke / 4
		}
		if *sample < 1 {
			*sample = 1
		}
		*settle = 5 * time.Millisecond
	}
	doc, err := benchTrace(*bots, *sample, *shards, *settle, *seed, *reps)
	if err != nil {
		logger.Error("bench-trace", "err", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logger.Error("bench-trace", "err", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		logger.Error("bench-trace", "err", err)
		os.Exit(1)
	}
	for _, r := range doc.Runs {
		logger.Info("trace bench", "level", r.Level, "bots_per_sec", fmt.Sprintf("%.1f", r.BotsPerSec),
			"overhead_pct", fmt.Sprintf("%.1f", r.OverheadPct), "spans", r.Spans)
	}
	logger.Info("trace benchmark written", "path", *out)
}

// traceBenchDoc is the BENCH_TRACE.json shape.
type traceBenchDoc struct {
	Workload traceBenchWorkload `json:"workload"`
	Runs     []traceBenchRun    `json:"runs"`
}

type traceBenchWorkload struct {
	Bots     int    `json:"bots"`
	Sample   int    `json:"sample"`
	Shards   int    `json:"shards"`
	SettleMS int    `json:"settle_ms"`
	Seed     int64  `json:"seed"`
	Repeats  int    `json:"repeats"`
	Source   string `json:"source"`
}

type traceBenchRun struct {
	Level       string  `json:"level"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	BotsPerSec  float64 `json:"bots_per_sec"`
	Spans       int     `json:"spans"`
	OverheadPct float64 `json:"overhead_pct_vs_off"`
}

// benchTrace runs the three-level grid over the real sharded pipeline.
func benchTrace(bots, sample, shards int, settle time.Duration, seed int64, reps int) (*traceBenchDoc, error) {
	declared := bots
	if declared == 0 {
		declared = synth.PaperPopulation
	}
	doc := &traceBenchDoc{
		Workload: traceBenchWorkload{
			Bots: declared, Sample: sample, Shards: shards,
			SettleMS: int(settle.Milliseconds()), Seed: seed, Repeats: reps,
			Source: "full sharded pipeline, level off vs bots vs full",
		},
	}
	var offSec float64
	for _, lvl := range []bottrace.Level{bottrace.LevelOff, bottrace.LevelBots, bottrace.LevelFull} {
		var elapsed, persec []float64
		var spans int
		for rep := 0; rep < reps; rep++ {
			ems, bps, n, err := benchTraceRunOnce(lvl, bots, sample, shards, settle, seed)
			if err != nil {
				return nil, err
			}
			elapsed = append(elapsed, ems)
			persec = append(persec, bps)
			spans = n
		}
		run := traceBenchRun{
			Level:      lvl.String(),
			ElapsedMS:  median(elapsed),
			BotsPerSec: median(persec),
			Spans:      spans,
		}
		if lvl == bottrace.LevelOff {
			offSec = run.BotsPerSec
		} else if offSec > 0 {
			// Throughput loss vs the untraced run; negative means the
			// traced run was faster (noise).
			run.OverheadPct = 100 * (offSec - run.BotsPerSec) / offSec
		}
		doc.Runs = append(doc.Runs, run)
	}
	return doc, nil
}

// benchTraceRunOnce runs the pipeline once at one tracing level.
func benchTraceRunOnce(lvl bottrace.Level, bots, sample, shards int, settle time.Duration, seed int64) (elapsedMS, botsPerSec float64, spans int, err error) {
	a, err := core.NewAuditor(core.Options{
		Seed:    seed,
		NumBots: bots,
		Honeypot: core.HoneypotOptions{
			Sample:      sample,
			Concurrency: 16,
			Settle:      settle,
		},
		Exec:  core.ExecOptions{Shards: shards},
		Trace: core.TraceOptions{Level: lvl},
		Obs:   obs.NewRegistry(),
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer a.Close()
	res, err := a.RunAllContext(context.Background())
	if err != nil {
		return 0, 0, 0, err
	}
	if res.Scale == nil {
		return 0, 0, 0, fmt.Errorf("bench-trace: sharded run reported no scale stats")
	}
	return res.Scale.ElapsedMS, res.Scale.BotsPerSec, res.BotTrace.Len(), nil
}

// benchGatewayMode measures the traffic plane under load: the loadgen
// engine runs once per fault profile (none, then moderate) against the
// full overload configuration — admission cap, identify throttle,
// per-tenant request limits, bounded drop-oldest send queues, heartbeat
// reaping, and a deliberately stalled client — and records sustained
// msgs/sec plus connected sessions into BENCH_GATEWAY.json
// (see EXPERIMENTS.md, GATEWAY).
func benchGatewayMode(args []string) {
	fs := flag.NewFlagSet("botscan bench-gateway", flag.ExitOnError)
	var (
		out      = fs.String("out", "BENCH_GATEWAY.json", "write results to this JSON file")
		sessions = fs.Int("sessions", 1000, "bot sessions to connect per run")
		guilds   = fs.Int("guilds", 16, "guild count")
		users    = fs.Int("users", 30, "chatting users per guild")
		tenants  = fs.Int("tenants", 32, "distinct bot owners the fleet divides into")
		duration = fs.Duration("duration", 10*time.Second, "publishing window per run")
		msgRate  = fs.Float64("msg-rate", 40, "user messages/sec per guild")
		reqRate  = fs.Float64("req-rate", 2, "requests/sec per responder bot")
		stalled  = fs.Int("stalled", 1, "deliberately stalled clients per run")
		seed     = fs.Int64("seed", 2022, "workload and fault seed")
		smoke    = fs.Int("smoke", 0, "smoke mode: use this many sessions with a scaled-down topology and window (tier-1 CI)")
	)
	fs.Parse(args)
	logger := journal.NewLogger("botscan", os.Stderr, slog.LevelInfo)
	if *smoke > 0 {
		*sessions = *smoke
		*guilds = 4
		*users = 5
		*tenants = 4
		*duration = 1500 * time.Millisecond
		*msgRate = 20
	}
	doc, err := benchGateway(*sessions, *guilds, *users, *tenants, *stalled, *duration, *msgRate, *reqRate, *seed, logger)
	if err != nil {
		logger.Error("bench-gateway", "err", err)
		os.Exit(1)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logger.Error("bench-gateway", "err", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		logger.Error("bench-gateway", "err", err)
		os.Exit(1)
	}
	logger.Info("gateway benchmark written", "path", *out)
}

// gatewayBenchDoc is the BENCH_GATEWAY.json shape.
type gatewayBenchDoc struct {
	Workload gatewayBenchWorkload `json:"workload"`
	Runs     []*loadgen.Result    `json:"runs"`
}

type gatewayBenchWorkload struct {
	Sessions           int     `json:"sessions"`
	Guilds             int     `json:"guilds"`
	UsersPerGuild      int     `json:"users_per_guild"`
	Tenants            int     `json:"tenants"`
	Stalled            int     `json:"stalled_clients"`
	DurationMS         int     `json:"duration_ms"`
	MsgRate            float64 `json:"msg_rate_per_guild"`
	ReqRate            float64 `json:"req_rate_per_responder"`
	MaxSessions        int     `json:"max_sessions"`
	IdentifyRPS        float64 `json:"identify_rps"`
	TenantRPS          float64 `json:"tenant_rps"`
	SendQueue          int     `json:"send_queue"`
	SlowConsumer       string  `json:"slow_consumer"`
	WriteTimeoutMS     int     `json:"write_timeout_ms"`
	HeartbeatTimeoutMS int     `json:"heartbeat_timeout_ms"`
	Seed               int64   `json:"seed"`
	Source             string  `json:"source"`
}

// benchGateway runs the clean-network baseline and then the moderate
// fault profile over the same topology and overload knobs.
func benchGateway(sessions, guilds, users, tenants, stalled int, duration time.Duration,
	msgRate, reqRate float64, seed int64, logger *slog.Logger) (*gatewayBenchDoc, error) {
	limits := gateway.Limits{
		// Headroom above the fleet so the bench measures sustained
		// throughput at full strength; the dial storm itself is paced by
		// the identify throttle (shed dials retry on the server's hint).
		MaxSessions:      sessions + stalled + 16,
		IdentifyRPS:      400,
		IdentifyBurst:    200,
		TenantRPS:        10,
		TenantBurst:      20,
		SendQueue:        128,
		SlowConsumer:     gateway.SlowDropOldest,
		WriteTimeout:     2 * time.Second,
		HeartbeatTimeout: 10 * time.Second,
	}
	doc := &gatewayBenchDoc{
		Workload: gatewayBenchWorkload{
			Sessions: sessions, Guilds: guilds, UsersPerGuild: users, Tenants: tenants,
			Stalled: stalled, DurationMS: int(duration.Milliseconds()),
			MsgRate: msgRate, ReqRate: reqRate,
			MaxSessions: limits.MaxSessions, IdentifyRPS: limits.IdentifyRPS,
			TenantRPS: limits.TenantRPS, SendQueue: limits.SendQueue,
			SlowConsumer:       limits.SlowConsumer.String(),
			WriteTimeoutMS:     int(limits.WriteTimeout.Milliseconds()),
			HeartbeatTimeoutMS: int(limits.HeartbeatTimeout.Milliseconds()),
			Seed:               seed,
			Source:             "live TCP fleet via internal/loadgen, profile none vs moderate",
		},
	}
	for _, profile := range []string{"none", "moderate"} {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Guilds:        guilds,
			UsersPerGuild: users,
			Sessions:      sessions,
			Tenants:       tenants,
			Stalled:       stalled,
			Duration:      duration,
			MsgRate:       msgRate,
			ReqRate:       reqRate,
			FaultProfile:  profile,
			FaultSeed:     seed,
			Limits:        limits,
			Seed:          seed,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...), "profile", profile)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("bench-gateway: profile %s: %w", profile, err)
		}
		if res.Delivered == 0 {
			return nil, fmt.Errorf("bench-gateway: profile %s delivered no events", profile)
		}
		logger.Info("gateway bench",
			"profile", profile,
			"sessions", fmt.Sprintf("%d/%d", res.SessionsConnected, res.SessionsTarget),
			"msgs_per_sec", fmt.Sprintf("%.1f", res.PublishedPerSec),
			"delivered_per_sec", fmt.Sprintf("%.1f", res.DeliveredPerSec),
			"delivery_ratio", fmt.Sprintf("%.3f", res.DeliveryRatio),
			"shed", res.Shed, "dropped", res.EventsDropped, "reaped", res.Reaped)
		doc.Runs = append(doc.Runs, res)
	}
	return doc, nil
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
