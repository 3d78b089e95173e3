// Tests for the pipeline's executor: outcome parity between
// a sequential (one-shard) run and a sharded one on a fixed seed,
// graceful degradation under chaos, crash/resume convergence
// mid-shard, and the concurrent stage-timing report.
package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/canary"
	"repro/internal/checkpoint"
	"repro/internal/codeanalysis"
	"repro/internal/faults"
	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	bottrace "repro/internal/obs/trace"
	"repro/internal/scraper"
)

// comparableVerdict projects a honeypot verdict onto its deterministic
// fields: trigger timestamps, remote addresses, token IDs, and raw
// trigger multiplicities are run-specific (wall clock, ephemeral
// ports, random token minting, and how often a snooping bot re-hits a
// canary inside the watch window), so parity compares what was
// detected — the distinct trigger kinds per bot — not when, how many
// times, or through which token.
type comparableVerdict struct {
	ListingID          int
	Name               string
	GuildTag           string
	Triggered          bool
	TriggerKinds       []canary.Kind
	TriggeredKinds     []canary.Kind
	BotMessages        []string
	Responded          bool
	WebhookPersistence bool
}

func normalizeVerdicts(vs []*honeypot.Verdict) []comparableVerdict {
	out := make([]comparableVerdict, 0, len(vs))
	for _, v := range vs {
		cv := comparableVerdict{
			ListingID:          v.Subject.ListingID,
			Name:               v.Subject.Name,
			GuildTag:           v.GuildTag,
			Triggered:          v.Triggered,
			TriggeredKinds:     append([]canary.Kind(nil), v.TriggeredKinds...),
			BotMessages:        v.BotMessages,
			Responded:          v.Responded,
			WebhookPersistence: v.WebhookPersistence,
		}
		kinds := map[canary.Kind]bool{}
		for _, tr := range v.Triggers {
			kinds[tr.Kind] = true
		}
		for k := range kinds {
			cv.TriggerKinds = append(cv.TriggerKinds, k)
		}
		sort.Slice(cv.TriggerKinds, func(i, j int) bool { return cv.TriggerKinds[i] < cv.TriggerKinds[j] })
		// TriggeredKinds preserves first-arrival order, which legitimately
		// varies with scheduling; compare it as a set too.
		sort.Slice(cv.TriggeredKinds, func(i, j int) bool { return cv.TriggeredKinds[i] < cv.TriggeredKinds[j] })
		out = append(out, cv)
	}
	return out
}

// TestShardedMatchesSequential is the parity gate: on the same seed, a
// fault-free four-shard run must produce outcome-equivalent results to
// a one-shard run, which carries one bot at a time — identical
// records, traceability tables, code analysis, quarantine ledger
// (empty), and honeypot detections.
func TestShardedMatchesSequential(t *testing.T) {
	newOpts := func(shards int) Options {
		return Options{
			Seed:    11,
			NumBots: 150,
			Honeypot: HoneypotOptions{
				Sample: 15,
				Settle: 400 * time.Millisecond,
			},
			Exec: ExecOptions{Shards: shards},
			Obs:  obs.NewRegistry(),
		}
	}
	runWith := func(shards int) *Results {
		a, err := NewAuditor(newOpts(shards))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}

	seq := runWith(1)
	shd := runWith(4)

	if seq.Scale == nil || shd.Scale == nil {
		t.Fatal("a run reported no ScaleStats")
	}
	if s := seq.Scale; s.Shards != 1 {
		t.Fatalf("sequential Scale reports %d shards, want 1", s.Shards)
	}
	if !reflect.DeepEqual(shd.Records, seq.Records) {
		t.Fatalf("records diverged: sharded %d, sequential %d", len(shd.Records), len(seq.Records))
	}
	if !reflect.DeepEqual(shd.PermDist, seq.PermDist) {
		t.Fatal("permission distribution diverged")
	}
	if !reflect.DeepEqual(shd.Table2, seq.Table2) {
		t.Fatalf("Table2 diverged: %+v vs %+v", shd.Table2, seq.Table2)
	}
	if !reflect.DeepEqual(shd.DataTypes, seq.DataTypes) {
		t.Fatal("data-type analysis diverged")
	}
	if !reflect.DeepEqual(shd.Code, seq.Code) {
		t.Fatal("code-analysis result diverged")
	}
	if !reflect.DeepEqual(shd.Analyses, seq.Analyses) {
		t.Fatal("per-repo analyses diverged")
	}
	if len(shd.Quarantined) != 0 || len(seq.Quarantined) != 0 {
		t.Fatalf("fault-free runs must not quarantine (sharded %d, sequential %d)",
			len(shd.Quarantined), len(seq.Quarantined))
	}
	if shd.Honeypot.Tested != seq.Honeypot.Tested {
		t.Fatalf("Tested = %d, sequential %d", shd.Honeypot.Tested, seq.Honeypot.Tested)
	}
	if got, want := triggeredNames(shd), triggeredNames(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("triggered set %v, sequential %v", got, want)
	}
	if got, want := normalizeVerdicts(shd.Honeypot.Verdicts), normalizeVerdicts(seq.Honeypot.Verdicts); !reflect.DeepEqual(got, want) {
		for i := range got {
			if i < len(want) && !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("verdict %d diverged:\nsharded    %+v\nsequential %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("normalized verdicts diverged (%d vs %d)", len(got), len(want))
	}

	s := shd.Scale
	if s.Shards != 4 {
		t.Fatalf("Scale reports %d shards, want 4", s.Shards)
	}
	if s.Items != len(seq.Records) {
		t.Fatalf("scheduled %d items, want one per listed bot (%d)", s.Items, len(seq.Records))
	}
	var executed int64
	for _, n := range s.PerWorker {
		executed += n
	}
	if executed != int64(s.Items) {
		t.Fatalf("workers executed %d items, want %d (none lost, none doubled)", executed, s.Items)
	}
	var stages []string
	for _, g := range s.Stages {
		stages = append(stages, g.Stage)
	}
	if want := []string{"collect", "traceability", "codeanalysis", "honeypot"}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("Scale stages = %v, want %v", stages, want)
	}
	if s.BotsPerSec <= 0 {
		t.Fatalf("BotsPerSec = %v, want > 0", s.BotsPerSec)
	}
}

// TestCodeAnalysisMatchesStandalonePass: a multi-worker run's
// Results.Code equals a standalone pass that settles the run's records
// on a fresh Analyzer one bot at a time, in listing order. The workers
// reach a repository that several bots share in whatever order they
// take those bots, so this pins that the order leaves the code-analysis
// result as it is.
func TestCodeAnalysisMatchesStandalonePass(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:     2022,
		NumBots:  300,
		Honeypot: HoneypotOptions{Sample: 1, Settle: 50 * time.Millisecond},
		Exec:     ExecOptions{Shards: 4},
		Obs:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	c, err := scraper.NewClient(scraper.ClientConfig{BaseURL: a.hostSrv.BaseURL(), Timeout: 5 * time.Second, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseIdleConnections()
	az := codeanalysis.NewAnalyzer(c, codeanalysis.AnalyzeOptions{})
	want := codeanalysis.NewResult()
	for _, r := range res.Records {
		if !r.PermsValid {
			continue
		}
		want.NoteBot(r.GitHubURL != "")
		if r.GitHubURL == "" {
			continue
		}
		sl, err := az.SettleBot(context.Background(), r.ID, r.GitHubURL)
		if err != nil || sl.RA == nil {
			t.Fatalf("bot %d link %s: analysis %v, err %v, quarantine %v", r.ID, r.GitHubURL, sl.RA, err, sl.Quarantine)
		}
		want.Add(sl.RA)
	}
	if want.WithLink == 0 {
		t.Fatal("no record links a repository; the check compares nothing")
	}
	if !reflect.DeepEqual(res.Code, want) {
		t.Fatalf("pipeline code analysis %+v, standalone pass %+v", res.Code, want)
	}
}

// TestShardedChaosDeterministic: under the moderate fault profile the
// sharded executor degrades instead of failing, quarantines only on
// infrastructure errors, and — because fault decisions are a pure
// function of (seed, endpoint, attempt) and every bot is carried by
// exactly one worker — replays the identical quarantine ledger run
// after run, matching a one-shard run's ledger too.
func TestShardedChaosDeterministic(t *testing.T) {
	run := func(shards int) *Results {
		prof, err := faults.Named("moderate")
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(prof, 21, faults.Options{})
		a, err := NewAuditor(Options{
			Seed:    7,
			NumBots: 120,
			Honeypot: HoneypotOptions{
				Sample: 12,
				Settle: 300 * time.Millisecond,
			},
			Exec:   ExecOptions{Shards: shards},
			Faults: FaultOptions{Injector: inj},
			Obs:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}
	keys := func(r *Results) []string {
		out := []string{}
		for _, q := range r.Quarantined {
			out = append(out, quarantineKey(q))
		}
		sort.Strings(out)
		return out
	}

	first := run(4)
	for _, q := range first.Quarantined {
		if !isInfra(q.Err) {
			t.Errorf("quarantined %s/bot %d on a non-infrastructure error: %v", q.Stage, q.BotID, q.Err)
		}
	}
	second := run(4)
	if got, want := keys(second), keys(first); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded chaos ledger not deterministic:\n%v\nvs\n%v", got, want)
	}
	seq := run(1)
	if got, want := keys(first), keys(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded chaos ledger diverged from sequential:\n%v\nvs\n%v", got, want)
	}
	if !reflect.DeepEqual(first.Table2, seq.Table2) {
		t.Fatal("chaos Table2 diverged from sequential")
	}
}

// TestShardedKillResumeNoReexecution is the resume-mid-shard gate: kill
// a sharded run at successive checkpoint writes, resume each time, and
// require convergence to the uninterrupted one-shard baseline with
// zero bots lost and zero settled work re-executed.
func TestShardedKillResumeNoReexecution(t *testing.T) {
	const (
		seed   = 7
		bots   = 60
		sample = 6
	)
	newOpts := func(shards int) Options {
		return Options{
			Seed:    seed,
			NumBots: bots,
			Honeypot: HoneypotOptions{
				Sample: sample,
				Settle: 300 * time.Millisecond,
			},
			Exec: ExecOptions{Shards: shards},
			Obs:  obs.NewRegistry(),
		}
	}

	base := func() *Results {
		a, err := NewAuditor(newOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}()

	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	kills := []int{1, 2, 3}
	var final *Results
	firstRunID := ""
	resumeFrom := ""
	for attempt := 0; ; attempt++ {
		if attempt > len(kills)+3 {
			t.Fatalf("sharded pipeline did not converge after %d attempts", attempt)
		}
		opts := newOpts(4)
		opts.Checkpoint = CheckpointOptions{Store: st, Every: 3, Resume: resumeFrom}
		var buf bytes.Buffer
		jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
		opts.Journal = jnl

		var snap *checkpoint.Snapshot
		if resumeFrom != "" {
			if snap, err = st.Latest(); err != nil {
				t.Fatal(err)
			}
		}

		a, err := NewAuditor(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		var ab *faults.AbortInjector
		if attempt < len(kills) {
			ab = faults.NewAbort(kills[attempt], cancel)
		}
		st.AfterSave = func(*checkpoint.Snapshot) { ab.Tick() }
		res, runErr := a.RunAllContext(ctx)
		st.AfterSave = nil
		cancel()
		a.Close()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		events, _, err := journal.Decode(&buf)
		if err != nil {
			t.Fatalf("attempt %d journal: %v", attempt, err)
		}

		if snap != nil {
			verifyNoReexecution(t, attempt, snap, events)
		}
		if firstRunID == "" {
			got, err := st.Latest()
			if err != nil {
				t.Fatalf("attempt %d wrote no snapshot: %v", attempt, err)
			}
			firstRunID = got.RunID
		}

		if runErr == nil {
			final = res
			break
		}
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("attempt %d died with %v, want the injected abort (context.Canceled)", attempt, runErr)
		}
		if !ab.Fired() {
			t.Fatalf("attempt %d aborted without the injector firing", attempt)
		}
		resumeFrom = ResumeLatest
	}

	if final.RunID != firstRunID {
		t.Fatalf("resumed run minted a new run ID %s, want the original %s", final.RunID, firstRunID)
	}
	if !reflect.DeepEqual(final.Records, base.Records) {
		t.Fatal("resumed sharded records diverged from the sequential baseline")
	}
	if !reflect.DeepEqual(final.Table2, base.Table2) {
		t.Fatalf("resumed Table2 diverged: %+v vs %+v", final.Table2, base.Table2)
	}
	if !reflect.DeepEqual(final.Code, base.Code) {
		t.Fatal("resumed code-analysis result diverged from baseline")
	}
	if final.Honeypot.Tested != base.Honeypot.Tested {
		t.Fatalf("resumed Tested = %d, baseline %d (bots lost or doubled)", final.Honeypot.Tested, base.Honeypot.Tested)
	}
	if got, want := triggeredNames(final), triggeredNames(base); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed triggered set %v, baseline %v", got, want)
	}
	if len(final.Quarantined) != 0 {
		t.Fatalf("zero-fault resumed run quarantined %d bots", len(final.Quarantined))
	}
	last, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !last.Completed {
		t.Fatal("final snapshot not marked Completed")
	}
	if len(last.Records) != len(base.Records) {
		t.Fatalf("final snapshot has %d records, baseline %d", len(last.Records), len(base.Records))
	}
}

// TestShardedConcurrentTimingsReport: interleaved stages render their
// overlapping run-span Wall beside per-stage Busy, with no concurrent
// marker, plus the scale accounting block; and the scale accounting's
// per-stage Items and Busy are the stage table's, not a second clock.
func TestShardedConcurrentTimingsReport(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    11,
		NumBots: 60,
		Honeypot: HoneypotOptions{
			Sample: 6,
			Settle: 300 * time.Millisecond,
		},
		Exec: ExecOptions{Shards: 2},
		Obs:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)

	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "| Wall ") || !strings.Contains(out, "| Busy ") {
		t.Error("report lacks the Wall and Busy stage-table columns")
	}
	if strings.Contains(out, "ms*") || strings.Contains(out, "* concurrent stage") {
		t.Error("report still carries the concurrent-stage marker")
	}
	if !strings.Contains(out, "Sharded executor:") {
		t.Error("report lacks the sharded-executor scale block")
	}
	if strings.Contains(out, "stage collect") {
		t.Error("scale block repeats the stage table's per-stage lines")
	}

	rows := map[string]bottrace.StageTiming{}
	for _, st := range res.BotTrace.StageTimings() {
		rows[st.Stage] = st
	}
	if len(res.Scale.Stages) != 4 {
		t.Fatalf("Scale has %d stages, want 4", len(res.Scale.Stages))
	}
	for _, g := range res.Scale.Stages {
		row, ok := rows[g.Stage]
		if !ok {
			t.Fatalf("Scale stage %s has no stage-table row", g.Stage)
		}
		if g.Items != row.Items || g.BusyMS != float64(row.BusyNS)/float64(time.Millisecond) {
			t.Errorf("stage %s: Scale Items %d Busy %.3fms, stage table Items %d Busy %.3fms",
				g.Stage, g.Items, g.BusyMS, row.Items, float64(row.BusyNS)/float64(time.Millisecond))
		}
		if g.Items == 0 {
			t.Errorf("stage %s recorded no items", g.Stage)
		}
	}
}
