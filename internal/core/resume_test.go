package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// triggeredNames flattens the honeypot triggered set for comparison.
func triggeredNames(r *Results) []string {
	out := make([]string, 0, len(r.Honeypot.Triggered))
	for _, v := range r.Honeypot.Triggered {
		out = append(out, v.Subject.Name)
	}
	sort.Strings(out)
	return out
}

// TestKillResumeConvergesToBaseline is the crash-safety acceptance
// test: the pipeline is SIGKILL'd (run context cancelled by a
// faults.AbortInjector wired to the checkpoint store's AfterSave, so
// the "process death" lands right after a snapshot is durable) at
// three different checkpoints, resumed each time, and the eventual
// Results must match an uninterrupted zero-fault baseline — with zero
// settled (bot, stage) pairs re-executed, verified by work_skipped
// journal accounting on every resumed attempt.
func TestKillResumeConvergesToBaseline(t *testing.T) {
	const (
		seed   = 7
		bots   = 60
		sample = 6
	)
	newOpts := func() Options {
		return Options{
			Seed:    seed,
			NumBots: bots,
			Honeypot: HoneypotOptions{
				Sample: sample,
				Settle: 300 * time.Millisecond,
			},
			Obs: obs.NewRegistry(),
		}
	}

	base := func() *Results {
		a, err := NewAuditor(newOpts())
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

	// Die at the 1st, 2nd, and 3rd checkpoint write of successive
	// attempts; the fourth attempt runs to completion.
	kills := []int{1, 2, 3}
	var final *Results
	firstRunID := ""
	resumeFrom := ""
	for attempt := 0; ; attempt++ {
		if attempt > len(kills)+3 {
			t.Fatalf("pipeline did not converge after %d attempts", attempt)
		}
		opts := newOpts()
		opts.Checkpoint = CheckpointOptions{Store: st, Every: 3, Resume: resumeFrom}
		var buf bytes.Buffer
		jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
		opts.Journal = jnl

		// The settled work this attempt must NOT re-execute.
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
		t.Fatal("resumed run's records diverged from the uninterrupted baseline")
	}
	if !reflect.DeepEqual(final.Table2, base.Table2) {
		t.Fatalf("resumed Table2 diverged: %+v vs %+v", final.Table2, base.Table2)
	}
	if !reflect.DeepEqual(final.DataTypes, base.DataTypes) {
		t.Fatal("resumed data-type analysis diverged from baseline")
	}
	if !reflect.DeepEqual(final.Code, base.Code) {
		t.Fatal("resumed code-analysis result diverged from baseline")
	}
	if final.Honeypot.Tested != base.Honeypot.Tested {
		t.Fatalf("resumed Tested = %d, baseline %d", final.Honeypot.Tested, base.Honeypot.Tested)
	}
	if got, want := triggeredNames(final), triggeredNames(base); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed triggered set %v, baseline %v", got, want)
	}
	if len(final.Quarantined) != 0 || len(base.Quarantined) != 0 {
		t.Fatalf("zero-fault runs must not quarantine (final %d, base %d)",
			len(final.Quarantined), len(base.Quarantined))
	}

	// The final snapshot is marked complete and holds the whole run.
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

// skipComponent is the journal component each stage's work_skipped
// events carry: the stage package that runs the stage fresh.
var skipComponent = map[string]string{
	"collect":      "scraper",
	"codeanalysis": "codeanalysis",
	"honeypot":     "honeypot",
}

// verifyNoReexecution checks one resumed attempt's journal against the
// snapshot it resumed from: every settled (bot, stage) pair must show
// up as work_skipped, under its stage's component, and none may appear
// as fresh work.
func verifyNoReexecution(t *testing.T, attempt int, snap *checkpoint.Snapshot, events []journal.Event) {
	t.Helper()
	settledCollect := make(map[int]bool)
	for _, r := range snap.Records {
		settledCollect[r.ID] = true
	}
	for _, q := range snap.CollectQuarantine {
		settledCollect[q.BotID] = true
	}
	settledHP := make(map[int]bool)
	for _, v := range snap.Verdicts {
		settledHP[v.Subject.ListingID] = true
	}
	for _, q := range snap.HoneypotQuarantine {
		settledHP[q.BotID] = true
	}

	skips := map[string]int{}
	resumedEvents := 0
	for _, e := range events {
		switch e.Kind {
		case journal.KindRunResumed:
			resumedEvents++
			if got, want := e.Fields["settled"], float64(snap.Settled()); got != want {
				t.Errorf("attempt %d run_resumed settled = %v, want %v", attempt, got, want)
			}
		case journal.KindWorkSkipped:
			stage, _ := e.Fields["stage"].(string)
			skips[stage]++
			if want := skipComponent[stage]; e.Component != want {
				t.Errorf("attempt %d work_skipped for stage %q from component %q, want %q", attempt, stage, e.Component, want)
			}
			if link, _ := e.Fields["link"].(string); stage == "codeanalysis" && link == "" {
				t.Errorf("attempt %d codeanalysis work_skipped for bot %d carries no link", attempt, e.BotID)
			}
		case journal.KindBotDiscovered:
			if settledCollect[e.BotID] {
				t.Errorf("attempt %d re-executed settled collect work for bot %d", attempt, e.BotID)
			}
		case journal.KindExperimentStarted:
			if settledHP[e.BotID] {
				t.Errorf("attempt %d re-ran settled experiment for bot %d", attempt, e.BotID)
			}
		}
	}
	if resumedEvents != 1 {
		t.Errorf("attempt %d journaled %d run_resumed events, want 1", attempt, resumedEvents)
	}
	if got, want := skips["collect"], len(settledCollect); got != want {
		t.Errorf("attempt %d collect work_skipped = %d, want %d (one per settled bot)", attempt, got, want)
	}
	if got, want := skips["honeypot"], len(settledHP); got != want {
		t.Errorf("attempt %d honeypot work_skipped = %d, want %d", attempt, got, want)
	}
	if got, min := skips["codeanalysis"], len(snap.CodeLinks)+len(snap.CodeLinkErrs); got < min {
		t.Errorf("attempt %d codeanalysis work_skipped = %d, want >= %d settled links", attempt, got, min)
	}
}

// TestResumeBesideCheckpointedLinks resumes an 8-shard run from a
// snapshot that already holds some code links while others are still
// to fetch, so replayed links and freshly fetched ones meet across
// workers. Under -race it pins that the replay index shares no map
// with the snapshot the checkpointer keeps writing.
func TestResumeBesideCheckpointedLinks(t *testing.T) {
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(resume string, abortAt int) ([]journal.Event, error) {
		opts := Options{
			Seed:       7,
			NumBots:    600,
			Honeypot:   HoneypotOptions{Sample: 2, Settle: 50 * time.Millisecond},
			Exec:       ExecOptions{Shards: 8},
			Checkpoint: CheckpointOptions{Store: st, Every: 25, Resume: resume},
			Obs:        obs.NewRegistry(),
		}
		var buf bytes.Buffer
		jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
		opts.Journal = jnl
		a, err := NewAuditor(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		ab := faults.NewAbort(abortAt, cancel)
		st.AfterSave = func(*checkpoint.Snapshot) { ab.Tick() }
		_, runErr := a.RunAllContext(ctx)
		st.AfterSave = nil
		a.Close()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		events, _, err := journal.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events, runErr
	}

	if _, err := run("", 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want the injected abort", err)
	}
	snap, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.CodeLinks)+len(snap.CodeLinkErrs) == 0 {
		t.Fatal("the killed run checkpointed no code link, so the resume replays none")
	}

	events, err := run(ResumeLatest, 0)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	verifyNoReexecution(t, 1, snap, events)
	fresh := 0
	for _, e := range events {
		if e.Kind == journal.KindCodeFlag {
			fresh++
		}
	}
	if fresh == 0 {
		t.Fatal("the resumed run fetched no fresh link beside the replayed ones")
	}
	if last, err := st.Latest(); err != nil || !last.Completed {
		t.Fatalf("final snapshot not completed (err %v)", err)
	}
}

// TestStrictResumeFailsFast is the Strict×resume contract: a Strict run
// resumed over a checkpoint that recorded a honeypot quarantine fails
// with the saved cause before any experiment launches, although the
// checkpoint leaves other sampled bots unsettled.
func TestStrictResumeFailsFast(t *testing.T) {
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newOpts := func() Options {
		return Options{
			Seed:     7,
			NumBots:  30,
			Honeypot: HoneypotOptions{Sample: 3, Settle: 100 * time.Millisecond},
			Obs:      obs.NewRegistry(),
		}
	}
	opts := newOpts()
	opts.Checkpoint = CheckpointOptions{Store: st}
	a, err := NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, a)
	a.Close()

	// Turn one saved verdict into a quarantine and drop the others.
	snap, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Verdicts) < 2 {
		t.Fatalf("checkpointed run saved %d verdicts, want at least 2", len(snap.Verdicts))
	}
	const cause = "solver service down"
	v := snap.Verdicts[0]
	snap.HoneypotQuarantine = []checkpoint.QEntry{{BotID: v.Subject.ListingID, Name: v.Subject.Name, Err: cause}}
	snap.Verdicts = nil
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}

	opts = newOpts()
	opts.Exec.Strict = true
	opts.Checkpoint = CheckpointOptions{Store: st, Resume: snap.RunID}
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
	opts.Journal = jnl
	a, err = NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := a.RunAllContext(ctx)
	if want := "core: honeypot: bot " + v.Subject.Name + ": " + cause; err == nil || err.Error() != want {
		t.Fatalf("strict resume over a checkpointed quarantine returned %v, want %q", err, want)
	}
	if res != nil {
		t.Fatal("strict resume must not return results")
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == journal.KindExperimentStarted {
			t.Fatalf("strict resume launched an experiment for bot %d before failing", e.BotID)
		}
	}
}

// TestDeadDetailPageQuarantinesOnlyItsBot: one always-503 detail page
// costs its own bot and nothing else. Bot 99 spends its first attempt
// and its three transport retries, quarantines as an infrastructure
// error, and the other 119 bots are collected; under a fixed fault
// seed and one shard the quarantine set replays identically.
func TestDeadDetailPageQuarantinesOnlyItsBot(t *testing.T) {
	run := func() (quarantine []string, res *Results) {
		prof, err := faults.Named("none")
		if err != nil {
			t.Fatal(err)
		}
		prof.PerEndpoint = map[string]faults.Rates{"/bot/99": {ServerError: 1}}
		a, err := NewAuditor(Options{
			Seed:    7,
			NumBots: 120,
			Honeypot: HoneypotOptions{
				Sample: 1,
				Settle: 200 * time.Millisecond,
			},
			Exec:   ExecOptions{Shards: 1},
			Faults: FaultOptions{Injector: faults.New(prof, 9, faults.Options{})},
			Obs:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		res = runAll(t, a)
		// Errors name the listing URL; blank it so the two runs compare
		// on substance.
		addr := strings.TrimPrefix(a.ListingURL(), "http://")
		for _, q := range res.Quarantined {
			quarantine = append(quarantine,
				strings.ReplaceAll(quarantineKey(q)+"/"+q.Err.Error(), addr, "HOST"))
		}
		sort.Strings(quarantine)
		return quarantine, res
	}

	q1, res := run()
	q2, _ := run()

	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %v, want bot 99 alone", q1)
	}
	if q := res.Quarantined[0]; q.Stage != "collect" || q.BotID != 99 || !isInfra(q.Err) {
		t.Fatalf("quarantine = %s/%d (%v), want collect/99 with an infrastructure error", q.Stage, q.BotID, q.Err)
	}
	if len(res.Records) != 119 {
		t.Errorf("%d records, want the other 119 bots", len(res.Records))
	}
	// The first attempt plus the scraper's 3 transport retries, all of
	// them bot 99's.
	if len(res.FaultLog) != 4 {
		t.Fatalf("fault log has %d entries, want bot 99's 4 failed attempts", len(res.FaultLog))
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Fatalf("quarantine sets differ between identical runs:\n%v\nvs\n%v", q1, q2)
	}
}

// TestStageWatchdogStalls: a pipelined phase running past
// StageSoftDeadline is cancelled with ErrStageStalled and leaves
// exactly one stage_stalled journal event, stage "pipeline", carrying a
// goroutine dump: the four stages share one window and one watchdog.
func TestStageWatchdogStalls(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	jnl := journal.New(&buf, journal.Options{Obs: reg})
	a, err := NewAuditor(Options{
		Seed:    7,
		NumBots: 2000, // far more than 1ms of crawling
		Honeypot: HoneypotOptions{
			Sample: 2,
			Settle: 100 * time.Millisecond,
		},
		Journal: jnl,
		Exec:    ExecOptions{StageSoftDeadline: time.Millisecond},
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res, err := a.RunAllContext(context.Background())
	if err == nil {
		t.Fatal("a 1ms soft deadline must stall the pipeline")
	}
	if !errors.Is(err, ErrStageStalled) {
		t.Fatalf("err = %v, want ErrStageStalled", err)
	}
	if res != nil {
		t.Fatal("a stalled run must not return results")
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stalled := 0
	for _, e := range events {
		if e.Kind != journal.KindStageStalled {
			continue
		}
		stalled++
		if e.Fields["stage"] != "pipeline" {
			t.Errorf("stage_stalled stage = %v, want pipeline", e.Fields["stage"])
		}
		dump, _ := e.Fields["goroutines"].(string)
		if !strings.Contains(dump, "goroutine") {
			t.Error("stage_stalled carries no goroutine dump")
		}
	}
	if stalled != 1 {
		t.Fatalf("journaled %d stage_stalled events, want exactly 1", stalled)
	}
}

// TestResumePastTornDelta kills a run just after a periodic write,
// cuts the checkpoint file in the middle of its last write, as a crash
// during an append leaves it, and resumes. The load must drop the torn
// write and keep everything before it, the resume must re-execute
// nothing the loaded snapshot settled, every write of the resumed run
// must leave a loadable file, and the run must converge to an
// uninterrupted baseline.
func TestResumePastTornDelta(t *testing.T) {
	newOpts := func() Options {
		return Options{
			Seed:     7,
			NumBots:  60,
			Honeypot: HoneypotOptions{Sample: 6, Settle: 300 * time.Millisecond},
			Obs:      obs.NewRegistry(),
		}
	}
	base := func() *Results {
		a, err := NewAuditor(newOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}()

	dir := t.TempDir()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The store holds this one run, so its file is the only .ckpt.
	ckptFile := func() string {
		paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("store holds %v (%v), want one snapshot file", paths, err)
		}
		return paths[0]
	}

	// Die at the 3rd write, recording the file's size after each one.
	var sizes []int64
	opts := newOpts()
	opts.Checkpoint = CheckpointOptions{Store: st, Every: 3}
	a, err := NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	ab := faults.NewAbort(3, cancel)
	st.AfterSave = func(*checkpoint.Snapshot) {
		ab.Tick()
		fi, err := os.Stat(ckptFile())
		if err != nil {
			t.Error(err)
			return
		}
		sizes = append(sizes, fi.Size())
	}
	_, runErr := a.RunAllContext(ctx)
	st.AfterSave = nil
	cancel()
	a.Close()
	if !errors.Is(runErr, context.Canceled) || !ab.Fired() {
		t.Fatalf("killed run returned %v (injector fired %v), want the injected abort", runErr, ab.Fired())
	}
	if len(sizes) < 3 {
		t.Fatalf("killed run made %d writes, want at least 3", len(sizes))
	}

	// Cut the file halfway through its last write.
	from, to := sizes[len(sizes)-2], sizes[len(sizes)-1]
	if to <= from {
		t.Fatalf("last write left the file at %d bytes, the one before at %d", to, from)
	}
	if err := os.Truncate(ckptFile(), from+(to-from)/2); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Latest()
	if err != nil {
		t.Fatalf("load of a file torn in its last write: %v", err)
	}
	if snap.Settled() == 0 {
		t.Fatal("the loaded snapshot settled nothing, so the resume replays nothing")
	}

	opts = newOpts()
	opts.Checkpoint = CheckpointOptions{Store: st, Every: 3, Resume: ResumeLatest}
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: opts.Obs})
	opts.Journal = jnl
	a, err = NewAuditor(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	st.AfterSave = func(*checkpoint.Snapshot) {
		if _, err := st.Latest(); err != nil {
			t.Errorf("a write of the resumed run left an unloadable file: %v", err)
		}
	}
	final := runAll(t, a)
	st.AfterSave = nil
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	verifyNoReexecution(t, 1, snap, events)

	if !reflect.DeepEqual(final.Records, base.Records) {
		t.Fatal("resumed run's records diverged from the uninterrupted baseline")
	}
	if !reflect.DeepEqual(final.Table2, base.Table2) || !reflect.DeepEqual(final.DataTypes, base.DataTypes) {
		t.Fatal("resumed traceability results diverged from the baseline")
	}
	if !reflect.DeepEqual(final.Code, base.Code) {
		t.Fatal("resumed code-analysis result diverged from the baseline")
	}
	if final.Honeypot.Tested != base.Honeypot.Tested || !reflect.DeepEqual(triggeredNames(final), triggeredNames(base)) {
		t.Fatalf("resumed honeypot tested %d, triggered %v; baseline %d, %v",
			final.Honeypot.Tested, triggeredNames(final), base.Honeypot.Tested, triggeredNames(base))
	}
	last, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !last.Completed || len(last.Records) != len(base.Records) {
		t.Fatalf("final snapshot completed %v with %d records, want completed with %d", last.Completed, len(last.Records), len(base.Records))
	}
}
