package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/retry"
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

// verifyNoReexecution checks one resumed attempt's journal against the
// snapshot it resumed from: every settled (bot, stage) pair must show
// up as work_skipped, and none may appear as fresh work.
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
			skips[e.Fields["stage"].(string)]++
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

// TestBreakerFailFastDeterministic: a single persistently failing
// detail endpoint trips the /bot endpoint-class breaker, the remaining
// bots in the class fail fast on ErrBreakerOpen instead of burning
// retry schedules, and — under a fixed fault seed and one shard — the
// transition sequence and quarantine set replay identically.
func TestBreakerFailFastDeterministic(t *testing.T) {
	run := func() (trans []string, quarantine []string, res *Results) {
		prof, err := faults.Named("none")
		if err != nil {
			t.Fatal(err)
		}
		prof.PerEndpoint = map[string]faults.Rates{"/bot/99": {ServerError: 1}}
		inj := faults.New(prof, 9, faults.Options{})

		var mu sync.Mutex
		bs := retry.NewBreakerSet(retry.BreakerConfig{
			Window:      8,
			MinSamples:  4,
			FailureRate: 0.5,
			OpenFor:     time.Hour, // never recovers within the run
		}, retry.BreakerOptions{
			Obs: obs.NewRegistry(),
			OnTransition: func(key string, from, to retry.BreakerState) {
				// Strip the listener host: the port changes run to run.
				if i := strings.Index(key, " "); i >= 0 {
					key = key[i:]
				}
				mu.Lock()
				trans = append(trans, fmt.Sprintf("%s %s->%s", key, from, to))
				mu.Unlock()
			},
		})
		a, err := NewAuditor(Options{
			Seed:    7,
			NumBots: 120,
			Honeypot: HoneypotOptions{
				Sample: 4,
				Settle: 200 * time.Millisecond,
			},
			Exec:     ExecOptions{Shards: 1}, // one bot at a time: deterministic breaker history
			Faults:   FaultOptions{Injector: inj},
			Breakers: BreakerOptions{Set: bs},
			Obs:      obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		res = runAll(t, a)
		// The breaker key embeds the listener address; blank the port so
		// the two runs compare on substance.
		addr := strings.TrimPrefix(a.ListingURL(), "http://")
		for _, q := range res.Quarantined {
			quarantine = append(quarantine,
				strings.ReplaceAll(quarantineKey(q)+"/"+q.Err.Error(), addr, "HOST"))
		}
		sort.Strings(quarantine)
		return trans, quarantine, res
	}

	t1, q1, res1 := run()
	t2, q2, _ := run()

	if want := []string{" /bot closed->open"}; !reflect.DeepEqual(t1, want) {
		t.Fatalf("breaker transitions = %v, want %v", t1, want)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("breaker transitions differ between identical runs: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Fatalf("quarantine sets differ between identical runs:\n%v\nvs\n%v", q1, q2)
	}

	// Bot 99 exhausted real retries; everyone after it short-circuited.
	failFast, found99 := 0, false
	for _, q := range res1.Quarantined {
		if q.Stage != "collect" {
			continue
		}
		if q.BotID == 99 {
			found99 = true
		}
		if strings.Contains(q.Err.Error(), retry.ErrBreakerOpen.Error()) {
			failFast++
			if !isInfra(q.Err) {
				t.Errorf("breaker quarantine for bot %d is not an infrastructure error: %v", q.BotID, q.Err)
			}
		}
	}
	if !found99 {
		t.Fatal("the always-503 bot 99 was not quarantined")
	}
	if failFast == 0 {
		t.Fatal("no bot failed fast on the open breaker")
	}
	// Only bot 99's four attempts ever reached the network: the breaker
	// kept every short-circuited bot out of the fault log entirely.
	if len(res1.FaultLog) != 4 {
		t.Fatalf("fault log has %d entries, want exactly bot 99's 4 failed attempts", len(res1.FaultLog))
	}
}

// TestStageWatchdogStalls: a stage running past StageSoftDeadline is
// cancelled with ErrStageStalled and leaves a stage_stalled journal
// event carrying a goroutine dump. The four pipeline stages arm their
// watchdogs together, so whichever fires first names the stall.
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
		switch e.Fields["stage"] {
		case "collect", "traceability", "codeanalysis", "honeypot":
		default:
			t.Errorf("stage_stalled stage = %v, want a pipeline stage", e.Fields["stage"])
		}
		dump, _ := e.Fields["goroutines"].(string)
		if !strings.Contains(dump, "goroutine") {
			t.Error("stage_stalled carries no goroutine dump")
		}
	}
	if stalled == 0 {
		t.Fatal("no stage_stalled event journaled")
	}
}

// TestStageBudgetSurfaced: with StageRetryBudget set, the per-stage
// remainders appear in Degradation and render as the trace table's
// "Budget left" column; unbudgeted stages render "-".
func TestStageBudgetSurfaced(t *testing.T) {
	a, err := NewAuditor(Options{
		Seed:    7,
		NumBots: 40,
		Honeypot: HoneypotOptions{
			Sample: 3,
			Settle: 200 * time.Millisecond,
		},
		Exec: ExecOptions{StageRetryBudget: 50},
		Obs:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	if got := res.Degradation["collect"].BudgetLeft; got < 0 || got > 50 {
		t.Fatalf("collect BudgetLeft = %d, want 0..50", got)
	}
	if got := res.Degradation["codeanalysis"].BudgetLeft; got < 0 || got > 50 {
		t.Fatalf("codeanalysis BudgetLeft = %d, want 0..50", got)
	}
	if got := res.Degradation["honeypot"].BudgetLeft; got != -1 {
		t.Fatalf("honeypot BudgetLeft = %d, want -1 (unbudgeted)", got)
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "Budget left") {
		t.Fatal("report's stage table lacks the Budget left column")
	}
}
