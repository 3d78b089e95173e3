package honeypot

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/synth"
)

// runBaseline runs a small campaign to completion and returns its
// result plus the settled outcomes the checkpointer would have
// recorded, keyed by bot ID.
func runBaseline(t *testing.T, cfg CampaignConfig, eco *synth.Ecosystem, workers int) (*CampaignResult, *CampaignResume) {
	t.Helper()
	resume := &CampaignResume{
		Verdicts:    make(map[int]*Verdict),
		Quarantined: make(map[int]error),
	}
	res, err := campaign(context.Background(), newEnv(t), eco, cfg, workers, func(botID int, v *Verdict, qerr error) {
		if qerr != nil {
			resume.Quarantined[botID] = qerr
			return
		}
		resume.Verdicts[botID] = v
	})
	if err != nil {
		t.Fatalf("baseline campaign: %v", err)
	}
	return res, resume
}

// TestCampaignResumeSkipsSettled: a campaign resumed over a checkpoint
// covering the whole sample replays every verdict without launching a
// single experiment, and journals one work_skipped per settled bot.
func TestCampaignResumeSkipsSettled(t *testing.T) {
	eco := synth.Generate(synth.Config{Seed: 7, NumBots: 30})
	cfg := CampaignConfig{SampleSize: 5, Experiment: testCfg()}
	base, resume := runBaseline(t, cfg, eco, 2)
	if base.Tested != 5 {
		t.Fatalf("baseline Tested = %d, want 5", base.Tested)
	}

	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: obs.NewRegistry()})
	reCfg := cfg
	reCfg.Resume = resume
	ctx := journal.NewContext(context.Background(), jnl)
	res, err := campaign(ctx, newEnv(t), eco, reCfg, 2, func(botID int, v *Verdict, qerr error) {
		t.Errorf("bot %d re-executed on resume (verdict=%v err=%v)", botID, v != nil, qerr)
	})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	if res.Tested != base.Tested {
		t.Fatalf("resumed Tested = %d, want %d", res.Tested, base.Tested)
	}
	baseTrig := make(map[string]bool)
	for _, v := range base.Triggered {
		baseTrig[v.Subject.Name] = true
	}
	if len(res.Triggered) != len(base.Triggered) {
		t.Fatalf("resumed Triggered = %d, want %d", len(res.Triggered), len(base.Triggered))
	}
	for _, v := range res.Triggered {
		if !baseTrig[v.Subject.Name] {
			t.Fatalf("resumed triggered set diverged: unexpected %s", v.Subject.Name)
		}
	}

	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, e := range events {
		if e.Kind == journal.KindWorkSkipped {
			skips++
			if e.Fields["stage"] != "honeypot" {
				t.Fatalf("work_skipped stage = %v", e.Fields["stage"])
			}
		}
		if e.Kind == journal.KindExperimentStarted {
			t.Fatal("resumed campaign started a fresh experiment")
		}
	}
	if skips != 5 {
		t.Fatalf("work_skipped events = %d, want 5 (one per settled bot)", skips)
	}
}

// TestCampaignResumePartial: bots absent from the checkpoint — and only
// those — run fresh, and the union matches an uninterrupted campaign.
func TestCampaignResumePartial(t *testing.T) {
	eco := synth.Generate(synth.Config{Seed: 7, NumBots: 30})
	cfg := CampaignConfig{SampleSize: 5, Experiment: testCfg()}
	base, resume := runBaseline(t, cfg, eco, 2)

	// Keep only the first two sampled bots "settled"; the rest vanish
	// from the checkpoint as if the crash predated them.
	sample := SelectMostVoted(eco.Bots, 5)
	partial := &CampaignResume{
		Verdicts:    make(map[int]*Verdict),
		Quarantined: make(map[int]error),
	}
	for _, b := range sample[:2] {
		if v, ok := resume.Verdicts[b.ID]; ok {
			partial.Verdicts[b.ID] = v
		}
	}

	fresh := make(map[int]bool)
	reCfg := cfg
	reCfg.Resume = partial
	res, err := campaign(context.Background(), newEnv(t), eco, reCfg, 2, func(botID int, v *Verdict, qerr error) {
		fresh[botID] = true
	})
	if err != nil {
		t.Fatalf("partially resumed campaign: %v", err)
	}
	if res.Tested != base.Tested {
		t.Fatalf("Tested = %d, want %d", res.Tested, base.Tested)
	}
	for _, b := range sample[:2] {
		if fresh[b.ID] {
			t.Fatalf("settled bot %d was re-executed", b.ID)
		}
	}
	if len(fresh) != 3 {
		t.Fatalf("fresh executions = %d, want 3", len(fresh))
	}
}

// TestCampaignStrictResumeFailsFast is the Strict×resume contract: a
// Strict campaign resumed over a checkpoint that recorded a quarantine
// must fail immediately — replaying the failure — without re-running
// any settled experiment or creating a single new guild.
func TestCampaignStrictResumeFailsFast(t *testing.T) {
	eco := synth.Generate(synth.Config{Seed: 7, NumBots: 30})
	// Baseline runs lenient so the flaky first experiment becomes a
	// recorded quarantine rather than an abort.
	cfg := CampaignConfig{SampleSize: 5, Experiment: testCfg()}
	cfg.Experiment.Solver = &flakySolver{failN: 1}
	base, resume := runBaseline(t, cfg, eco, 1)
	if len(base.Quarantined) != 1 {
		t.Fatalf("baseline quarantined = %d, want 1", len(base.Quarantined))
	}

	reCfg := cfg
	reCfg.Strict = true
	reCfg.Resume = resume
	// A solver call would mean an experiment actually launched.
	reCfg.Experiment.Solver = &flakySolver{failN: 1 << 30}
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: obs.NewRegistry()})
	ctx := journal.NewContext(context.Background(), jnl)
	res, err := campaign(ctx, newEnv(t), eco, reCfg, 1, func(botID int, v *Verdict, qerr error) {
		t.Errorf("bot %d re-executed during strict resume", botID)
	})
	if err == nil {
		t.Fatal("strict resume over a checkpointed quarantine must fail")
	}
	if !errors.Is(err, errSolverDown) {
		t.Fatalf("err = %v, want the replayed quarantine cause", err)
	}
	if res != nil {
		t.Fatal("strict resume must not return partial results")
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
			t.Fatal("strict resume launched an experiment before failing")
		}
	}
}
