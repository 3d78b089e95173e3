package honeypot

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/synth"
)

// flakySolver fails the first failN install-captcha solves, then
// answers like the stock arithmetic solver.
type flakySolver struct {
	mu    sync.Mutex
	calls int
	failN int
}

var errSolverDown = errors.New("solver service down")

func (s *flakySolver) Solve(challenge string) (string, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if n <= s.failN {
		return "", errSolverDown
	}
	var a, b int
	if _, err := fmt.Sscanf(challenge, "what is %d plus %d", &a, &b); err != nil {
		return "", err
	}
	return strconv.Itoa(a + b), nil
}

// campaign drives a CampaignRunner as the pipeline's executor does: the
// resume pass over the whole sample, then RunBot for each sample index,
// workers at a time. settled, when set, observes each fresh outcome,
// one call at a time. The result is nil whenever the error is not.
func campaign(ctx context.Context, env Env, eco *synth.Ecosystem, cfg CampaignConfig, workers int, settled func(botID int, v *Verdict, qerr error)) (*CampaignResult, error) {
	cr := NewCampaignRunner(env, eco, cfg)
	if err := cr.ApplyResume(ctx); err != nil {
		return nil, err
	}
	sample := cr.Sample()
	errs := make([]error, len(sample))
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sample); i = int(next.Add(1)) - 1 {
				v, qerr, err := cr.RunBot(ctx, i)
				errs[i] = err
				if settled != nil && (v != nil || qerr != nil) {
					mu.Lock()
					settled(sample[i].ID, v, qerr)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return cr.Result(), nil
}

// TestCampaignQuarantinesFailedExperiment is the regression test for
// the firstErr-discards-everything bug: one failed experiment must
// quarantine that bot and keep every completed verdict.
func TestCampaignQuarantinesFailedExperiment(t *testing.T) {
	env := newEnv(t)
	eco := synth.Generate(synth.Config{Seed: 7, NumBots: 30})

	cfg := CampaignConfig{SampleSize: 5, Experiment: testCfg()}
	cfg.Experiment.Solver = &flakySolver{failN: 1}

	// One worker, so exactly the first sampled bot fails.
	res, err := campaign(context.Background(), env, eco, cfg, 1, nil)
	if err != nil {
		t.Fatalf("lenient campaign errored: %v", err)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %d, want 1", len(res.Quarantined))
	}
	if res.Tested != 4 {
		t.Fatalf("Tested = %d, want 4 (5 sampled − 1 quarantined)", res.Tested)
	}
	if res.Tested+len(res.Quarantined) != 5 {
		t.Fatal("Tested + Quarantined must cover the sample")
	}
	q := res.Quarantined[0]
	want := SelectMostVoted(eco.Bots, 5)[0]
	if q.BotID != want.ID || q.Name != want.Name {
		t.Fatalf("quarantined %d/%s, want the first sampled bot %d/%s", q.BotID, q.Name, want.ID, want.Name)
	}
	if !errors.Is(q.Err, errSolverDown) {
		t.Fatalf("quarantine error = %v, want errSolverDown", q.Err)
	}
	if !res.Degraded() {
		t.Fatal("campaign with a quarantine must report Degraded")
	}
}

// TestCampaignStrictModeAborts: the old behavior stays available.
func TestCampaignStrictModeAborts(t *testing.T) {
	env := newEnv(t)
	eco := synth.Generate(synth.Config{Seed: 7, NumBots: 30})

	cfg := CampaignConfig{SampleSize: 5, Experiment: testCfg(), Strict: true}
	cfg.Experiment.Solver = &flakySolver{failN: 1}

	res, err := campaign(context.Background(), env, eco, cfg, 1, nil)
	if err == nil {
		t.Fatal("strict campaign should abort on the failed experiment")
	}
	if !errors.Is(err, errSolverDown) {
		t.Fatalf("err = %v, want wrapped errSolverDown", err)
	}
	if res != nil {
		t.Fatal("strict campaign must not return partial results")
	}
}
