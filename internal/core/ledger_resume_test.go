package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// TestLedgeredJournalSurvivesKillResume is the evidence-preservation
// acceptance test: a pipeline run journaling in merkle ledger mode is
// aborted mid-run, resumed from its checkpoint, and run to completion —
// onto the SAME journal file. The pre-kill journal must survive
// byte-for-byte (Open used to os.Create and destroy it on -resume), the
// resumed segment must re-anchor the hash chain on the prior segment's
// head, and the finished file must verify end-to-end across the
// segment boundary with zero pre-kill events lost.
func TestLedgeredJournalSurvivesKillResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	newOpts := func() Options {
		return Options{
			Seed:    7,
			NumBots: 60,
			Honeypot: HoneypotOptions{
				Sample: 6,
				Settle: 300 * time.Millisecond,
			},
			Obs: obs.NewRegistry(),
		}
	}

	kills := []int{2}
	resumeFrom := ""
	var prefix []byte
	var preKill int
	attempts := 0
	for attempt := 0; ; attempt++ {
		if attempt > len(kills)+3 {
			t.Fatalf("pipeline did not converge after %d attempts", attempt)
		}
		attempts++
		opts := newOpts()
		opts.Checkpoint = CheckpointOptions{Store: st, Every: 3, Resume: resumeFrom}
		jnl, err := journal.Open(jpath, journal.Options{
			Obs:    opts.Obs,
			Resume: attempt > 0,
			Ledger: journal.LedgerOptions{Mode: journal.LedgerMerkle, Batch: 8},
		})
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if attempt > 0 {
			if ls := jnl.Ledger(); !ls.Resumed || ls.PriorEvents == 0 {
				t.Fatalf("attempt %d did not re-anchor on the prior segment: %+v", attempt, ls)
			}
		}
		opts.Journal = jnl

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
		_, runErr := a.RunAllContext(ctx)
		st.AfterSave = nil
		cancel()
		a.Close()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}

		if attempt == 0 {
			// Snapshot the pre-kill evidence for the append-only check.
			if prefix, err = os.ReadFile(jpath); err != nil {
				t.Fatal(err)
			}
			events, _, err := journal.Decode(bytes.NewReader(prefix))
			if err != nil {
				t.Fatal(err)
			}
			preKill = len(events)
			if preKill == 0 {
				t.Fatal("aborted attempt journaled no events; kill landed too early to test anything")
			}
		}

		if runErr == nil {
			break
		}
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("attempt %d died with %v, want the injected abort", attempt, runErr)
		}
		resumeFrom = ResumeLatest
	}

	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, prefix) {
		t.Fatal("resume rewrote or truncated the pre-kill journal (append-only violated)")
	}

	res, err := journal.VerifyFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("killed-and-resumed journal does not verify: %s", res.Err)
	}
	if res.Segments != attempts {
		t.Errorf("segments = %d, want one per attempt (%d)", res.Segments, attempts)
	}

	events, skipped, err := journal.Decode(bytes.NewReader(raw))
	if err != nil || skipped != 0 {
		t.Fatalf("decode: err=%v skipped=%d", err, skipped)
	}
	if len(events) < preKill {
		t.Fatalf("final journal has %d events, fewer than the %d pre-kill ones", len(events), preKill)
	}
	// The resumed attempts journaled run_resumed events stamped with
	// the ledger anchor, tying checkpoint resume and chain re-anchoring
	// together in-band.
	resumed := 0
	for _, e := range events {
		if e.Kind != journal.KindRunResumed {
			continue
		}
		resumed++
		if e.Fields["ledger_mode"] != string(journal.LedgerMerkle) {
			t.Errorf("run_resumed ledger_mode = %v", e.Fields["ledger_mode"])
		}
		if seq, _ := e.Fields["ledger_anchor_seq"].(float64); seq <= 0 {
			t.Errorf("run_resumed ledger_anchor_seq = %v, want > 0", e.Fields["ledger_anchor_seq"])
		}
	}
	if resumed != attempts-1 {
		t.Errorf("run_resumed events = %d, want %d (one per resumed attempt)", resumed, attempts-1)
	}
}
