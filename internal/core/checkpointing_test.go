package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/permissions"
	"repro/internal/scraper"
)

// benchRecord is a settled collect record about the size of a crawled
// one.
func benchRecord(id int) *scraper.Record {
	return &scraper.Record{
		ID:          id,
		Name:        fmt.Sprintf("bot-%d", id),
		Tags:        []string{"moderation", "music", "utility"},
		Description: strings.Repeat("A friendly bot that keeps your server tidy. ", 4),
		GuildCount:  1200 + id,
		Votes:       id % 977,
		Prefix:      "!",
		Commands:    []string{"help", "ban", "kick", "play", "stats"},
		Developers:  []string{fmt.Sprintf("dev-%d", id%331)},
		HasWebsite:  true,
		GitHubURL:   fmt.Sprintf("/gh/dev-%d/bot-%d", id%331, id),
		PermsValid:  true,
		Perms:       permissions.ViewChannel | permissions.SendMessages | permissions.ManageMessages,
		PolicyText:  strings.Repeat("We store your user ID. ", 3),
	}
}

// BenchmarkCheckpointPeriodicWrite times one periodic checkpoint write
// on a run that has already settled 1,000 or 8,000 bots. Each op folds
// one worker batch of fresh records, and Every equals the batch size,
// so every op writes; the run's first write happens before the timer
// starts. A periodic write's cost should not grow with the run.
//
//	go test ./internal/core -run '^$' -bench CheckpointPeriodicWrite
func BenchmarkCheckpointPeriodicWrite(b *testing.B) {
	const batchSize = 8 // the executor's per-worker batch
	for _, settled := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("settled=%d", settled), func(b *testing.B) {
			st, err := checkpoint.NewStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			base := &checkpoint.Snapshot{RunID: "bench", Seed: 1, NumBots: settled}
			for i := 0; i < settled; i++ {
				base.BotIDs = append(base.BotIDs, i)
				base.Records = append(base.Records, benchRecord(i))
			}
			reg := obs.NewRegistry()
			c := newCkptState(CheckpointOptions{Store: st, Every: batchSize}, base, reg)
			batch := make([]pendingOutcome, batchSize)
			for i := range batch {
				batch[i] = pendingOutcome{Stage: "collect", BotID: settled + i, Rec: benchRecord(settled + i)}
			}
			c.noteBatch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.noteBatch(batch)
				// Hold the run at its size, so every op writes on the
				// same number of settled records.
				c.snap.Records = c.snap.Records[:settled+batchSize]
			}
			b.StopTimer()
			if got, want := reg.Counter("core_checkpoints_written_total").Value(), int64(b.N+1); got != want {
				b.Fatalf("%d checkpoint writes, want %d", got, want)
			}
		})
	}
}

// TestCheckpointWriteAfterFailedAppend: a periodic write that fails
// leaves its outcomes pending, and the next write saves the whole
// snapshot, so nothing settled before the failure is lost. Appends
// then resume and carry the budget remainders.
func TestCheckpointWriteAfterFailedAppend(t *testing.T) {
	st, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := newCkptState(CheckpointOptions{Store: st, Every: 2}, &checkpoint.Snapshot{RunID: "run-x"}, reg)
	next := 0
	write := func() {
		next += 2
		c.noteBatch([]pendingOutcome{
			{Stage: "collect", BotID: next - 1, Rec: benchRecord(next - 1)},
			{Stage: "collect", BotID: next, Rec: benchRecord(next)},
		})
	}
	loaded := func() int {
		t.Helper()
		s, err := st.Load("run-x")
		if err != nil {
			t.Fatal(err)
		}
		return len(s.Records)
	}

	write() // the run's first write saves the base
	if err := os.Remove(st.Path("run-x")); err != nil {
		t.Fatal(err)
	}
	write() // an append with no file to append to fails
	if got := reg.Counter("core_checkpoint_write_errors_total").Value(); got != 1 {
		t.Fatalf("%d failed writes, want 1", got)
	}
	write() // so this one saves everything
	if got := loaded(); got != 6 {
		t.Fatalf("the write after a failed one holds %d records, want 6", got)
	}
	write() // and appends resume after it
	if got := loaded(); got != 8 {
		t.Fatalf("the file holds %d records after the next append, want 8", got)
	}
	if got := reg.Counter("core_checkpoints_written_total").Value(); got != 3 {
		t.Fatalf("%d checkpoint writes, want 3", got)
	}
}
