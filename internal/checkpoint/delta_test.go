package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

// deltas returns three deltas that extend a base with no listing: the
// second records the listing, and every kind of settled work appears
// in at least one of them.
func deltas() []*Snapshot {
	return []*Snapshot{
		{
			Records:      []*scraper.Record{{ID: 4, Name: "delta", Votes: 3, PermsValid: true}},
			CodeLinkErrs: map[string]string{"/gh/flaky": "timeout after retries"},
		},
		{
			BotIDs:            []int{3, 1, 2, 4, 5},
			CollectQuarantine: []QEntry{{BotID: 5, Err: "breaker open"}},
			CodeLinks: map[string]*codeanalysis.RepoAnalysis{
				"/gh/dev/other": {Link: "/gh/dev/other", Outcome: codeanalysis.OutcomeValidRepo, MainLanguage: "Go"},
			},
			Verdicts: []*honeypot.Verdict{{Subject: honeypot.Subject{ListingID: 4, Name: "delta"}, GuildTag: "hp-delta"}},
		},
		{
			Records:            []*scraper.Record{{ID: 6, Name: "zeta", InvalidReason: scraper.InvalidRemoved}},
			HoneypotQuarantine: []QEntry{{BotID: 6, Name: "zeta", Err: "gateway down"}},
			// A link that failed earlier and settled on a later retry
			// pass overwrites its entry key by key.
			CodeLinkErrs: map[string]string{"/gh/flaky": "404"},
		},
	}
}

// deltaBase is sample() before any listing, the state a run's first
// write records when pagination is still running.
func deltaBase(runID string) *Snapshot {
	s := sample(runID)
	s.BotIDs = nil
	return s
}

// merged is what deltaBase plus the first n deltas must decode to.
func merged(runID string, n int) *Snapshot {
	want := deltaBase(runID)
	want.Schema = SchemaVersion
	ds := deltas()
	if n >= 1 {
		want.Records = append(want.Records, ds[0].Records...)
		want.CodeLinkErrs["/gh/flaky"] = "timeout after retries"
	}
	if n >= 2 {
		want.BotIDs = []int{3, 1, 2, 4, 5}
		want.CollectQuarantine = append(want.CollectQuarantine, ds[1].CollectQuarantine...)
		want.CodeLinks["/gh/dev/other"] = ds[1].CodeLinks["/gh/dev/other"]
		want.Verdicts = append(want.Verdicts, ds[1].Verdicts...)
	}
	if n >= 3 {
		want.Records = append(want.Records, ds[2].Records...)
		want.HoneypotQuarantine = append(want.HoneypotQuarantine, ds[2].HoneypotQuarantine...)
		want.CodeLinkErrs["/gh/flaky"] = "404"
	}
	return want
}

// appendAll saves deltaBase and appends every delta, returning the
// file's size after the base and after each append.
func appendAll(t *testing.T, st *Store, runID string) []int64 {
	t.Helper()
	if err := st.Save(deltaBase(runID)); err != nil {
		t.Fatal(err)
	}
	sizes := []int64{fileSize(t, st.Path(runID))}
	for _, d := range deltas() {
		if err := st.Append(runID, d); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fileSize(t, st.Path(runID)))
	}
	return sizes
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestDecodeMergesDeltas(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := appendAll(t, st, "run-d")
	got, err := st.Load("run-d")
	if err != nil {
		t.Fatal(err)
	}
	if want := merged("run-d", 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("base plus deltas decoded to\n%+v\nwant\n%+v", got, want)
	}

	// Each append grows the file by exactly its one frame.
	for i, d := range deltas() {
		frame, err := encodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if grew := sizes[i+1] - sizes[i]; grew != int64(len(frame)) {
			t.Errorf("append %d grew the file by %d bytes, its frame is %d", i, grew, len(frame))
		}
	}
}

// TestDecodeDropsTornDelta cuts the file at every offset inside its
// last frame, as a crash mid-append can: each cut loads the base and
// the earlier deltas, and none is an error.
func TestDecodeDropsTornDelta(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := appendAll(t, st, "run-t")
	data, err := os.ReadFile(st.Path("run-t"))
	if err != nil {
		t.Fatal(err)
	}
	want := merged("run-t", 2)
	for cut := sizes[2]; cut < sizes[3]; cut++ {
		got, err := Decode(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d of the last frame [%d, %d): %v", cut, sizes[2], sizes[3], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of the last frame [%d, %d) decoded to %+v", cut, sizes[2], sizes[3], got)
		}
	}
}

// TestDecodeRejectsDamagedDelta flips each byte of a complete delta
// that is not the last: damage there is not a torn write.
func TestDecodeRejectsDamagedDelta(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := appendAll(t, st, "run-f")
	data, err := os.ReadFile(st.Path("run-f"))
	if err != nil {
		t.Fatal(err)
	}
	for i := sizes[1]; i < sizes[2]; i++ {
		b := append([]byte{}, data...)
		b[i] ^= 0x40
		s, err := Decode(bytes.NewReader(b))
		if !errors.Is(err, ErrCorrupt) || s != nil {
			t.Fatalf("flipped byte %d of the middle delta [%d, %d): got %v, want ErrCorrupt", i, sizes[1], sizes[2], err)
		}
	}
	// Bytes that cannot begin a delta frame are damage too.
	for _, tail := range []string{"x", "ckptv1 ", " ckptd ", "ckptd 5 0000000\n{}"} {
		b := append(append([]byte{}, data...), tail...)
		if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("tail %q: err = %v, want ErrCorrupt", tail, err)
		}
	}
}

// TestSaveDropsDeltas: a full save after appends replaces the file, so
// no delta survives beside the new base and no record loads twice.
func TestSaveDropsDeltas(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, st, "run-s")
	full, err := st.Load("run-s")
	if err != nil {
		t.Fatal(err)
	}
	full.Completed = true
	if err := st.Save(full); err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if err := Encode(&base, full); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, st.Path("run-s")); got != int64(base.Len()) {
		t.Fatalf("file after Save is %d bytes, the base alone is %d", got, base.Len())
	}
	got, err := st.Load("run-s")
	if err != nil {
		t.Fatal(err)
	}
	if want := merged("run-s", 3); len(got.Records) != len(want.Records) || !got.Completed {
		t.Fatalf("reloaded %d records (completed %v), want %d, completed", len(got.Records), got.Completed, len(want.Records))
	}
}

func TestAppendHookAndMissingBase(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Append never creates a file: a delta without its base is
	// unreadable.
	if err := st.Append("run-none", deltas()[0]); err == nil {
		t.Fatal("Append without a base succeeded")
	}
	if _, err := os.Stat(st.Path("run-none")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Append left a file behind: %v", err)
	}

	var got []*Snapshot
	st.AfterSave = func(s *Snapshot) { got = append(got, s) }
	base := deltaBase("run-h")
	if err := st.Save(base); err != nil {
		t.Fatal(err)
	}
	d := deltas()[0]
	if err := st.Append("run-h", d); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != base || got[1] != d {
		t.Fatalf("AfterSave saw %v, want the base then the delta", got)
	}
}

// TestLatestFollowsAppend: an append makes its run the newest.
func TestLatestFollowsAppend(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Both bases are saved in the past, run-b after run-a, so the
	// order does not depend on the file system's timestamp grain.
	for i, runID := range []string{"run-a", "run-b"} {
		if err := st.Save(deltaBase(runID)); err != nil {
			t.Fatal(err)
		}
		at := time.Now().Add(time.Duration(i-2) * time.Hour)
		if err := os.Chtimes(st.Path(runID), at, at); err != nil {
			t.Fatal(err)
		}
	}
	if s, err := st.Latest(); err != nil || s.RunID != "run-b" {
		t.Fatalf("Latest before the append = %v, %v; want run-b", s, err)
	}
	if err := st.Append("run-a", deltas()[0]); err != nil {
		t.Fatal(err)
	}
	s, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if s.RunID != "run-a" || !reflect.DeepEqual(s, merged("run-a", 1)) {
		t.Fatalf("Latest after appending to run-a = %+v", s)
	}
}

// TestDecodeSkipsBudgetLeft loads a file an earlier build wrote, when a
// run could set a per-stage retry budget: its base and its delta both
// carry "budget_left". The key is no longer part of a Snapshot, and the
// file must still load, equal to the same snapshot without it.
func TestDecodeSkipsBudgetLeft(t *testing.T) {
	raw, err := os.ReadFile("testdata/budget_left.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte(`"budget_left":{"collect":41}`)); n != 2 {
		t.Fatalf("fixture carries budget_left in %d frames, want base and delta", n)
	}
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := &Snapshot{
		Schema: SchemaVersion, RunID: "run-parent", Seed: 2022, NumBots: 40, HoneypotSample: 3,
		BotIDs: []int{7, 5, 9},
		Records: []*scraper.Record{
			{ID: 7, Name: "alpha", Votes: 12, PermsValid: true},
			{ID: 9, Name: "beta", InvalidReason: scraper.InvalidRemoved},
		},
		CollectQuarantine: []QEntry{{BotID: 5, Err: "endpoint unavailable after retries"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
}
