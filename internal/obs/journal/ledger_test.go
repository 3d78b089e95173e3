package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// ledgered writes n events through a journal in the given mode and
// returns the raw file bytes after a clean Close.
func ledgered(t *testing.T, mode LedgerMode, batch, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := New(&buf, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Ledger: LedgerOptions{Mode: mode, Batch: batch},
	})
	for i := 0; i < n; i++ {
		j.Emit(Event{Kind: KindPageFetched, BotID: i + 1, Fields: map[string]any{"ref": fmt.Sprintf("/bot/%d", i+1)}})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLedgerRoundTripVerifies(t *testing.T) {
	for _, tc := range []struct {
		mode    LedgerMode
		batch   int
		events  int
		batches int
	}{
		{LedgerChain, 0, 10, 10}, // chain: one record per event
		{LedgerMerkle, 4, 10, 3}, // merkle: 4+4+2
		{LedgerMerkle, 64, 0, 0}, // no events: anchor + seal only
		{LedgerMerkle, 64, 1, 1}, // single-leaf batch
		{LedgerMerkle, 3, 9, 3},  // exact multiple
		{LedgerChain, 99, 3, 3},  // chain ignores batch size
	} {
		t.Run(fmt.Sprintf("%s-b%d-n%d", tc.mode, tc.batch, tc.events), func(t *testing.T) {
			raw := ledgered(t, tc.mode, tc.batch, tc.events)
			res := Verify(bytes.NewReader(raw))
			if !res.OK {
				t.Fatalf("verify failed: %s\n%s", res.Err, raw)
			}
			if res.Events != tc.events || res.Batches != tc.batches || res.Segments != 1 || res.Seals != 1 {
				t.Errorf("result = %+v, want %d events / %d batches / 1 segment / 1 seal", res, tc.events, tc.batches)
			}
			if !res.Sealed || res.Uncovered != 0 || res.Head == "" {
				t.Errorf("seal state = %+v", res)
			}
			// The events are still fully decodable; records don't count
			// as skipped.
			events, skipped, err := Decode(bytes.NewReader(raw))
			if err != nil || skipped != 0 || len(events) != tc.events {
				t.Errorf("decode: err=%v skipped=%d events=%d, want %d", err, skipped, len(events), tc.events)
			}
		})
	}
}

func TestVerifyRejectsUnledgeredJournal(t *testing.T) {
	var buf bytes.Buffer
	j := New(&buf, Options{Obs: obs.NewRegistry(), Now: testClock()})
	j.Emit(Event{Kind: KindPageFetched})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res := Verify(&buf)
	if res.OK || !strings.Contains(res.Err, "no ledger records") {
		t.Errorf("verify of off-mode journal = %+v", res)
	}
	if res := Verify(strings.NewReader("")); res.OK || !strings.Contains(res.Err, "empty") {
		t.Errorf("verify of empty input = %+v", res)
	}
}

// lineOf returns the 1-based index of the k-th event (non-record) line.
func eventLines(raw []byte) []int {
	var out []int
	for i, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		if _, isRec := isRecordLine(line); !isRec {
			out = append(out, i+1)
		}
	}
	return out
}

func TestVerifyDetectsFlippedByte(t *testing.T) {
	for _, mode := range []LedgerMode{LedgerChain, LedgerMerkle} {
		t.Run(string(mode), func(t *testing.T) {
			raw := ledgered(t, mode, 4, 12)
			lines := bytes.SplitAfter(raw, []byte("\n"))
			evs := eventLines(raw)
			target := evs[5] // 6th event line
			tampered := bytes.Join(lines, nil)
			// Flip one byte inside the target line: locate its offset.
			off := 0
			for i := 0; i < target-1; i++ {
				off += len(lines[i])
			}
			tampered = append([]byte(nil), raw...)
			tampered[off+10] ^= 0x01
			res := Verify(bytes.NewReader(tampered))
			if res.OK {
				t.Fatal("flipped byte not detected")
			}
			if res.FirstBad == 0 || res.FirstBad > target || res.BadEnd < target {
				t.Errorf("blast radius [%d,%d] does not bound tampered line %d: %s", res.FirstBad, res.BadEnd, target, res.Err)
			}
			if mode == LedgerChain && res.FirstBad != target {
				t.Errorf("chain mode should pinpoint line %d exactly, got %d (%s)", target, res.FirstBad, res.Err)
			}
		})
	}
}

func TestVerifyDetectsDeletedLine(t *testing.T) {
	raw := ledgered(t, LedgerMerkle, 4, 12)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	evs := eventLines(raw)
	target := evs[4]
	tampered := append(append([]byte(nil), bytes.Join(lines[:target-1], nil)...), bytes.Join(lines[target:], nil)...)
	res := Verify(bytes.NewReader(tampered))
	if res.OK {
		t.Fatal("deleted line not detected")
	}
	if !strings.Contains(res.Err, "deleted") && !strings.Contains(res.Err, "mismatch") {
		t.Errorf("unexpected error: %s", res.Err)
	}
	if res.FirstBad == 0 {
		t.Errorf("no blast radius reported: %+v", res)
	}
}

func TestVerifyDetectsDeletedRecord(t *testing.T) {
	raw := ledgered(t, LedgerMerkle, 4, 12)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	// Delete the second ledger record (first batch record after the
	// anchor): record continuity via prev must break.
	recIdx := -1
	seen := 0
	for i, line := range lines {
		if _, isRec := isRecordLine(bytes.TrimSuffix(line, []byte("\n"))); isRec {
			seen++
			if seen == 2 {
				recIdx = i
				break
			}
		}
	}
	if recIdx < 0 {
		t.Fatal("no second record found")
	}
	tampered := append(append([]byte(nil), bytes.Join(lines[:recIdx], nil)...), bytes.Join(lines[recIdx+1:], nil)...)
	res := Verify(bytes.NewReader(tampered))
	if res.OK {
		t.Fatal("deleted record not detected")
	}
}

func TestVerifyDetectsReorderedLines(t *testing.T) {
	raw := ledgered(t, LedgerMerkle, 8, 12)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	evs := eventLines(raw)
	// Swap two event lines inside the same batch: the chain states (and
	// so the Merkle root and record chain) change.
	a, b := evs[2], evs[3]
	lines[a-1], lines[b-1] = lines[b-1], lines[a-1]
	res := Verify(bytes.NewReader(bytes.Join(lines, nil)))
	if res.OK {
		t.Fatal("reordered lines not detected")
	}
	if res.FirstBad == 0 || res.FirstBad > a {
		t.Errorf("blast radius [%d,%d] misses first reordered line %d: %s", res.FirstBad, res.BadEnd, a, res.Err)
	}
}

func TestVerifyDetectsTruncatedTail(t *testing.T) {
	raw := ledgered(t, LedgerMerkle, 4, 12)

	// Truncate after the last batch record (drop the seal): unsealed.
	lines := bytes.SplitAfter(raw, []byte("\n"))
	noSeal := bytes.Join(lines[:len(lines)-2], nil) // final entry of SplitAfter is empty
	res := Verify(bytes.NewReader(noSeal))
	if res.OK || !strings.Contains(res.Err, "unsealed") {
		t.Errorf("missing seal not detected: %+v", res)
	}

	// Truncate mid-line: torn final write.
	res = Verify(bytes.NewReader(raw[:len(raw)-7]))
	if res.OK || !strings.Contains(res.Err, "torn") {
		t.Errorf("torn tail not detected: %+v", res)
	}

	// Events appended after the seal without re-anchoring.
	appended := append(append([]byte(nil), raw...), []byte(`{"schema":1,"kind":"page_fetched","bot_id":999}`+"\n")...)
	res = Verify(bytes.NewReader(appended))
	if res.OK || !strings.Contains(res.Err, "after seal") {
		t.Errorf("post-seal append not detected: %+v", res)
	}
}

func TestOpenResumeAppendsInsteadOfTruncating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	reg := obs.NewRegistry()

	j, err := Open(path, Options{Obs: reg, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Kind: KindBotDiscovered, BotID: 1, Bot: "A"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume without the ledger: plain append, prior events survive.
	j, err = Open(path, Options{Obs: reg, Now: testClock(), Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Kind: KindBotDiscovered, BotID: 2, Bot: "B"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, skipped, err := Decode(f)
	if err != nil || skipped != 0 {
		t.Fatalf("decode: err=%v skipped=%d", err, skipped)
	}
	if len(events) != 2 || events[0].BotID != 1 || events[1].BotID != 2 {
		t.Fatalf("resume lost events: %+v", events)
	}

	// Without Resume, Open still starts fresh.
	j, err = Open(path, Options{Obs: reg, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Errorf("fresh Open did not truncate: size=%d err=%v", fi.Size(), err)
	}
}

func TestLedgerResumeReanchorsAcrossSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	opts := func() Options {
		return Options{
			Obs:    obs.NewRegistry(),
			Now:    testClock(),
			Ledger: LedgerOptions{Mode: LedgerMerkle, Batch: 4},
		}
	}

	j, err := Open(path, opts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		j.Emit(Event{Kind: KindPageFetched, BotID: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ro := opts()
	ro.Resume = true
	j, err = Open(path, ro)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Ledger()
	if !st.Resumed || st.PriorEvents != 6 || st.Recovered != 0 {
		t.Errorf("resume anchor stats = %+v", st)
	}
	for i := 6; i < 10; i++ {
		j.Emit(Event{Kind: KindPageFetched, BotID: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st = j.Ledger()
	if st.Seq != 10 || st.Head == "" {
		t.Errorf("final ledger stats = %+v", st)
	}

	res, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("resumed journal does not verify: %s", res.Err)
	}
	if res.Events != 10 || res.Segments != 2 || res.Seals != 2 {
		t.Errorf("result = %+v, want 10 events / 2 segments / 2 seals", res)
	}
}

// crashImage runs a ledgered journal, lets the flusher land wantLines
// lines, and returns the file bytes as they stood — the moral
// equivalent of a SIGKILL before Close ever ran. The copied image is
// what a crashed process leaves on disk; the abandoned journal itself
// is closed only when the test ends, so its flusher does not outlive
// the test.
func crashImage(t *testing.T, dir string, events int, wantLines int) []byte {
	t.Helper()
	path := filepath.Join(dir, "crash.jsonl")
	j, err := Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Ledger: LedgerOptions{Mode: LedgerMerkle, Batch: 4, Wait: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	for i := 0; i < events; i++ {
		j.Emit(Event{Kind: KindExperimentSettled, BotID: i + 1, Fields: map[string]any{"verdict": "leaky"}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(raw, []byte("\n")) >= wantLines {
			// No Close: simulate the crash by abandoning the journal.
			return raw
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher landed only %d lines, want %d:\n%s", bytes.Count(raw, []byte("\n")), wantLines, raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestKillResumePreservesPreKillEvents(t *testing.T) {
	dir := t.TempDir()
	// 10 events, batch 4: anchor + 10 event lines + at least 2 batch
	// records must land; the wait timer commits the final partial batch.
	img := crashImage(t, dir, 10, 13)

	path := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	// The crash image must NOT verify: it is unsealed (or torn).
	if res := Verify(bytes.NewReader(img)); res.OK {
		t.Fatalf("crash image verified clean: %+v", res)
	}

	j, err := Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Resume: true,
		Ledger: LedgerOptions{Mode: LedgerMerkle, Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Ledger()
	if !st.Resumed {
		t.Errorf("resume stats = %+v", st)
	}
	for i := 10; i < 15; i++ {
		j.Emit(Event{Kind: KindExperimentSettled, BotID: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("killed-and-resumed journal does not verify: %s", res.Err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, skipped, err := Decode(f)
	if err != nil || skipped != 0 {
		t.Fatalf("decode: err=%v skipped=%d", err, skipped)
	}
	if len(events) != 15 {
		t.Fatalf("events = %d, want 15 (pre-kill events lost)", len(events))
	}
	for i, e := range events {
		if e.BotID != i+1 {
			t.Fatalf("event %d has bot_id %d — order or content lost", i, e.BotID)
		}
	}
}

func TestResumeRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	img := crashImage(t, dir, 10, 13)
	// Tear the final line mid-write.
	img = img[:len(img)-5]

	path := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Resume: true,
		Ledger: LedgerOptions{Mode: LedgerMerkle, Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Kind: KindExperimentSettled, BotID: 99})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("torn-tail resume does not verify: %s", res.Err)
	}
	// The torn line survives as bytes (chained, unparseable, skipped by
	// Decode) — evidence is preserved, not silently rewritten.
	f, _ := os.Open(path)
	defer f.Close()
	events, skipped, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want exactly the torn line", skipped)
	}
	if events[len(events)-1].BotID != 99 {
		t.Errorf("post-resume event missing: %+v", events)
	}
}

func TestResumeRefusesTamperedJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	j, err := Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Ledger: LedgerOptions{Mode: LedgerChain},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Emit(Event{Kind: KindCanaryTriggered, BotID: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := eventLines(raw)
	off := 0
	for i, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if i+1 == evs[2] {
			break
		}
		off += len(line)
	}
	raw[off+8] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Resume: true,
		Ledger: LedgerOptions{Mode: LedgerChain},
	})
	if err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("resume onto tampered journal: err = %v, want refusal", err)
	}
}

func TestLedgerResumeUpgradesOffModeJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Open(path, Options{Obs: obs.NewRegistry(), Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j.Emit(Event{Kind: KindPageFetched, BotID: i + 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, err = Open(path, Options{
		Obs:    obs.NewRegistry(),
		Now:    testClock(),
		Resume: true,
		Ledger: LedgerOptions{Mode: LedgerMerkle, Batch: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Ledger()
	if !st.Resumed || st.Recovered != 3 {
		t.Errorf("off-mode upgrade stats = %+v (want 3 recovered lines)", st)
	}
	j.Emit(Event{Kind: KindPageFetched, BotID: 4})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Events != 4 {
		t.Errorf("upgraded journal verify = %+v", res)
	}
}

func TestParseLedgerMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LedgerMode
		ok   bool
	}{
		{"", LedgerOff, true},
		{"off", LedgerOff, true},
		{"chain", LedgerChain, true},
		{"merkle", LedgerMerkle, true},
		{"sha", LedgerOff, false},
	} {
		got, err := ParseLedgerMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseLedgerMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestMerkleRootProperties(t *testing.T) {
	leaves := make([]digest, 7)
	for i := range leaves {
		leaves[i] = chainStep(genesis(), []byte{byte(i)})
	}
	root := merkleRoot(leaves)
	if root == (digest{}) {
		t.Fatal("zero root")
	}
	if merkleRoot(leaves) != root {
		t.Error("root not deterministic")
	}
	// Any reorder or substitution changes the root.
	swapped := append([]digest(nil), leaves...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if merkleRoot(swapped) == root {
		t.Error("reorder did not change root")
	}
	if merkleRoot(leaves[:6]) == root {
		t.Error("truncation did not change root")
	}
	// Single leaf is its own root (chain mode's degenerate tree).
	if merkleRoot(leaves[:1]) != leaves[0] {
		t.Error("single-leaf root != leaf")
	}
}
