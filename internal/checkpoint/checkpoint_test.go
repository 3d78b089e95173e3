package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

func sample(runID string) *Snapshot {
	return &Snapshot{
		RunID:          runID,
		Seed:           7,
		NumBots:        120,
		HoneypotSample: 12,
		BotIDs:         []int{3, 1, 2},
		Records: []*scraper.Record{
			{ID: 1, Name: "alpha", Votes: 10, PermsValid: true, Tags: []string{"fun"}},
			{ID: 2, Name: "beta", InvalidReason: scraper.InvalidRemoved},
		},
		CollectQuarantine: []QEntry{{BotID: 3, Err: "endpoint unavailable after retries"}},
		CodeLinks: map[string]*codeanalysis.RepoAnalysis{
			"/gh/dev/repo": {Link: "/gh/dev/repo", Outcome: codeanalysis.OutcomeValidRepo, MainLanguage: "Python"},
		},
		CodeLinkErrs: map[string]string{"/gh/dead": "503 after retries"},
		Verdicts: []*honeypot.Verdict{
			{Subject: honeypot.Subject{ListingID: 1, Name: "alpha"}, GuildTag: "hp-alpha", Triggered: true},
		},
		HoneypotQuarantine: []QEntry{{BotID: 9, Name: "gamma", Err: "gateway down"}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sample("run-1")
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Settled() != 2+1+1+1+1+1 {
		t.Fatalf("Settled() = %d", got.Settled())
	}
}

// TestDecodeDetectsDamage: every class of structural damage must
// surface ErrCorrupt with a nil snapshot — never a partial load.
func TestDecodeDetectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sample("run-2")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"no newline":       []byte(magic + " 1 10 00000000"),
		"bad magic":        append([]byte("nope"), whole[len(magic):]...),
		"truncated header": whole[:5],
		"truncated body":   whole[:len(whole)-7],
		"trailing bytes":   append(append([]byte{}, whole...), " {}"...),
		"flipped byte": func() []byte {
			b := append([]byte{}, whole...)
			b[len(b)-3] ^= 0x40
			return b
		}(),
		"declared longer than body": []byte(magic + " 1 9999 00000000\n{}"),
		"negative length":           []byte(magic + " 1 -4 00000000\n{}"),
		"not json payload": func() []byte {
			// Valid header and checksum over a non-JSON payload.
			var b bytes.Buffer
			payload := "certainly-not-json"
			fmt.Fprintf(&b, "%s 1 %d %08x\n%s", magic, len(payload), crc32Castagnoli([]byte(payload)), payload)
			return b.Bytes()
		}(),
	}
	for name, data := range cases {
		s, err := Decode(bytes.NewReader(data))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if s != nil {
			t.Errorf("%s: got non-nil snapshot %+v from damaged input", name, s)
		}
	}
}

func crc32Castagnoli(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

func TestDecodeFutureSchema(t *testing.T) {
	payload := `{"schema":99,"run_id":"run-x"}`
	header := fmt.Sprintf("%s 99 %d %08x\n", magic, len(payload), crc32Castagnoli([]byte(payload)))
	_, err := Decode(strings.NewReader(header + payload))
	if !errors.Is(err, ErrFutureSchema) {
		t.Fatalf("err = %v, want ErrFutureSchema", err)
	}
}

func TestStoreSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	first := sample("run-100")
	if err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	second := sample("run-200")
	second.Completed = true
	if err := st.Save(second); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load("run-100")
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != "run-100" {
		t.Fatalf("Load returned run %q", got.RunID)
	}

	latest, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.RunID != "run-200" || !latest.Completed {
		t.Fatalf("Latest = %q (completed %v)", latest.RunID, latest.Completed)
	}

	// Overwrite is atomic: the new snapshot fully replaces the old.
	first.Completed = true
	if err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load("run-100")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Completed {
		t.Fatal("overwritten snapshot not visible after Save")
	}

	// No stray temp files survive a save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestStoreLatestEmpty(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Latest(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Latest on empty store: %v, want ErrNotExist", err)
	}
}

func TestStoreRejectsCorruptFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sample("run-7")); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write from a crashed run that bypassed rename.
	path := st.Path("run-7")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("run-7"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of truncated file: %v, want ErrCorrupt", err)
	}
	if _, err := st.Latest(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest over truncated file: %v, want ErrCorrupt", err)
	}
}

func TestStoreAfterSaveHook(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	st.AfterSave = func(s *Snapshot) { calls++ }
	for i := 0; i < 3; i++ {
		if err := st.Save(sample("run-h")); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("AfterSave ran %d times, want 3", calls)
	}
}

func TestStoreSanitizesRunID(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hostile := "run/..\\weird id"
	if err := st.Save(sample(hostile)); err != nil {
		t.Fatal(err)
	}
	if got := st.Path(hostile); filepath.Dir(got) != dir {
		t.Fatalf("sanitized path escaped the store dir: %s", got)
	}
	if _, err := st.Load(hostile); err != nil {
		t.Fatalf("load with hostile run ID: %v", err)
	}
}

// TestStoreConcurrentSaves exercises Save/Load/Latest under -race: the
// core checkpointer serializes saves, but the store itself must stay
// safe when a reader inspects mid-run.
func TestStoreConcurrentSaves(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runID := fmt.Sprintf("run-%d", g)
			for i := 0; i < 10; i++ {
				if err := st.Save(sample(runID)); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Load(runID); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := st.Latest(); err != nil {
		t.Fatal(err)
	}
}
