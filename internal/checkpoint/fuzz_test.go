package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// FuzzSnapshotDecode guards the strict-decoder contract — the mirror
// image of the journal's lenient FuzzDecode: whatever bytes a crashed
// or hostile writer left behind, Decode must never panic, and must
// either return a fully verified snapshot or a typed error with a nil
// snapshot. Corrupt and truncated inputs are detected, never silently
// half-loaded; only a torn final delta frame is dropped.
func FuzzSnapshotDecode(f *testing.F) {
	var good bytes.Buffer
	if err := Encode(&good, &Snapshot{RunID: "run-seed", Seed: 1, NumBots: 10}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte(magic + " 1 2 00000000\n{}"))
	f.Add([]byte(magic + " 99 2 00000000\n{}"))
	f.Add([]byte(magic + " 1 -1 00000000\n{}"))
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})
	f.Add([]byte(magic + " 1 1000000000000 00000000\n"))
	f.Add(append(append([]byte{}, good.Bytes()...), "trailing"...))

	// A base followed by deltas, whole, torn in the last delta's
	// header, torn in its payload, and with a byte of a complete delta
	// flipped.
	withDeltas := append([]byte{}, good.Bytes()...)
	var last int
	for _, d := range deltas() {
		frame, err := encodeDelta(d)
		if err != nil {
			f.Fatal(err)
		}
		last = len(withDeltas)
		withDeltas = append(withDeltas, frame...)
	}
	f.Add(withDeltas)
	f.Add(withDeltas[:last+3])
	f.Add(withDeltas[:len(withDeltas)-5])
	flipped := append([]byte{}, withDeltas...)
	flipped[last-4] ^= 0x40
	f.Add(flipped)

	// A base and a delta from an earlier build, each carrying the
	// retired "budget_left" key.
	old, err := os.ReadFile("testdata/budget_left.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, input []byte) {
		s, err := Decode(bytes.NewReader(input))
		switch {
		case err != nil:
			if s != nil {
				t.Fatalf("error %v with non-nil snapshot: half-loaded state", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFutureSchema) {
				t.Fatalf("untyped decode error: %v", err)
			}
		default:
			if s == nil {
				t.Fatal("nil snapshot with nil error")
			}
			if s.RunID == "" {
				t.Fatal("accepted snapshot without run ID")
			}
			// An accepted snapshot must re-encode and re-decode cleanly.
			var buf bytes.Buffer
			if err := Encode(&buf, s); err != nil {
				t.Fatalf("re-encode of accepted snapshot failed: %v", err)
			}
			if _, err := Decode(strings.NewReader(buf.String())); err != nil {
				t.Fatalf("re-decode of accepted snapshot failed: %v", err)
			}
		}
	})
}
