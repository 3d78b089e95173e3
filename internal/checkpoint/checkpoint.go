// Package checkpoint persists pipeline progress as crash-safe
// snapshots so a run killed mid-crawl can resume instead of repeating
// days of settled work. A Snapshot records, keyed by run ID, everything
// the pipeline has settled so far: the discovery order, per-bot collect
// records, per-link code analyses, per-bot honeypot verdicts, and every
// stage's quarantine ledger.
//
// Each run keeps one file: a base frame followed by zero or more delta
// frames, each a self-describing header and one JSON payload:
//
//	ckptv1 <schema> <payload-len> <crc32c-hex>\n<payload>   base
//	ckptd <payload-len> <crc32c-hex>\n<payload>             delta
//
// The base is a whole Snapshot; a delta is a Snapshot holding only the
// work settled since the previous write. Decode verifies every frame
// and merges the deltas into the base in file order, so readers always
// see one merged snapshot.
//
// Writes come in two kinds. Save encodes the whole snapshot to a temp
// file in the store directory, fsyncs it and renames it into place, so
// a crash mid-write leaves the previous file intact; it also drops every
// delta the file held. Append adds one delta frame to the end of the
// file in a single write and fsyncs it, so a periodic write costs the
// work settled since the last one rather than the whole run. A writer
// makes its run's first write and its final write with Save, and every
// write between them with Append.
//
// Decoding is strict, unlike the journal's lenient decoder: a corrupt
// snapshot is an error, never a silently half-loaded state, because
// resuming from partial state would silently re-run or drop work. The
// one exception is a torn tail: an Append cut short by a crash leaves
// an unfinished delta frame at the end of the file — an unterminated
// header that is a prefix of "ckptd " or starts with it, or a complete
// delta header whose payload is short — and Decode drops it, since
// that delta's write never completed. Any other damage, a bad checksum
// in a complete final frame included, is ErrCorrupt.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

// SchemaVersion is stamped in the header and payload of every snapshot
// this build writes. Decode rejects snapshots from future schemas
// rather than guessing at their shape. Schema 2 added delta frames, so
// a build that knows only schema 1 refuses a file that may carry them
// as ErrFutureSchema; schema-1 files still load.
const SchemaVersion = 2

// magic opens a base frame's header, deltaMagic a delta frame's.
const (
	magic      = "ckptv1"
	deltaMagic = "ckptd"
)

// castagnoli is the CRC-32C table every frame's checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a snapshot that failed structural validation —
// truncated payload, checksum mismatch, trailing garbage, or a
// malformed header. A corrupt snapshot is never partially loaded.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrFutureSchema marks a snapshot written by a newer build.
var ErrFutureSchema = errors.New("checkpoint: snapshot from a future schema")

// QEntry is one quarantine-ledger line: a bot (or bot-owned link) whose
// stage work failed on infrastructure errors in the checkpointed run.
// The error survives as text only — chains do not round-trip disk.
type QEntry struct {
	BotID int    `json:"bot_id"`
	Name  string `json:"name,omitempty"`
	Link  string `json:"link,omitempty"`
	Err   string `json:"err"`
}

// Snapshot is one pipeline progress record. Every field is settled
// work: replaying a snapshot must never re-execute any (bot, stage)
// pair it contains.
type Snapshot struct {
	Schema int    `json:"schema"`
	RunID  string `json:"run_id"`

	// Ecosystem identity: resuming against a differently generated
	// population would mix incompatible work.
	Seed           int64 `json:"seed"`
	NumBots        int   `json:"num_bots"`
	HoneypotSample int   `json:"honeypot_sample"`

	// Completed marks a snapshot written after the full pipeline
	// finished; resuming it skips every stage.
	Completed bool `json:"completed,omitempty"`

	// BotIDs is the full listing discovery order, recorded once
	// pagination completed without error; nil means pagination must be
	// re-walked on resume.
	BotIDs []int `json:"bot_ids,omitempty"`

	// Collect stage: settled records and quarantines.
	Records           []*scraper.Record `json:"records,omitempty"`
	CollectQuarantine []QEntry          `json:"collect_quarantine,omitempty"`

	// Code-analysis stage, keyed by unique link (the stage's own dedup
	// unit). CodeLinkErrs records links abandoned after retries.
	CodeLinks    map[string]*codeanalysis.RepoAnalysis `json:"code_links,omitempty"`
	CodeLinkErrs map[string]string                     `json:"code_link_errs,omitempty"`

	// Honeypot stage: settled verdicts and quarantines. Restored
	// verdicts carry no Runner (it is process state, not evidence).
	Verdicts           []*honeypot.Verdict `json:"verdicts,omitempty"`
	HoneypotQuarantine []QEntry            `json:"honeypot_quarantine,omitempty"`
}

// Settled reports how many (bot, stage) pairs the snapshot has settled
// across all stages — the unit the resume accounting is verified in.
func (s *Snapshot) Settled() int {
	n := len(s.Records) + len(s.CollectQuarantine) +
		len(s.Verdicts) + len(s.HoneypotQuarantine)
	// Code work settles per unique link, not per bot: bots sharing a
	// link settle together when the link does.
	n += len(s.CodeLinks) + len(s.CodeLinkErrs)
	return n
}

// merge folds a decoded delta into s. It is the one place the merge
// rule lives: slices append, maps take the delta's entries key by key,
// and BotIDs, recorded once when pagination settles, is set by the
// first frame that carries it. A delta's identity fields (run ID, seed,
// population, Completed) are ignored: the base carries the run's.
func (s *Snapshot) merge(d *Snapshot) {
	if len(s.BotIDs) == 0 {
		s.BotIDs = d.BotIDs
	}
	s.Records = append(s.Records, d.Records...)
	s.CollectQuarantine = append(s.CollectQuarantine, d.CollectQuarantine...)
	s.CodeLinks = mergeMap(s.CodeLinks, d.CodeLinks)
	s.CodeLinkErrs = mergeMap(s.CodeLinkErrs, d.CodeLinkErrs)
	s.Verdicts = append(s.Verdicts, d.Verdicts...)
	s.HoneypotQuarantine = append(s.HoneypotQuarantine, d.HoneypotQuarantine...)
}

func mergeMap[V any](dst, src map[string]V) map[string]V {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]V, len(src))
	}
	maps.Copy(dst, src)
	return dst
}

// Encode writes the snapshot to w as a base frame, stamped with this
// build's SchemaVersion:
//
//	ckptv1 <schema> <payload-len> <crc32c-hex>\n
//	<payload JSON>
func Encode(w io.Writer, s *Snapshot) error {
	s.Schema = SchemaVersion
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s %d %d %08x\n", magic, s.Schema, len(payload), crc32.Checksum(payload, castagnoli)); err != nil {
		return fmt.Errorf("checkpoint: encode header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	return nil
}

// encodeDelta returns d as one delta frame:
//
//	ckptd <payload-len> <crc32c-hex>\n
//	<payload JSON>
func encodeDelta(d *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode delta: %w", err)
	}
	frame := fmt.Appendf(make([]byte, 0, len(payload)+32), "%s %d %08x\n", deltaMagic, len(payload), crc32.Checksum(payload, castagnoli))
	return append(frame, payload...), nil
}

// maxPayload bounds a frame's payload during decoding so a corrupt
// header cannot demand an absurd allocation.
const maxPayload = 1 << 30

// Decode reads and verifies a snapshot file: the base frame, then each
// delta frame merged in order. Any structural damage — short or
// malformed header, a base payload shorter than declared, bytes after
// a frame that cannot begin a delta, checksum mismatch, invalid JSON —
// returns ErrCorrupt; a schema newer than this build returns
// ErrFutureSchema. The one exception is a torn final delta, which is
// dropped (see the package doc). On error the returned snapshot is
// always nil: no partial loads.
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: unterminated header", ErrCorrupt)
	}
	var gotMagic string
	var schema, length int
	var sum uint32
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %d %08x", &gotMagic, &schema, &length, &sum); err != nil || gotMagic != magic {
		return nil, fmt.Errorf("%w: malformed header %q", ErrCorrupt, strings.TrimSpace(header))
	}
	if schema > SchemaVersion {
		return nil, fmt.Errorf("%w: schema %d > %d", ErrFutureSchema, schema, SchemaVersion)
	}
	payload, complete, err := readPayload(br, length)
	if err != nil {
		return nil, err
	}
	if !complete {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	var s Snapshot
	if err := unmarshalFrame(payload, sum, &s); err != nil {
		return nil, err
	}
	if s.RunID == "" {
		return nil, fmt.Errorf("%w: snapshot without run ID", ErrCorrupt)
	}
	for {
		d, err := decodeDelta(br)
		if err != nil {
			return nil, err
		}
		if d == nil {
			return &s, nil
		}
		s.merge(d)
	}
}

// decodeDelta reads the next delta frame. It returns nil, nil at the
// end of the input, a torn final frame included.
func decodeDelta(br *bufio.Reader) (*Snapshot, error) {
	header, err := br.ReadString('\n')
	if err == io.EOF {
		if header == "" || strings.HasPrefix(deltaMagic+" ", header) || strings.HasPrefix(header, deltaMagic+" ") {
			return nil, nil // the end, or a header torn mid-write
		}
		return nil, fmt.Errorf("%w: trailing data after payload", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	f := strings.Split(strings.TrimSuffix(header, "\n"), " ")
	if len(f) != 3 || f[0] != deltaMagic || len(f[2]) != 8 {
		return nil, fmt.Errorf("%w: malformed delta header %q", ErrCorrupt, strings.TrimSpace(header))
	}
	length, lerr := strconv.Atoi(f[1])
	sum, serr := strconv.ParseUint(f[2], 16, 32)
	if lerr != nil || serr != nil {
		return nil, fmt.Errorf("%w: malformed delta header %q", ErrCorrupt, strings.TrimSpace(header))
	}
	payload, complete, err := readPayload(br, length)
	if err != nil || !complete {
		return nil, err // a short payload is a delta torn mid-write
	}
	var d Snapshot
	if err := unmarshalFrame(payload, uint32(sum), &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// readPayload reads a frame's declared length of payload; complete is
// false when the input ends first. The buffer grows as bytes arrive,
// so a header that overstates its length cannot force a large
// allocation.
func readPayload(br *bufio.Reader, length int) (payload []byte, complete bool, err error) {
	if length < 0 || length > maxPayload {
		return nil, false, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	var buf bytes.Buffer
	buf.Grow(min(length, 1<<20))
	n, err := io.CopyN(&buf, br, int64(length))
	if err != nil && err != io.EOF {
		return nil, false, fmt.Errorf("checkpoint: read: %w", err)
	}
	return buf.Bytes(), n == int64(length), nil
}

// unmarshalFrame verifies a complete frame's checksum and decodes its
// payload into s.
func unmarshalFrame(payload []byte, sum uint32, s *Snapshot) error {
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, sum)
	}
	if err := json.Unmarshal(payload, s); err != nil {
		return fmt.Errorf("%w: payload not valid JSON: %v", ErrCorrupt, err)
	}
	return nil
}

// Store keeps snapshots in one directory, one file per run ID.
type Store struct {
	dir string

	// AfterSave, when set, runs after every successful write, once it
	// is durable: after a Save it receives the whole snapshot, after an
	// Append the delta. It is the chaos harness's hook for injecting
	// SIGKILL-style aborts exactly at checkpoint boundaries (see
	// faults.AbortInjector).
	AfterSave func(*Snapshot)
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the snapshot file path for a run ID.
func (st *Store) Path(runID string) string {
	return filepath.Join(st.dir, sanitize(runID)+".ckpt")
}

// sanitize maps a run ID onto a safe filename stem.
func sanitize(runID string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, runID)
}

// Save writes the snapshot atomically: encode to a temp file in the
// store directory, fsync, then rename into place over any previous
// file for the same run, its deltas included. A crash at any point
// leaves either the old file or the new one — never a torn file.
func (st *Store) Save(s *Snapshot) error {
	if s.RunID == "" {
		return errors.New("checkpoint: snapshot without run ID")
	}
	tmp, err := os.CreateTemp(st.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := Encode(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, st.Path(s.RunID)); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if st.AfterSave != nil {
		st.AfterSave(s)
	}
	return nil
}

// Append adds delta to the end of the run's file as one delta frame,
// written in a single call and fsynced. The file must already hold a
// base from Save; Append never creates one. A crash mid-append leaves
// a torn final frame, which Decode drops.
func (st *Store) Append(runID string, delta *Snapshot) error {
	frame, err := encodeDelta(delta)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(st.Path(runID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if st.AfterSave != nil {
		st.AfterSave(delta)
	}
	return nil
}

// Load reads and verifies the snapshot for a run ID.
func (st *Store) Load(runID string) (*Snapshot, error) {
	f, err := os.Open(st.Path(runID))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", runID, err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", runID, err)
	}
	return s, nil
}

// Latest loads the most recently written snapshot in the store
// (newest modification time, which an Append moves too; ties broken by
// name). It returns
// os.ErrNotExist (wrapped) when the store holds no snapshots.
func (st *Store) Latest() (*Snapshot, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: latest: %w", err)
	}
	best := ""
	var bestMod int64 = -1
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") || strings.HasPrefix(name, ".") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		mod := info.ModTime().UnixNano()
		if mod > bestMod || (mod == bestMod && name > best) {
			bestMod, best = mod, name
		}
	}
	if best == "" {
		return nil, fmt.Errorf("checkpoint: latest: %w", os.ErrNotExist)
	}
	f, err := os.Open(filepath.Join(st.dir, best))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: latest: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: latest %s: %w", best, err)
	}
	return s, nil
}
