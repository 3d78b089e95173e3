// Package checkpoint persists pipeline progress as crash-safe
// snapshots so a run killed mid-crawl can resume instead of repeating
// days of settled work. A Snapshot records, keyed by run ID, everything
// the pipeline has settled so far: the discovery order, per-bot collect
// records, per-link code analyses, per-bot honeypot verdicts, every
// stage's quarantine ledger, and the per-stage retry-budget remainders.
//
// Snapshots are written atomically — encode to a temp file in the
// store directory, fsync, rename into place — so a crash mid-write
// leaves the previous snapshot intact. The on-disk format is a
// self-describing header (schema version, payload length, CRC-32C)
// followed by one JSON payload; Decode verifies all three and fails on
// any mismatch. Unlike the journal's lenient decoder, snapshot decoding
// is strict: a corrupt or truncated snapshot is an error, never a
// silently half-loaded state, because resuming from partial state would
// silently re-run or drop work.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codeanalysis"
	"repro/internal/honeypot"
	"repro/internal/scraper"
)

// SchemaVersion is stamped in the header and payload of every snapshot
// this build writes. Decode rejects snapshots from future schemas
// rather than guessing at their shape.
const SchemaVersion = 1

// magic opens every snapshot header line.
const magic = "ckptv1"

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

	// BudgetLeft is the per-stage retry-budget remainder at write time,
	// restored on resume so a resumed run cannot out-retry an
	// uninterrupted one. Stages absent from the map ran unbudgeted.
	BudgetLeft map[string]int `json:"budget_left,omitempty"`
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

// Encode writes the snapshot to w in the checked on-disk format:
//
//	ckptv1 <schema> <payload-len> <crc32c-hex>\n
//	<payload JSON>
func Encode(w io.Writer, s *Snapshot) error {
	if s.Schema == 0 {
		s.Schema = SchemaVersion
	}
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	if _, err := fmt.Fprintf(w, "%s %d %d %08x\n", magic, s.Schema, len(payload), sum); err != nil {
		return fmt.Errorf("checkpoint: encode header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	return nil
}

// maxPayload bounds a snapshot payload during decoding so a corrupt
// header cannot demand an absurd allocation.
const maxPayload = 1 << 30

// Decode reads and verifies one snapshot. Any structural damage —
// short or malformed header, payload shorter or longer than declared,
// checksum mismatch, invalid JSON — returns ErrCorrupt; a schema newer
// than this build returns ErrFutureSchema. On error the returned
// snapshot is always nil: no partial loads.
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
	if length < 0 || length > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after payload", ErrCorrupt)
	}
	if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, sum)
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("%w: payload not valid JSON: %v", ErrCorrupt, err)
	}
	if s.RunID == "" {
		return nil, fmt.Errorf("%w: snapshot without run ID", ErrCorrupt)
	}
	return &s, nil
}

// Store keeps snapshots in one directory, one file per run ID.
type Store struct {
	dir string

	// AfterSave, when set, runs after every successful Save — the
	// chaos harness's hook for injecting SIGKILL-style aborts exactly
	// at checkpoint boundaries (see faults.AbortInjector).
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
// snapshot for the same run. A crash at any point leaves either the
// old snapshot or the new one — never a torn file.
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
// (newest modification time; ties broken by name). It returns
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
