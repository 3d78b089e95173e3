package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JSONLSchema names the span-log line format; the header line of every
// export carries it so decoders can refuse files they don't speak.
const JSONLSchema = "botscan-trace/1"

// Header is the first line of the JSONL span log.
type Header struct {
	Schema string `json:"schema"`
	RunID  string `json:"run_id"`
	Level  string `json:"level"`
	Shards int    `json:"shards"`
}

// WriteJSONL renders the trace as a span log: one header line, then
// one JSON object per op in timeline order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{
		Schema: JSONLSchema,
		RunID:  t.RunID(),
		Level:  t.Level().String(),
		Shards: t.Shards(),
	}); err != nil {
		return err
	}
	for _, op := range t.Ops() {
		if err := enc.Encode(op); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL reads a span log written by WriteJSONL. A missing or
// foreign header is an error; undecodable op lines are skipped and
// counted, matching the journal decoder's lenient posture.
func DecodeJSONL(r io.Reader) (Header, []Op, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var h Header
	if !sc.Scan() {
		return h, nil, 0, fmt.Errorf("trace: empty span log")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Schema != JSONLSchema {
		return h, nil, 0, fmt.Errorf("trace: not a %s span log", JSONLSchema)
	}
	var ops []Op
	skipped := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var op Op
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			skipped++
			continue
		}
		ops = append(ops, op)
	}
	return h, ops, skipped, sc.Err()
}

// chromeEvent is one entry of the Chrome trace-event format ("Trace
// Event Format", the JSON Perfetto and chrome://tracing load). Only
// the fields this exporter uses.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

const chromePID = 1

// chromeTID maps a shard to its Perfetto track: tid 1..N for worker
// shards, tid 0 for the control ("run stages") track.
func chromeTID(shard int32) int {
	if shard == ControlShard {
		return 0
	}
	return int(shard) + 1
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// laneTID spreads one track across extra tracks when its slices
// overlap: lane 0 is the track itself. The executor's four run-level
// stage spans share one wall-clock window on the run track, and any
// spans recorded concurrently without a worker land on that track too.
// Spill lanes keep the export strictly nested.
func laneTID(baseTID, lane int) int { return baseTID*64 + lane }

// assignLanes places one track's duration slices (sorted by start,
// longest-first on ties) into the first lane where each either nests
// inside the lane's open slice or starts after it — the invariant the
// trace-event format requires per track.
func assignLanes(evs []chromeEvent) (lanes int) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Dur > evs[j].Dur
	})
	var open [][]float64 // per lane: stack of open slice ends
	for i := range evs {
		placed := false
		for l := range open {
			st := open[l]
			for len(st) > 0 && evs[i].TS >= st[len(st)-1] {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || evs[i].TS+evs[i].Dur <= st[len(st)-1] {
				open[l] = append(st, evs[i].TS+evs[i].Dur)
				evs[i].TID = laneTID(evs[i].TID, l)
				placed = true
				break
			}
			open[l] = st
		}
		if !placed {
			open = append(open, []float64{evs[i].TS + evs[i].Dur})
			evs[i].TID = laneTID(evs[i].TID, len(open)-1)
		}
	}
	return len(open)
}

// WriteChromeTrace renders the trace as Chrome trace-event JSON: one
// track per executor worker ("shard N"), each bot's stage spans as
// slices with sub-operation slices nested under them (by time
// containment), and the run-level stage spans on their own track above
// the workers'. Open the file in https://ui.perfetto.dev or
// chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	ops := t.Ops()
	slices := make(map[int][]chromeEvent) // base tid -> duration slices
	evs := make([]chromeEvent, 0, len(ops)+t.Shards()+2)

	for _, op := range ops {
		tid := chromeTID(op.Shard)
		name := op.Name
		cat := "op"
		if op.Kind != KindOp {
			cat = "stage"
			if op.BotID != 0 {
				name = fmt.Sprintf("%s #%d", op.Stage, op.BotID)
			}
		}
		args := map[string]any{}
		if op.BotID != 0 {
			args["bot_id"] = op.BotID
		}
		if op.Bot != "" {
			args["bot"] = op.Bot
		}
		if op.Detail != "" {
			args["detail"] = op.Detail
		}
		if len(args) == 0 {
			args = nil
		}
		slices[tid] = append(slices[tid], chromeEvent{
			Name: name, Cat: cat, Phase: "X",
			TS: usOf(op.StartNS), Dur: usOf(op.DurNS),
			PID: chromePID, TID: tid, Args: args,
		})
	}

	// Track naming metadata: the run track, then each shard, each with
	// any spill lanes its overlapping slices needed.
	meta := []chromeEvent{{
		Name: "process_name", Phase: "M", PID: chromePID, TID: laneTID(0, 0),
		Args: map[string]any{"name": "botscan pipeline " + t.RunID()},
	}}
	trackName := func(baseTID int) string {
		if baseTID == 0 {
			return "run stages"
		}
		return fmt.Sprintf("shard %d", baseTID-1)
	}
	baseTIDs := make([]int, 0, len(slices)+1)
	seen := map[int]bool{}
	for bt := range slices {
		baseTIDs = append(baseTIDs, bt)
		seen[bt] = true
	}
	for s := -1; s < t.Shards(); s++ {
		if bt := chromeTID(int32(s)); !seen[bt] {
			baseTIDs = append(baseTIDs, bt)
		}
	}
	sort.Ints(baseTIDs)
	for _, bt := range baseTIDs {
		lanes := assignLanes(slices[bt])
		if lanes == 0 {
			lanes = 1
		}
		for l := 0; l < lanes; l++ {
			name := trackName(bt)
			if l > 0 {
				name = fmt.Sprintf("%s (lane %d)", name, l)
			}
			meta = append(meta, chromeEvent{
				Name: "thread_name", Phase: "M", PID: chromePID, TID: laneTID(bt, l),
				Args: map[string]any{"name": name},
			})
		}
		evs = append(evs, slices[bt]...)
	}
	evs = append(meta, evs...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"run_id": t.RunID(),
			"level":  t.Level().String(),
		},
	})
}

// validPhases is the subset of the trace event format
// ValidateChromeTrace accepts: what this exporter emits (X and M), plus
// the instants and counters that earlier exports carried.
var validPhases = map[string]bool{"X": true, "M": true, "i": true, "C": true}

// ValidateChromeTrace checks that data is well-formed Chrome
// trace-event JSON as Perfetto's legacy JSON importer requires:
// a traceEvents array whose entries all carry a name and a known
// phase, duration events with non-negative ts/dur, and instants with a
// valid scope. It is the schema check the format tests (and bench
// harness) run on every export.
func ValidateChromeTrace(data []byte) error {
	var doc chromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: chrome trace not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: chrome trace has no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		if !validPhases[ev.Phase] {
			return fmt.Errorf("trace: event %d (%s): unknown phase %q", i, ev.Name, ev.Phase)
		}
		switch ev.Phase {
		case "X":
			if ev.TS < 0 || ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s): negative ts/dur", i, ev.Name)
			}
		case "i":
			if ev.Scope != "" && ev.Scope != "t" && ev.Scope != "p" && ev.Scope != "g" {
				return fmt.Errorf("trace: event %d (%s): bad instant scope %q", i, ev.Name, ev.Scope)
			}
		case "M":
			if ev.Args == nil {
				return fmt.Errorf("trace: event %d (%s): metadata without args", i, ev.Name)
			}
		}
	}
	// Slices on one track must nest by time containment — Perfetto
	// rejects partially overlapping siblings. Verify per track.
	type open struct{ end float64 }
	byTrack := map[int][]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			byTrack[ev.TID] = append(byTrack[ev.TID], ev)
		}
	}
	for tid, evs := range byTrack {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].TS != evs[j].TS {
				return evs[i].TS < evs[j].TS
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []open
		for _, ev := range evs {
			for len(stack) > 0 && ev.TS >= stack[len(stack)-1].end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && ev.TS+ev.Dur > stack[len(stack)-1].end+1 {
				// +1µs of slack: ends recorded by different clock reads
				// may disagree by the timer granularity.
				return fmt.Errorf("trace: track %d: slice %q [%.1f,%.1f] overlaps its parent end %.1f",
					tid, ev.Name, ev.TS, ev.TS+ev.Dur, stack[len(stack)-1].end)
			}
			stack = append(stack, open{end: ev.TS + ev.Dur})
		}
	}
	return nil
}
