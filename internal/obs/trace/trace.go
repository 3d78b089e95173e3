// Package trace is the pipeline's one span model: a run-level span per
// stage, one span per bot per stage, and sub-operation spans (page
// fetch, retry attempt, captcha solve, invite redirect, policy audit,
// honeypot settle, codehost fetch), correlated with the run/bot/
// experiment IDs the journal carries. The run report's stage table,
// the journal's stage_completed seconds, the Perfetto export and
// profile.json all read it.
//
// Completed operations land in per-shard append-only buffers, sharded
// by the scheduler worker that produced them. A worker only ever
// touches its own shard's mutex, so the collection path is
// contention-free at full paper scale and bot-level tracing costs low
// single-digit percent (BenchmarkShardedScaleSmoke measures each
// level). Each buffer also keeps per-stage totals (bot-stage span
// count and summed time), which is all a bot-stage span leaves behind
// at LevelOff.
//
// Ops are recorded only when they finish, which keeps the hot path to
// one buffered append and makes the buffers naturally crash-truncated:
// whatever was settled is in the buffer, nothing is half-written.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Level selects how much the tracer records.
type Level int

const (
	// LevelOff keeps what the run's stage table needs and nothing
	// per bot: the run-level stage spans and per-stage totals.
	LevelOff Level = iota
	// LevelBots additionally records one span per bot per stage plus
	// scheduler events (steals, queue depth).
	LevelBots
	// LevelFull additionally records sub-operation spans inside each
	// bot-stage span (page fetches, retries, captcha solves, ...).
	LevelFull
)

// ParseLevel maps the CLI spelling to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return LevelOff, nil
	case "bots", "bot":
		return LevelBots, nil
	case "full", "ops":
		return LevelFull, nil
	}
	return LevelOff, fmt.Errorf("trace: unknown level %q (want off, bots, or full)", s)
}

func (l Level) String() string {
	switch l {
	case LevelBots:
		return "bots"
	case LevelFull:
		return "full"
	}
	return "off"
}

// Kind classifies a recorded operation.
type Kind uint8

const (
	// KindStage is one bot's trip through one pipeline stage.
	KindStage Kind = iota
	// KindOp is a sub-operation inside a stage (page_fetch, ...).
	KindOp
	// KindInstant is a point event (a steal, a stage boundary).
	KindInstant
	// KindCounter is a sampled value (shard queue depth).
	KindCounter
	// KindRun is a run-level stage span on the control track: the
	// stage table's Wall column and the Perfetto run track.
	KindRun
)

var kindNames = [...]string{"stage", "op", "instant", "counter", "run"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the names MarshalJSON emits.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if s == `"`+n+`"` {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown op kind %s", s)
}

// ControlShard marks ops that belong to no worker shard: run-level
// stage spans and anything recorded without a scheduler worker, such
// as listing pagination. The tracer maps them onto an extra buffer and
// exports them as the "run" track.
const ControlShard = -1

// Op is one completed operation. Times are nanoseconds since the
// tracer started, so ops from every shard share one clock.
type Op struct {
	Shard   int32  `json:"shard"`
	Kind    Kind   `json:"kind"`
	Stage   string `json:"stage"`
	Name    string `json:"name"`
	BotID   int32  `json:"bot_id,omitempty"`
	Bot     string `json:"bot,omitempty"`
	Detail  string `json:"detail,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Value   int64  `json:"value,omitempty"`
}

// EndNS is the op's end offset (start for instants and counters).
func (o Op) EndNS() int64 { return o.StartNS + o.DurNS }

// shardBuf is one shard's append-only op buffer plus its per-stage
// totals. The pad keeps hot shard buffers off each other's cache lines.
type shardBuf struct {
	mu     sync.Mutex
	ops    []Op
	totals []stageTotal
	_      [64]byte
}

// stageTotal is one stage's bot-stage span count and summed duration
// within a shard buffer.
type stageTotal struct {
	stage  string
	items  int
	busyNS int64
}

// fold adds one bot-stage span to the buffer's totals. A run has four
// stages, so a linear scan beats a map.
func (b *shardBuf) fold(stage string, durNS int64) {
	for i := range b.totals {
		if b.totals[i].stage == stage {
			b.totals[i].items++
			b.totals[i].busyNS += durNS
			return
		}
	}
	b.totals = append(b.totals, stageTotal{stage: stage, items: 1, busyNS: durNS})
}

// Tracer collects ops into per-shard buffers. All methods are safe for
// concurrent use and safe on a nil receiver (recording nothing), so
// instrumented code never checks whether tracing is enabled.
type Tracer struct {
	runID string
	level Level
	start time.Time

	// bufs has one entry per worker shard plus one control buffer at
	// the end for ControlShard ops.
	bufs []shardBuf

	// now is the clock, overridable by tests for deterministic ops.
	now func() time.Time
}

// New starts a tracer with the given number of worker shards (clamped
// to at least 1). runID is the same correlation identifier the journal
// stamps on every event.
func New(runID string, shards int, level Level) *Tracer {
	if shards < 1 {
		shards = 1
	}
	return &Tracer{
		runID: runID,
		level: level,
		start: time.Now(),
		bufs:  make([]shardBuf, shards+1),
		now:   time.Now,
	}
}

// RunID returns the run correlation identifier.
func (t *Tracer) RunID() string {
	if t == nil {
		return ""
	}
	return t.runID
}

// Level returns the configured recording level (LevelOff when nil).
func (t *Tracer) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.level
}

// Shards returns the worker-shard count (0 when nil).
func (t *Tracer) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.bufs) - 1
}

// sinceNS is the op clock: nanoseconds since the tracer started.
func (t *Tracer) sinceNS() int64 { return t.now().Sub(t.start).Nanoseconds() }

// bufIndex maps an op's shard onto a buffer index: a worker shard is
// its own buffer, and anything else lands in the control buffer at
// index Shards().
func (t *Tracer) bufIndex(shard int32) int {
	if n := len(t.bufs) - 1; shard < 0 || int(shard) >= n {
		return n
	}
	return int(shard)
}

// record appends one finished op to its shard buffer, stamping the
// buffer it landed in as the op's shard. A bot-stage span also folds
// into the buffer's per-stage totals; below LevelBots that fold is all
// it leaves behind.
func (t *Tracer) record(op Op) {
	idx := t.bufIndex(op.Shard)
	op.Shard = ControlShard
	if idx < len(t.bufs)-1 {
		op.Shard = int32(idx)
	}
	buf := &t.bufs[idx]
	buf.mu.Lock()
	if op.Kind == KindStage {
		buf.fold(op.Stage, op.DurNS)
	}
	if op.Kind != KindStage || t.level >= LevelBots {
		buf.ops = append(buf.ops, op)
	}
	buf.mu.Unlock()
}

// Instant records a point event on a shard track (level >= bots).
func (t *Tracer) Instant(shard int, stage, name, detail string, value int64) {
	if t == nil || t.level < LevelBots {
		return
	}
	t.record(Op{
		Shard: int32(shard), Kind: KindInstant, Stage: stage, Name: name,
		Detail: detail, StartNS: t.sinceNS(), Value: value,
	})
}

// Sample records a counter value on a shard track (level >= bots).
func (t *Tracer) Sample(shard int, stage, name string, value int64) {
	if t == nil || t.level < LevelBots {
		return
	}
	t.record(Op{
		Shard: int32(shard), Kind: KindCounter, Stage: stage, Name: name,
		StartNS: t.sinceNS(), Value: value,
	})
}

// StartRunSpan opens a run-level stage span on the control track and
// returns its closer, which records the span and reports its wall time.
// Run spans are kept at every level.
func (t *Tracer) StartRunSpan(stage string) func() time.Duration {
	if t == nil {
		return func() time.Duration { return 0 }
	}
	start := t.sinceNS()
	return func() time.Duration {
		dur := t.sinceNS() - start
		t.record(Op{
			Shard: ControlShard, Kind: KindRun, Stage: stage, Name: stage,
			StartNS: start, DurNS: dur,
		})
		return time.Duration(dur)
	}
}

// StageTiming is one row of the run's stage table: a run-level stage
// span's wall time beside the count and summed time of the bot-stage
// spans recorded under the same stage.
type StageTiming struct {
	Stage  string
	WallNS int64
	BusyNS int64
	Items  int
}

// StageTimings returns one row per run-level stage span, in start
// order. Busy and Items come from the per-shard totals, so the rows
// are the same at every level.
func (t *Tracer) StageTimings() []StageTiming {
	if t == nil {
		return nil
	}
	totals := map[string]StageTiming{}
	var runs []Op
	for i := range t.bufs {
		b := &t.bufs[i]
		b.mu.Lock()
		for _, st := range b.totals {
			row := totals[st.stage]
			row.Items += st.items
			row.BusyNS += st.busyNS
			totals[st.stage] = row
		}
		if i == len(t.bufs)-1 {
			for _, op := range b.ops {
				if op.Kind == KindRun {
					runs = append(runs, op)
				}
			}
		}
		b.mu.Unlock()
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].StartNS < runs[j].StartNS })
	rows := make([]StageTiming, 0, len(runs))
	for _, op := range runs {
		row := totals[op.Stage]
		row.Stage, row.WallNS = op.Stage, op.DurNS
		rows = append(rows, row)
	}
	return rows
}

// Len returns the total number of recorded ops.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		n += len(t.bufs[i].ops)
		t.bufs[i].mu.Unlock()
	}
	return n
}

// Ops snapshots every shard buffer, merged and sorted by start time
// (ties broken by shard) so consumers see one coherent timeline.
func (t *Tracer) Ops() []Op {
	if t == nil {
		return nil
	}
	out := make([]Op, 0, t.Len())
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		out = append(out, t.bufs[i].ops...)
		t.bufs[i].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// noop is the shared closer for disabled spans, so gated StartX calls
// allocate nothing.
func noop() {}
