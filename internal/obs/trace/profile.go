package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ProfileSchema names the profile.json format, so a reader can refuse
// a file written in another one.
const ProfileSchema = "botscan-profile/1"

// BotProfile is one bot's cost: total span time and the per-stage
// split, plus the shard that executed it.
type BotProfile struct {
	BotID   int32              `json:"bot_id"`
	Bot     string             `json:"bot,omitempty"`
	Shard   int32              `json:"shard"`
	TotalMS float64            `json:"total_ms"`
	StageMS map[string]float64 `json:"stage_ms"`
}

// ShardTimeline is one worker's load over the run: the bot-stage spans
// it recorded and their summed time.
type ShardTimeline struct {
	Shard  int32   `json:"shard"`
	Items  int     `json:"items"`
	BusyMS float64 `json:"busy_ms"`
}

// Profile is the timing artifact a traced run emits: per-bot per-stage
// durations plus each worker's load.
type Profile struct {
	Schema  string             `json:"schema"`
	RunID   string             `json:"run_id"`
	Level   string             `json:"level"`
	Shards  int                `json:"shards"`
	WallMS  float64            `json:"wall_ms"`
	Stages  map[string]float64 `json:"stages,omitempty"`
	Bots    []BotProfile       `json:"bots"`
	ShardTL []ShardTimeline    `json:"shard_timeline,omitempty"`
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// BuildProfile assembles a Profile from a finished tracer.
func (t *Tracer) BuildProfile() Profile {
	p := Profile{
		Schema: ProfileSchema, RunID: t.RunID(), Level: t.Level().String(),
		Shards: t.Shards(), Stages: map[string]float64{},
	}
	bots := map[int32]*BotProfile{}
	tl := map[int32]*ShardTimeline{}
	var wallNS int64
	for _, op := range t.Ops() {
		if op.EndNS() > wallNS {
			wallNS = op.EndNS()
		}
		switch op.Kind {
		case KindRun:
			p.Stages[op.Stage] += msOf(op.DurNS)
		case KindStage:
			b := bots[op.BotID]
			if b == nil {
				b = &BotProfile{BotID: op.BotID, Bot: op.Bot, Shard: op.Shard, StageMS: map[string]float64{}}
				bots[op.BotID] = b
			}
			b.StageMS[op.Stage] += msOf(op.DurNS)
			b.TotalMS += msOf(op.DurNS)
			// Report the shard that did the most recent stage; bots
			// touched by several workers keep the last one seen.
			b.Shard = op.Shard
			if op.Shard >= 0 {
				e := tl[op.Shard]
				if e == nil {
					e = &ShardTimeline{Shard: op.Shard}
					tl[op.Shard] = e
				}
				e.Items++
				e.BusyMS += msOf(op.DurNS)
			}
		}
	}
	p.WallMS = msOf(wallNS)
	for _, b := range bots {
		p.Bots = append(p.Bots, *b)
	}
	sort.Slice(p.Bots, func(i, j int) bool { return p.Bots[i].BotID < p.Bots[j].BotID })
	for _, e := range tl {
		p.ShardTL = append(p.ShardTL, *e)
	}
	sort.Slice(p.ShardTL, func(i, j int) bool { return p.ShardTL[i].Shard < p.ShardTL[j].Shard })
	return p
}

// WriteProfile renders the profile as indented JSON.
func WriteProfile(w io.Writer, p Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// DecodeProfile reads a profile.json, refusing foreign schemas.
func DecodeProfile(r io.Reader) (Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return p, fmt.Errorf("trace: profile not valid JSON: %w", err)
	}
	if p.Schema != ProfileSchema {
		return p, fmt.Errorf("trace: profile schema %q, want %s", p.Schema, ProfileSchema)
	}
	return p, nil
}
