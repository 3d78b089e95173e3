// Package invariant cross-reconciles a soak run's artifacts after the
// fact: the pipeline results, the event journal, the tamper-evident
// ledger and its external anchor, the checkpoint store, the obs
// counters, and the load generator's delivery accounting must all tell
// the same story. Each invariant is a named check over serialized
// inputs (soak.json in the artifact directory), so the same verdict can
// be recomputed post-hoc from the directory alone — and a deliberately
// corrupted artifact fails with the violated invariant named.
package invariant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// InputsSchema versions the serialized soak.json.
const InputsSchema = 1

// Inputs is everything the checker needs, serializable so the verdict
// is recomputable from the artifact directory alone. File references
// (JournalFile, CheckpointDir) are relative to that directory.
type Inputs struct {
	Schema       int    `json:"soak_schema"`
	ScheduleName string `json:"schedule"`
	RunID        string `json:"run_id"`

	JournalFile   string `json:"journal_file"`
	CheckpointDir string `json:"checkpoint_dir"`

	// ExpectedSegments is kills fired + 1: every crash/resume boundary
	// must appear in the ledger as exactly one anchor record.
	ExpectedSegments int `json:"expected_segments"`

	// Pipeline outcome.
	Listed               []int  `json:"listed_bots"`
	RecordBots           []int  `json:"record_bots"`
	CollectQuarantined   []int  `json:"collect_quarantined"`
	CollectStageError    string `json:"collect_stage_error,omitempty"`
	HoneypotSampleTarget int    `json:"honeypot_sample_target"`
	VerdictBots          []int  `json:"verdict_bots"`
	HoneypotQuarantined  []int  `json:"honeypot_quarantined"`
	HoneypotStageError   string `json:"honeypot_stage_error,omitempty"`

	// Resumes holds, per kill, the settled sets of the snapshot the run
	// resumed from — captured by the conductor at the crash boundary,
	// the ground truth the zero-re-execution check replays the journal
	// against.
	Resumes []SegmentBaseline `json:"resumes,omitempty"`

	// Counters is the shared obs registry's final counter snapshot.
	Counters map[string]int64 `json:"counters"`

	// Loadgen is the load generator's own accounting for the same run.
	Loadgen *loadgen.Result `json:"loadgen,omitempty"`
}

// SegmentBaseline is the settled work a resumed segment inherited from
// its checkpoint: bot IDs whose collect (and honeypot) stages were
// already durable when the segment started. The resumed segment must
// skip all of them.
type SegmentBaseline struct {
	SettledCollect  []int `json:"settled_collect"`
	SettledHoneypot []int `json:"settled_honeypot"`
}

// Check is one invariant's verdict. Artifact names the first
// inconsistent artifact when the invariant is violated.
type Check struct {
	Name     string `json:"name"`
	Artifact string `json:"artifact"`
	OK       bool   `json:"ok"`
	Detail   string `json:"detail"`
}

// Report is the ordered outcome of every invariant.
type Report struct {
	Checks []Check `json:"checks"`
	OK     bool    `json:"ok"`
	// First is the first violated invariant's "name: artifact: detail",
	// empty when everything reconciles.
	First string `json:"first_violation,omitempty"`
}

func (r *Report) add(c Check) {
	r.Checks = append(r.Checks, c)
	if !c.OK && r.First == "" {
		r.First = fmt.Sprintf("invariant %s violated: artifact %s: %s", c.Name, c.Artifact, c.Detail)
	}
}

// WriteInputs serializes the inputs as soak.json in dir.
func WriteInputs(dir string, in Inputs) error {
	in.Schema = InputsSchema
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "soak.json"), append(data, '\n'), 0o644)
}

// CheckDir re-runs every invariant from an artifact directory written
// by a prior soak (soak.json + journal + checkpoints).
func CheckDir(dir string) (Report, error) {
	data, err := os.ReadFile(filepath.Join(dir, "soak.json"))
	if err != nil {
		return Report{}, fmt.Errorf("invariant: %w", err)
	}
	var in Inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return Report{}, fmt.Errorf("invariant: soak.json: %w", err)
	}
	if in.Schema > InputsSchema {
		return Report{}, fmt.Errorf("invariant: soak.json schema %d is newer than supported %d", in.Schema, InputsSchema)
	}
	return Evaluate(dir, in), nil
}

// Evaluate runs every invariant over the inputs. dir anchors the
// relative artifact references.
func Evaluate(dir string, in Inputs) Report {
	var r Report
	r.add(checkTerminalState(in))

	jpath := filepath.Join(dir, in.JournalFile)
	events, decodeOK := loadJournal(&r, jpath, in)
	r.add(checkLedger(jpath, in))
	if decodeOK {
		r.add(checkJournalCounters(events, in))
		r.add(checkResumeConvergence(dir, events, in))
	}
	r.add(checkDelivery(events, decodeOK, in))

	r.OK = r.First == ""
	return r
}

// checkTerminalState: every discovered bot reaches a terminal state —
// a record or a quarantine entry, never silently lost — and every
// sampled honeypot experiment ends in a verdict or a quarantine.
func checkTerminalState(in Inputs) Check {
	c := Check{Name: "terminal-state", Artifact: "pipeline results", OK: true}
	settled := make(map[int]bool, len(in.RecordBots)+len(in.CollectQuarantined))
	for _, id := range in.RecordBots {
		settled[id] = true
	}
	for _, id := range in.CollectQuarantined {
		settled[id] = true
	}
	var lost []int
	for _, id := range in.Listed {
		if !settled[id] {
			lost = append(lost, id)
		}
	}
	if len(lost) > 0 && in.CollectStageError == "" {
		sort.Ints(lost)
		c.OK = false
		c.Detail = fmt.Sprintf("%d of %d listed bots reached no terminal state (neither record nor quarantine) with no collect stage error recorded; first lost bot %d",
			len(lost), len(in.Listed), lost[0])
		return c
	}
	hp := len(in.VerdictBots) + len(in.HoneypotQuarantined)
	if hp != in.HoneypotSampleTarget && in.HoneypotStageError == "" {
		c.OK = false
		c.Detail = fmt.Sprintf("honeypot settled %d experiments (%d verdicts + %d quarantined) but sampled %d, with no stage error recorded",
			hp, len(in.VerdictBots), len(in.HoneypotQuarantined), in.HoneypotSampleTarget)
		return c
	}
	c.Detail = fmt.Sprintf("%d listed → %d records + %d quarantined; honeypot %d/%d settled",
		len(in.Listed), len(in.RecordBots), len(in.CollectQuarantined), hp, in.HoneypotSampleTarget)
	return c
}

// loadJournal decodes the journal once for the event-level checks,
// registering a violation when the file is unreadable.
func loadJournal(r *Report, jpath string, in Inputs) ([]journal.Event, bool) {
	f, err := os.Open(jpath)
	if err != nil {
		r.add(Check{Name: "journal-readable", Artifact: in.JournalFile,
			Detail: fmt.Sprintf("journal unreadable: %v", err)})
		return nil, false
	}
	defer f.Close()
	events, skipped, err := journal.Decode(f)
	if err != nil {
		r.add(Check{Name: "journal-readable", Artifact: in.JournalFile,
			Detail: fmt.Sprintf("journal decode: %v", err)})
		return nil, false
	}
	c := Check{Name: "journal-readable", Artifact: in.JournalFile, OK: true,
		Detail: fmt.Sprintf("%d events decoded", len(events))}
	if skipped > 0 {
		// Undecodable lines mean either corruption (the ledger check will
		// name it) or an event the counter agreement cannot see.
		c.OK = false
		c.Detail = fmt.Sprintf("%d journal lines undecodable", skipped)
	}
	r.add(c)
	return events, c.OK
}

// checkLedger: the tamper-evident ledger verifies end-to-end across
// every kill/resume segment, and the external anchor side file agrees
// with the sealed head.
func checkLedger(jpath string, in Inputs) Check {
	c := Check{Name: "ledger", Artifact: in.JournalFile, OK: true}
	res, err := journal.VerifyFile(jpath)
	if err != nil {
		c.OK = false
		c.Detail = fmt.Sprintf("verify: %v", err)
		return c
	}
	switch {
	case !res.OK && res.AnchorChecked && !res.AnchorOK && res.Err == "":
		c.OK = false
		c.Artifact = in.JournalFile + ".anchor"
		c.Detail = res.AnchorErr
	case !res.OK:
		c.OK = false
		c.Detail = fmt.Sprintf("%s (first bad line %d)", res.Err, res.FirstBad)
	case res.Segments != in.ExpectedSegments:
		c.OK = false
		c.Detail = fmt.Sprintf("ledger has %d segments, expected %d (1 + kills fired): a crash/resume boundary is missing or extra", res.Segments, in.ExpectedSegments)
	case !res.AnchorChecked:
		c.OK = false
		c.Artifact = in.JournalFile + ".anchor"
		c.Detail = "no external anchor side file was written for a ledgered journal"
	default:
		c.Detail = fmt.Sprintf("%d events, %d segments, sealed head %s, anchor matches", res.Events, res.Segments, abbrev(res.Head))
	}
	return c
}

// tracked pairs a journal kind with the counter incremented at the same
// call site; with zero journal drops the two must agree exactly.
var tracked = []struct {
	kind    journal.Kind
	counter string
}{
	{journal.KindFaultInjected, "faults_injected_total"},
	{journal.KindSessionShed, "gateway_sessions_shed_total"},
	{journal.KindSessionOpened, "gateway_connections_total"},
}

// checkJournalCounters: the journal's event counts agree with the obs
// counters — every decoded line was counted, and for kinds whose emit
// site increments a counter, journaled ≤ counted with the total deficit
// bounded by the journal's own drop accounting (exact when no drops).
func checkJournalCounters(events []journal.Event, in Inputs) Check {
	c := Check{Name: "journal-counter-agreement", Artifact: "journal vs counters", OK: true}
	if we := in.Counters["journal_write_errors_total"]; we > 0 {
		c.OK = false
		c.Detail = fmt.Sprintf("journal recorded %d write errors: counted events were lost on the way to disk", we)
		return c
	}
	emitted := in.Counters["journal_events_total"]
	if int64(len(events)) != emitted {
		c.OK = false
		c.Detail = fmt.Sprintf("journal file holds %d events but journal_events_total counted %d enqueued", len(events), emitted)
		return c
	}
	byKind := make(map[journal.Kind]int64)
	for _, e := range events {
		byKind[e.Kind]++
	}
	dropped := in.Counters["journal_events_dropped_total"]
	var deficit int64
	for _, t := range tracked {
		journaled, counted := byKind[t.kind], in.Counters[t.counter]
		if journaled > counted {
			c.OK = false
			c.Detail = fmt.Sprintf("journal holds %d %s events but %s counted only %d", journaled, t.kind, t.counter, counted)
			return c
		}
		deficit += counted - journaled
	}
	if deficit > dropped {
		c.OK = false
		c.Detail = fmt.Sprintf("tracked kinds are missing %d journal events but only %d drops were counted: events vanished unaccounted", deficit, dropped)
		return c
	}
	c.Detail = fmt.Sprintf("%d events match journal_events_total; tracked-kind deficit %d within %d counted drops", emitted, deficit, dropped)
	return c
}

// checkResumeConvergence: the run converged — the final snapshot is
// complete under the run's ID, the journal carries exactly one
// run_resumed marker per kill — and no resumed segment re-executed
// work its baseline snapshot had already settled. The baselines are
// the snapshots' actual settled sets captured at each crash boundary,
// not inferred from event order (the lag between an event's emit and
// its checkpoint fold is unbounded under fault stalls, so order-based
// durability would convict legitimate resumes).
func checkResumeConvergence(dir string, events []journal.Event, in Inputs) Check {
	c := Check{Name: "resume-convergence", Artifact: in.CheckpointDir, OK: true}
	st, err := checkpoint.NewStore(filepath.Join(dir, in.CheckpointDir))
	if err != nil {
		c.OK = false
		c.Detail = fmt.Sprintf("checkpoint store: %v", err)
		return c
	}
	snap, err := st.Load(in.RunID)
	if err != nil {
		c.OK = false
		c.Detail = fmt.Sprintf("final snapshot for run %s: %v", in.RunID, err)
		return c
	}
	if !snap.Completed {
		c.OK = false
		c.Detail = fmt.Sprintf("snapshot %s is not marked complete: the run never converged", in.RunID)
		return c
	}

	collect := make([]map[int]bool, len(in.Resumes))
	honeypot := make([]map[int]bool, len(in.Resumes))
	for i, bl := range in.Resumes {
		collect[i] = make(map[int]bool, len(bl.SettledCollect))
		for _, id := range bl.SettledCollect {
			collect[i][id] = true
		}
		honeypot[i] = make(map[int]bool, len(bl.SettledHoneypot))
		for _, id := range bl.SettledHoneypot {
			honeypot[i][id] = true
		}
	}
	seg := 0
	for _, e := range events {
		if e.RunID != in.RunID {
			continue
		}
		switch e.Kind {
		case journal.KindRunResumed:
			seg++
		case journal.KindBotDiscovered:
			if seg >= 1 && seg <= len(collect) && collect[seg-1][e.BotID] {
				c.OK = false
				c.Detail = fmt.Sprintf("resumed segment %d re-crawled bot %d, which its baseline snapshot had already settled", seg+1, e.BotID)
				return c
			}
		case journal.KindExperimentStarted:
			if seg >= 1 && seg <= len(honeypot) && honeypot[seg-1][e.BotID] {
				c.OK = false
				c.Detail = fmt.Sprintf("resumed segment %d re-ran the experiment for bot %d, which its baseline snapshot had already settled", seg+1, e.BotID)
				return c
			}
		}
	}
	if seg != in.ExpectedSegments-1 {
		c.OK = false
		c.Detail = fmt.Sprintf("journal records %d run_resumed markers, want %d (one per kill)", seg, in.ExpectedSegments-1)
		return c
	}
	c.Detail = fmt.Sprintf("snapshot %s complete (%d settled); %d resume(s) skipped every checkpointed bot (zero re-execution)", in.RunID, snap.Settled(), seg)
	return c
}

// checkDelivery: the load generator's client-side accounting reconciles
// with the gateway's server-side shed/drop counters.
func checkDelivery(events []journal.Event, haveEvents bool, in Inputs) Check {
	c := Check{Name: "delivery-accounting", Artifact: "loadgen vs gateway counters", OK: true}
	lg := in.Loadgen
	if lg == nil {
		c.Detail = "no loadgen traffic in this soak"
		return c
	}
	if lg.Delivered > lg.ExpectedFanout {
		c.OK = false
		c.Detail = fmt.Sprintf("loadgen delivered %d events, more than the %d its published messages could fan out to", lg.Delivered, lg.ExpectedFanout)
		return c
	}
	shed := in.Counters["gateway_sessions_shed_total"]
	if lg.ShedDials > shed {
		c.OK = false
		c.Detail = fmt.Sprintf("clients saw %d shed dials but the server only counted %d sheds", lg.ShedDials, shed)
		return c
	}
	byReason := in.Counters["gateway_sessions_shed_max_sessions_total"] +
		in.Counters["gateway_sessions_shed_identify_rate_total"] +
		in.Counters["gateway_sessions_shed_tenant_rate_total"]
	if byReason != shed {
		c.OK = false
		c.Detail = fmt.Sprintf("per-reason shed counters sum to %d but gateway_sessions_shed_total is %d", byReason, shed)
		return c
	}
	if haveEvents && in.Counters["journal_events_dropped_total"] == 0 {
		perReason := make(map[string]int64)
		for _, e := range events {
			if e.Kind != journal.KindSessionShed || e.Fields == nil {
				continue
			}
			if reason, ok := e.Fields["reason"].(string); ok {
				perReason[reason]++
			}
		}
		for reason, n := range perReason {
			counted := in.Counters["gateway_sessions_shed_"+reason+"_total"]
			if n != counted {
				c.OK = false
				c.Detail = fmt.Sprintf("journal holds %d session_shed events with reason %s but the counter says %d", n, reason, counted)
				return c
			}
		}
	}
	c.Detail = fmt.Sprintf("delivered %d/%d expected; %d sheds reconcile per reason (%d shed dials)", lg.Delivered, lg.ExpectedFanout, shed, lg.ShedDials)
	return c
}

// Probe is the cheap mid-soak consistency check run at phase
// boundaries: counter families that must always reconcile, and a gauge
// that can never go negative. It returns the first inconsistency.
func Probe(reg *obs.Registry) error {
	snap := reg.Snapshot()
	shed := snap.Counters["gateway_sessions_shed_total"]
	var byReason int64
	for _, reason := range []string{"max_sessions", "identify_rate", "tenant_rate"} {
		byReason += snap.Counters["gateway_sessions_shed_"+reason+"_total"]
	}
	if byReason != shed {
		return fmt.Errorf("invariant probe: per-reason shed counters sum to %d, total says %d", byReason, shed)
	}
	if v, ok := snap.Gauges["gateway_sessions"]; ok && v < 0 {
		return fmt.Errorf("invariant probe: gauge gateway_sessions is negative (%d)", v)
	}
	return nil
}

func abbrev(h string) string {
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}
