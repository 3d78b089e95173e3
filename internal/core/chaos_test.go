package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/retry"
	"repro/internal/scraper"
)

// chaosAuditor stands up a full auditor with the given injector.
func chaosAuditor(t *testing.T, inj *faults.Injector, bots, sample int) *Auditor {
	t.Helper()
	a, err := NewAuditor(Options{
		Seed:    7,
		NumBots: bots,
		Honeypot: HoneypotOptions{
			Sample: sample,
			Settle: 300 * time.Millisecond,
		},
		Faults: FaultOptions{Injector: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func runAll(t *testing.T, a *Auditor) *Results {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := a.RunAllContext(ctx)
	if err != nil {
		t.Fatalf("chaos pipeline errored: %v", err)
	}
	return res
}

func isInfra(err error) bool {
	return errors.Is(err, scraper.ErrUnavailable) ||
		errors.Is(err, retry.ErrExhausted)
}

// TestChaosPipelineDegradesGracefully runs the full pipeline under the
// ~15% "moderate" profile plus one endpoint forced to always fail, and
// checks the run completes with honest partial results: verdicts for
// every non-quarantined bot and a quarantine ledger consistent with the
// injector's fault log.
func TestChaosPipelineDegradesGracefully(t *testing.T) {
	prof, err := faults.Named("moderate")
	if err != nil {
		t.Fatal(err)
	}
	// Bot 99's detail page always 503s: it must end up quarantined, not
	// mislabeled, no matter what the probabilistic faults do.
	prof.PerEndpoint = map[string]faults.Rates{"/bot/99": {ServerError: 1}}
	inj := faults.New(prof, 15, faults.Options{})

	const sample = 12
	a := chaosAuditor(t, inj, 120, sample)
	res := runAll(t, a)

	if len(res.Records) == 0 {
		t.Fatal("chaos run produced no records at all")
	}
	// Every sampled bot is accounted for: a verdict or a quarantine.
	hpQ := 0
	var collectQ []QuarantinedBot
	for _, q := range res.Quarantined {
		switch q.Stage {
		case "honeypot":
			hpQ++
		case "collect":
			collectQ = append(collectQ, q)
		}
	}
	if res.Honeypot == nil || res.Honeypot.Tested+hpQ != sample {
		t.Fatalf("Tested (%d) + honeypot quarantined (%d) != sample %d",
			res.Honeypot.Tested, hpQ, sample)
	}

	// The always-failing bot is quarantined and yields no record.
	found99 := false
	for _, q := range collectQ {
		if q.BotID == 99 {
			found99 = true
		}
		if !isInfra(q.Err) {
			t.Errorf("collect quarantine for bot %d is not an infrastructure error: %v", q.BotID, q.Err)
		}
	}
	if !found99 {
		t.Fatalf("bot 99 (always-503 detail page) not quarantined; ledger: %+v", collectQ)
	}
	for _, r := range res.Records {
		if r.ID == 99 {
			t.Fatal("quarantined bot 99 must not also have a record")
		}
	}

	// Quarantines match the fault log: a collect quarantine requires the
	// injector to have actually broken that bot's endpoints at least
	// TransportRetries+1 times in a row.
	failing := func(k faults.Kind) bool {
		return k == faults.KindServerError || k == faults.KindConnReset || k == faults.KindTruncatedBody
	}
	for _, q := range collectQ {
		n := 0
		detail := fmt.Sprintf("GET /bot/%d", q.BotID)
		invite := fmt.Sprintf("bot_id=%d&", q.BotID)
		for _, f := range res.FaultLog {
			if failing(f.Kind) && (f.Endpoint == detail || strings.Contains(f.Endpoint, invite)) {
				n++
			}
		}
		if n < 4 {
			t.Errorf("bot %d quarantined but the fault log shows only %d failing faults on its endpoints", q.BotID, n)
		}
	}

	// Results carry the injector's full ledger and the degradation map.
	if len(res.FaultLog) != inj.Count() {
		t.Fatalf("FaultLog has %d entries, injector recorded %d", len(res.FaultLog), inj.Count())
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("moderate profile injected no faults at all")
	}
	if !res.Degraded {
		t.Fatal("run with quarantines must report Degraded")
	}
	if got := res.Degradation["collect"].Quarantined; got != len(collectQ) {
		t.Fatalf("Degradation[collect].Quarantined = %d, want %d", got, len(collectQ))
	}
	if res.Degradation["honeypot"].Quarantined != hpQ {
		t.Fatalf("Degradation[honeypot].Quarantined = %d, want %d", res.Degradation["honeypot"].Quarantined, hpQ)
	}
}

// TestChaosSmoke is the CI-fast variant: a tiny ecosystem under 15%
// faults must still complete end to end.
func TestChaosSmoke(t *testing.T) {
	prof, err := faults.Named("moderate")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(prof, 3, faults.Options{})
	a, err := NewAuditor(Options{
		Seed:    3,
		NumBots: 40,
		Honeypot: HoneypotOptions{
			Sample: 4,
			Settle: 200 * time.Millisecond,
		},
		Faults: FaultOptions{Injector: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res := runAll(t, a)
	hpQ := 0
	for _, q := range res.Quarantined {
		if q.Stage == "honeypot" {
			hpQ++
		}
	}
	if res.Honeypot.Tested+hpQ != 4 {
		t.Fatalf("Tested (%d) + quarantined (%d) != sample 4", res.Honeypot.Tested, hpQ)
	}
	var sb strings.Builder
	res.Report(&sb) // the degraded report must render
	if !strings.Contains(sb.String(), "Fault injection:") {
		t.Fatal("report of a faulted run must include the fault-injection summary")
	}
}

// quarantineKey flattens a ledger entry for set comparison.
func quarantineKey(q QuarantinedBot) string {
	return fmt.Sprintf("%s/%d/%s/%s", q.Stage, q.BotID, q.Name, q.Link)
}

// TestChaosDeterministicLedger: same seed + same profile must replay a
// byte-identical fault ledger and the same quarantine set. Uses a
// profile without gateway rates — gateway frame faults depend on event
// timing, HTTP faults do not.
func TestChaosDeterministicLedger(t *testing.T) {
	run := func() ([]byte, []string, *Results) {
		prof, err := faults.Named("mild")
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(prof, 21, faults.Options{})
		a := chaosAuditor(t, inj, 80, 8)
		res := runAll(t, a)
		var buf bytes.Buffer
		if err := inj.WriteLedger(&buf); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(res.Quarantined))
		for _, q := range res.Quarantined {
			keys = append(keys, quarantineKey(q))
		}
		sort.Strings(keys)
		return buf.Bytes(), keys, res
	}

	led1, q1, res1 := run()
	led2, q2, res2 := run()
	if len(led1) == 0 {
		t.Fatal("mild profile injected no faults")
	}
	if !bytes.Equal(led1, led2) {
		t.Fatalf("fault ledgers differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", led1, led2)
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Fatalf("quarantine sets differ: %v vs %v", q1, q2)
	}
	if len(res1.StageErrors) != len(res2.StageErrors) {
		t.Fatalf("stage errors differ: %v vs %v", res1.StageErrors, res2.StageErrors)
	}
}

// TestZeroFaultIdenticalResults: wiring the injector with the "none"
// profile must change nothing — records identical to a run with no
// injector at all, same triggered bots, no degradation.
func TestZeroFaultIdenticalResults(t *testing.T) {
	run := func(inj *faults.Injector) *Results {
		a, err := NewAuditor(Options{
			Seed:    7,
			NumBots: 80,
			Honeypot: HoneypotOptions{
				Sample: 8,
				Settle: 700 * time.Millisecond,
			},
			Faults: FaultOptions{Injector: inj},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return runAll(t, a)
	}

	prof, err := faults.Named("none")
	if err != nil {
		t.Fatal(err)
	}
	plain := run(nil)
	wired := run(faults.New(prof, 1, faults.Options{}))

	if !reflect.DeepEqual(plain.Records, wired.Records) {
		t.Fatal("zero-fault profile changed the scraped records")
	}
	names := func(r *Results) []string {
		out := make([]string, 0, len(r.Honeypot.Triggered))
		for _, v := range r.Honeypot.Triggered {
			out = append(out, v.Subject.Name)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(wired), names(plain); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-fault profile changed the triggered set: %v vs %v", got, want)
	}
	if wired.Degraded {
		t.Fatal("zero-fault run must not be degraded")
	}
	if len(wired.FaultLog) != 0 {
		t.Fatalf("zero-fault run logged %d faults", len(wired.FaultLog))
	}
	if len(wired.Quarantined) != 0 || len(wired.StageErrors) != 0 {
		t.Fatal("zero-fault run must have an empty quarantine ledger")
	}
}
