package gateway_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// identifyRaw dials the gateway over plain TCP, identifies, and reads
// the ready frame, returning the connection and its buffered reader.
func identifyRaw(t *testing.T, addr, token string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn := dialRaw(t, addr)
	fmt.Fprintf(conn, `{"op":"identify","token":%q}`+"\n", token)
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no ready frame: %v", err)
	}
	if !strings.Contains(line, `"ready"`) {
		t.Fatalf("first frame not ready: %s", line)
	}
	conn.SetReadDeadline(time.Time{})
	return conn, br
}

// TestStalledReaderDoesNotWedgeOthers is the tentpole scenario: one
// client identifies and then never reads another byte while users keep
// chatting. The stalled session's bounded queue must overflow into
// drop-oldest evictions (and eventually a write-deadline disconnect) —
// and the healthy sibling session must see every event and keep making
// requests the whole time.
func TestStalledReaderDoesNotWedgeOthers(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	reg := obs.NewRegistry()
	r.srv.SetObs(reg)

	// The rig session was admitted under default limits (roomy queue,
	// blocking policy): it is the healthy consumer. The tight bound below
	// applies to connections admitted after it — the stalled one.
	var healthyGot atomic.Int64
	healthy := r.sess
	healthy.OnMessage(func(*botsdk.Session, *botsdk.Message) { healthyGot.Add(1) })
	r.srv.SetLimits(gateway.Limits{
		SendQueue:    8,
		SlowConsumer: gateway.SlowDropOldest,
		WriteTimeout: 300 * time.Millisecond,
	})

	// The stalled peer: a second bot so its drops are attributable.
	stallBot, err := r.p.RegisterBot(r.owner.ID, "stalled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.InstallBot(r.owner.ID, r.guild.ID, stallBot.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	stallConn, _ := identifyRaw(t, r.srv.Addr(), stallBot.Token)
	_ = stallConn // never read from again

	// Paced just below the bus buffer's drain rate so the healthy session
	// sees everything; payloads big enough that the stalled socket's
	// kernel buffers fill and its bounded queue must take the strain.
	const n = 300
	payload := strings.Repeat("x", 16*1024)
	for i := 0; i < n; i++ {
		if _, err := r.p.SendMessage(r.owner.ID, r.general.ID, payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	r.p.Flush()

	deadline := time.Now().Add(5 * time.Second)
	for healthyGot.Load() < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := healthyGot.Load(); got < n {
		t.Fatalf("healthy session received %d/%d events while a sibling stalled", got, n)
	}
	// The healthy session's request path must still be responsive.
	if _, err := healthy.Send(r.general.ID.String(), "still serving"); err != nil {
		t.Fatalf("healthy request path wedged: %v", err)
	}
	if dropped := reg.Counter("gateway_events_dropped_total").Value(); dropped == 0 {
		t.Error("stalled session overflowed no events — queue bound apparently inert")
	}
}

// TestMaxSessionsShedsWithJournal fills the admission cap and verifies
// the next dial is refused with an explicit shed error carrying a
// retry hint, that the refusal is journaled, and that closing a session
// frees its slot for a new client.
func TestMaxSessionsShedsWithJournal(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: reg})
	r.srv.SetObs(reg)
	r.srv.SetJournal(jnl)
	// The rig session already holds one slot.
	r.srv.SetLimits(gateway.Limits{MaxSessions: 2, WriteTimeout: time.Second})

	second, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial under cap: %v", err)
	}
	defer second.Close()

	_, err = botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
	if !errors.Is(err, botsdk.ErrShedding) {
		t.Fatalf("dial past cap err = %v, want ErrShedding", err)
	}
	var shed *botsdk.ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("shed refusal carries no retry hint: %v", err)
	}
	if got := reg.Counter("gateway_sessions_shed_total").Value(); got != 1 {
		t.Errorf("sessions_shed = %d, want 1", got)
	}

	// Freeing a slot readmits: the refusal is overload, not a ban.
	second.Close()
	var readmitted *botsdk.Session
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		readmitted, err = botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if readmitted == nil {
		t.Fatalf("slot never freed after session close: %v", err)
	}
	readmitted.Close()

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sheds int
	for _, e := range events {
		if e.Kind == journal.KindSessionShed {
			sheds++
			if e.Fields["reason"] != "max_sessions" {
				t.Errorf("shed reason = %v", e.Fields["reason"])
			}
		}
	}
	// At least the probe dial was journaled; the readmission poll may
	// have been shed a few more times before the slot freed.
	if sheds < 1 {
		t.Errorf("journaled %d session_shed events, want >= 1", sheds)
	}
}

// TestIdentifyRateShed verifies the listener-wide identify throttle:
// with a one-token bucket, back-to-back dials are shed with a backoff
// hint even though the session cap has room.
func TestIdentifyRateShed(t *testing.T) {
	r := newRig(t, permissions.ViewChannel)
	r.srv.SetLimits(gateway.Limits{IdentifyRPS: 0.5, IdentifyBurst: 1, WriteTimeout: time.Second})

	first, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial within burst: %v", err)
	}
	defer first.Close()

	_, err = botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
	var shed *botsdk.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second immediate dial err = %v, want ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Error("identify-rate shed carries no retry hint")
	}
}

// TestHeartbeatTimeoutReapsSilentSession verifies server-side liveness:
// a session that stops sending frames is disconnected after the
// heartbeat timeout and its closure journaled, while a heartbeating
// sibling lives on.
func TestHeartbeatTimeoutReapsSilentSession(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: reg})
	r.srv.SetObs(reg)
	r.srv.SetJournal(jnl)
	r.srv.SetLimits(gateway.Limits{HeartbeatTimeout: 300 * time.Millisecond, WriteTimeout: time.Second})

	live, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{
		RequestTimeout: time.Second, HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	silentConn, br := identifyRaw(t, r.srv.Addr(), r.bot.Token)
	// Go silent and wait to be reaped; the server closing the socket
	// surfaces as a read error well before our own deadline.
	silentConn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	for {
		if _, err := br.ReadString('\n'); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("silent session outlived the heartbeat timeout by %v", waited)
	}
	if got := reg.Counter("gateway_sessions_reaped_total").Value(); got != 1 {
		t.Errorf("sessions_reaped = %d, want 1", got)
	}
	// The heartbeating sibling is untouched.
	if _, err := live.Guilds(); err != nil {
		t.Errorf("heartbeating session reaped too: %v", err)
	}

	// The reaped session journals its closure after its socket closes;
	// Close waits for every session's teardown, so drain the server
	// before reading the journal.
	r.srv.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reaped bool
	for _, e := range events {
		if e.Kind == journal.KindSessionClosed && e.Fields["reason"] == "heartbeat_timeout" {
			reaped = true
		}
	}
	if !reaped {
		t.Error("no session_closed(heartbeat_timeout) journaled")
	}
}

// TestTenantRateLimitLayersOverSessions gives one owner two bots on
// separate sessions and a shared tenant budget: a combined burst past
// the per-tenant bucket must be throttled (and absorbed by SDK retry)
// even though neither individual session is limited.
func TestTenantRateLimitLayersOverSessions(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	reg := obs.NewRegistry()
	r.srv.SetObs(reg)
	r.srv.SetLimits(gateway.Limits{TenantRPS: 50, TenantBurst: 2, WriteTimeout: time.Second})

	other, err := r.p.RegisterBot(r.owner.ID, "second-tenant-bot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.InstallBot(r.owner.ID, r.guild.ID, other.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
		t.Fatal(err)
	}
	a, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := botsdk.Dial(r.srv.Addr(), other.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	chID := r.general.ID.String()
	start := time.Now()
	for i := 0; i < 6; i++ {
		if _, err := a.Send(chID, "tenant burst a"); err != nil {
			t.Fatalf("send a#%d: %v", i, err)
		}
		if _, err := b.Send(chID, "tenant burst b"); err != nil {
			t.Fatalf("send b#%d: %v", i, err)
		}
	}
	// 12 requests against burst 2 at 50 rps need roughly (12-2)/50 = 200ms.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("tenant burst finished in %v — shared bucket apparently inert", elapsed)
	}
	if got := reg.Counter("gateway_tenant_throttled_total").Value(); got == 0 {
		t.Error("tenant throttle never fired")
	}
}

// TestShedAndFaultAccountingDeterministic replays an identical scripted
// overload — a full admission cap probed by sequential dials while a
// seeded injector drops event frames — and demands byte-identical
// degradation accounting: same shed count, same delivery count, same
// fault ledger bytes.
func TestShedAndFaultAccountingDeterministic(t *testing.T) {
	type outcome struct {
		shed      int64
		delivered int64
		ledger    []byte
	}
	runOnce := func(t *testing.T) outcome {
		p := platform.New(platform.Options{})
		defer p.Close()
		owner := p.CreateUser("owner")
		g, err := p.CreateGuild(owner.ID, "det", false)
		if err != nil {
			t.Fatal(err)
		}
		var general *platform.Channel
		for _, ch := range g.Channels {
			general = ch
		}
		bot, err := p.RegisterBot(owner.ID, "detbot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
			t.Fatal(err)
		}
		srv, err := gateway.NewServer(p, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		reg := obs.NewRegistry()
		srv.SetObs(reg)
		srv.SetLimits(gateway.Limits{MaxSessions: 1, WriteTimeout: time.Second})
		inj := faults.New(faults.Profile{Name: "det", GatewayDropFrame: 0.3}, 42, faults.Options{Obs: reg})
		srv.SetFaultPolicy(inj)

		var delivered atomic.Int64
		sess, err := botsdk.Dial(srv.Addr(), bot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sess.OnMessage(func(*botsdk.Session, *botsdk.Message) { delivered.Add(1) })

		// Five sequential dials against the full cap; each refusal is read
		// to completion so the schedule is strictly ordered.
		for i := 0; i < 5; i++ {
			if _, err := botsdk.Dial(srv.Addr(), bot.Token, botsdk.Options{RequestTimeout: time.Second}); !errors.Is(err, botsdk.ErrShedding) {
				t.Fatalf("probe dial %d err = %v, want ErrShedding", i, err)
			}
		}
		// A strictly ordered event stream for the injector to sample.
		const msgs = 40
		for i := 0; i < msgs; i++ {
			if _, err := p.SendMessage(owner.ID, general.ID, fmt.Sprintf("m%d", i)); err != nil {
				t.Fatal(err)
			}
			p.Flush()
		}
		deadline := time.Now().Add(3 * time.Second)
		want := int64(msgs - countDrops(inj))
		for delivered.Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		var ledger bytes.Buffer
		if err := inj.WriteLedger(&ledger); err != nil {
			t.Fatal(err)
		}
		return outcome{
			shed:      reg.Counter("gateway_sessions_shed_total").Value(),
			delivered: delivered.Load(),
			ledger:    ledger.Bytes(),
		}
	}

	first := runOnce(t)
	second := runOnce(t)
	if first.shed != 5 || second.shed != 5 {
		t.Errorf("shed counts = %d, %d, want 5, 5", first.shed, second.shed)
	}
	if first.delivered != second.delivered {
		t.Errorf("delivered diverged: %d vs %d", first.delivered, second.delivered)
	}
	if len(first.ledger) == 0 {
		t.Fatal("injector fired no faults — drop rate apparently inert")
	}
	if !bytes.Equal(first.ledger, second.ledger) {
		t.Errorf("fault ledgers diverged:\n--- first\n%s--- second\n%s", first.ledger, second.ledger)
	}
}

func countDrops(inj *faults.Injector) int {
	n := 0
	for _, f := range inj.Log() {
		if f.Kind == faults.KindGatewayDropFrame {
			n++
		}
	}
	return n
}

// TestTenantIdentifyRateShedPerReasonCounters verifies the per-owner
// identify throttle: with a one-token tenant bucket, a reconnect storm
// from one owner's bots is shed with reason tenant_rate while another
// owner admits untouched — and the per-reason shed counters partition
// the total exactly, with the journaled shed events agreeing.
func TestTenantIdentifyRateShedPerReasonCounters(t *testing.T) {
	r := newRig(t, permissions.ViewChannel)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	jnl := journal.New(&buf, journal.Options{Obs: reg})
	r.srv.SetObs(reg)
	r.srv.SetJournal(jnl)
	r.srv.SetLimits(gateway.Limits{
		TenantIdentifyRPS:   0.1,
		TenantIdentifyBurst: 1,
		WriteTimeout:        time.Second,
	})

	// A second bot under the rig owner, and one under a different owner.
	sibling, err := r.p.RegisterBot(r.owner.ID, "sibling")
	if err != nil {
		t.Fatal(err)
	}
	other := r.p.CreateUser("other-owner")
	otherBot, err := r.p.RegisterBot(other.ID, "otherbot")
	if err != nil {
		t.Fatal(err)
	}

	// First dial under the throttle spends the owner's single token...
	first, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial within tenant burst: %v", err)
	}
	defer first.Close()
	// ...so the same owner's next bot is shed, with a retry hint.
	_, err = botsdk.Dial(r.srv.Addr(), sibling.Token, botsdk.Options{RequestTimeout: time.Second})
	var shed *botsdk.ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("same-owner dial err = %v, want ShedError with retry hint", err)
	}
	// A different owner has its own bucket and sails through.
	otherSess, err := botsdk.Dial(r.srv.Addr(), otherBot.Token, botsdk.Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatalf("other owner throttled by a sibling tenant's storm: %v", err)
	}
	otherSess.Close()

	if got := reg.Counter("gateway_sessions_shed_tenant_rate_total").Value(); got != 1 {
		t.Errorf("tenant_rate sheds = %d, want 1", got)
	}
	total := reg.Counter("gateway_sessions_shed_total").Value()
	var byReason int64
	for _, reason := range gateway.ShedReasons {
		byReason += reg.Counter("gateway_sessions_shed_" + reason + "_total").Value()
	}
	if byReason != total {
		t.Errorf("per-reason shed counters sum to %d, total says %d", byReason, total)
	}

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reasons := make(map[string]int64)
	for _, e := range events {
		if e.Kind == journal.KindSessionShed {
			reasons[e.Fields["reason"].(string)]++
		}
	}
	if reasons["tenant_rate"] != 1 || len(reasons) != 1 {
		t.Errorf("journaled shed reasons = %v, want exactly one tenant_rate", reasons)
	}
}
