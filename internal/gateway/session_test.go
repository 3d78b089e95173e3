package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// serverGoroutines counts the goroutines a gateway server started for
// its sessions: each serve goroutine and everything serve starts.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf), "created by repro/internal/gateway.(*Server).")
}

// TestSessionRunsTwoGoroutines dials raw sessions and requires each to
// add exactly two server goroutines, its reader and its writer, with
// and without a heartbeat timeout.
func TestSessionRunsTwoGoroutines(t *testing.T) {
	const n = 10
	for _, hb := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("heartbeat=%v", hb), func(t *testing.T) {
			r := newServerRig(t, permissions.ViewChannel)
			r.srv.SetLimits(gateway.Limits{HeartbeatTimeout: hb})
			base := serverGoroutines()
			for i := 0; i < n; i++ {
				identifyRaw(t, r.srv.Addr(), r.bot.Token)
			}
			got := serverGoroutines() - base
			for deadline := time.Now().Add(2 * time.Second); got != 2*n && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
				got = serverGoroutines() - base
			}
			if got != 2*n {
				t.Errorf("%d sessions added %d server goroutines, want %d", n, got, 2*n)
			}
		})
	}
}

// TestServerCloseLeavesNoSessionGoroutine dials raw sessions, closes the
// server, and requires that no session goroutine is left the moment
// Close returns. Five rounds, because a leak shows only when a writer
// is slower to exit than its reader.
func TestServerCloseLeavesNoSessionGoroutine(t *testing.T) {
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "close", false)
	if err != nil {
		t.Fatal(err)
	}
	bot, err := p.RegisterBot(owner.ID, "closebot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		srv, err := gateway.NewServer(p, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			identifyRaw(t, srv.Addr(), bot.Token)
		}
		srv.Close()
		if left := serverGoroutines(); left != 0 {
			t.Fatalf("round %d: %d session goroutines still running after Close returned", round, left)
		}
	}
}

// TestQueueOverflowLosesPolicyEvent stalls a raw session whose client
// stops reading, overflows its event queue, and checks which events
// each slow-consumer policy loses: block the newest, drop-oldest the
// oldest, disconnect the session. Every loss must count once on
// gateway_events_dropped_total and in session_closed's events_dropped:
// the client, reading again, receives exactly the events not counted.
func TestQueueOverflowLosesPolicyEvent(t *testing.T) {
	const queue = 4
	for _, policy := range []gateway.SlowConsumerPolicy{gateway.SlowBlock, gateway.SlowDropOldest, gateway.SlowDisconnect} {
		t.Run(policy.String(), func(t *testing.T) {
			// No other session is connected, so the counters below
			// read the stalled session alone.
			r := newServerRig(t, permissions.ViewChannel)
			reg := obs.NewRegistry()
			var buf bytes.Buffer
			jnl := journal.New(&buf, journal.Options{Obs: reg})
			t.Cleanup(func() { jnl.Close() })
			r.srv.SetObs(reg)
			r.srv.SetJournal(jnl)
			// The write deadline outlasts the test, so only the policy
			// decides what the stalled session loses.
			r.srv.SetLimits(gateway.Limits{SendQueue: queue, SlowConsumer: policy, WriteTimeout: time.Minute})
			conn, br := identifyRaw(t, r.srv.Addr(), r.bot.Token)

			// Both counters move inside the subscription callback, so
			// they are current once Flush returns.
			dropped := reg.Counter("gateway_events_dropped_total")
			slowClosed := reg.Counter("gateway_slow_consumer_disconnects_total")
			publish := func(content string) {
				t.Helper()
				if _, err := r.p.SendMessage(r.owner.ID, r.general.ID, content); err != nil {
					t.Fatal(err)
				}
				r.p.Flush()
			}
			// Fill the socket until the queue overflows: a drop under
			// block and drop-oldest, the close under disconnect. The
			// writer is stuck on the full socket once a pause frees no
			// slot: every event queued after it is then counted lost.
			filler := strings.Repeat("x", 32<<10)
			published := 0
			for stuck := false; !stuck; {
				if published >= 2000 {
					t.Fatalf("no overflow after %d messages", published)
				}
				publish(filler)
				published++
				if policy == gateway.SlowDisconnect {
					stuck = slowClosed.Value() > 0
					continue
				}
				if dropped.Value() == 0 {
					continue
				}
				time.Sleep(50 * time.Millisecond)
				before := dropped.Value()
				for i := 0; i < queue; i++ {
					publish(filler)
					published++
				}
				stuck = dropped.Value()-before == queue
			}

			var marks []string
			if policy != gateway.SlowDisconnect {
				for i := 0; i < 2*queue; i++ {
					marks = append(marks, fmt.Sprintf("mark-%d", i))
					publish(marks[i])
					published++
				}
			}

			// Read again: the client receives every event not counted
			// as lost, and nothing more.
			want := int64(published) - dropped.Value()
			if policy == gateway.SlowDisconnect {
				want = -1 // read until the server's close
			}
			got := readDispatches(t, conn, br, want)
			if policy != gateway.SlowDisconnect && int64(len(got)) != want {
				t.Errorf("received %d events, want %d published - %d dropped", len(got), published, dropped.Value())
			}
			var gotMarks []string
			for _, c := range got {
				if strings.HasPrefix(c, "mark-") {
					gotMarks = append(gotMarks, c)
				}
			}
			switch policy {
			case gateway.SlowBlock:
				if len(gotMarks) != 0 {
					t.Errorf("block delivered %v; the newest events should be the ones lost", gotMarks)
				}
			case gateway.SlowDropOldest:
				if fmt.Sprint(gotMarks) != fmt.Sprint(marks[len(marks)-queue:]) {
					t.Errorf("drop-oldest delivered marks %v, want the newest %d: %v", gotMarks, queue, marks[len(marks)-queue:])
				}
			}

			conn.Close()
			r.srv.Close()
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			events, _, err := journal.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var closed *journal.Event
			for i, e := range events {
				if e.Kind == journal.KindSessionClosed {
					closed = &events[i]
				}
			}
			if closed == nil {
				t.Fatal("no session_closed journaled for the stalled session")
			}
			if n, _ := closed.Fields["events_dropped"].(float64); int64(n) != dropped.Value() {
				t.Errorf("session_closed events_dropped = %v, counter = %d", closed.Fields["events_dropped"], dropped.Value())
			}
			if policy == gateway.SlowDisconnect {
				if reason := closed.Fields["reason"]; reason != "slow_consumer" {
					t.Errorf("session_closed reason = %v, want slow_consumer", reason)
				}
				if n := slowClosed.Value(); n != 1 {
					t.Errorf("slow_consumer disconnects = %d, want 1", n)
				}
			} else if dropped.Value() == 0 {
				t.Error("no event counted as dropped")
			}
		})
	}
}

// readDispatches reads dispatch frames off a raw session and returns
// their message contents. With want >= 0 it stops after want frames
// and then requires the line to stay quiet briefly; with want < 0 it
// reads until the server closes the connection.
func readDispatches(t *testing.T, conn net.Conn, br *bufio.Reader, want int64) []string {
	t.Helper()
	var got []string
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want < 0 || int64(len(got)) < want {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if want < 0 && !errors.Is(err, os.ErrDeadlineExceeded) {
				return got
			}
			t.Fatalf("read after %d events: %v", len(got), err)
		}
		var f gateway.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		if f.Op == gateway.OpDispatch && f.Event != nil && f.Event.Message != nil {
			got = append(got, f.Event.Message.Content)
		}
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if line, err := br.ReadBytes('\n'); err == nil {
		t.Errorf("unexpected frame after the %d expected: %.80s", want, line)
	}
	return got
}
