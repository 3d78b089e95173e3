package gateway_test

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/permissions"
)

// TestStalledReaderClosedUnderEveryPolicy pins the promise that every
// socket write happens under WriteTimeout: under each slow-consumer
// policy, a client that identifies and then never reads is closed —
// by the write deadline or by its policy — within closeBound of the
// first message, while a sibling SDK session receives every message.
func TestStalledReaderClosedUnderEveryPolicy(t *testing.T) {
	// The stalled socket's kernel buffers take a few MB before a write
	// blocks; at one 16 KiB message per millisecond that is well under
	// a second, and the 200 ms deadline adds little to it.
	const closeBound = 5 * time.Second
	for _, policy := range []gateway.SlowConsumerPolicy{gateway.SlowBlock, gateway.SlowDropOldest, gateway.SlowDisconnect} {
		t.Run(policy.String(), func(t *testing.T) {
			r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
			reg := obs.NewRegistry()
			var buf bytes.Buffer
			jnl := journal.New(&buf, journal.Options{Obs: reg})
			r.srv.SetObs(reg)
			r.srv.SetJournal(jnl)

			// The rig session keeps the default limits it was admitted
			// under; the tight ones apply to the stalled client.
			var siblingGot atomic.Int64
			r.sess.OnMessage(func(*botsdk.Session, *botsdk.Message) { siblingGot.Add(1) })
			r.srv.SetLimits(gateway.Limits{
				SendQueue:    4,
				SlowConsumer: policy,
				WriteTimeout: 200 * time.Millisecond,
			})
			stallBot, err := r.p.RegisterBot(r.owner.ID, "stalled")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.p.InstallBot(r.owner.ID, r.guild.ID, stallBot.ID, permissions.ViewChannel); err != nil {
				t.Fatal(err)
			}
			identifyRaw(t, r.srv.Addr(), stallBot.Token) // never read again

			// The gauge lives in the registry installed after the rig
			// session connected, so it counts the stalled session alone.
			live := reg.Gauge("gateway_sessions")
			payload := strings.Repeat("x", 16<<10)
			var sent int64
			start := time.Now()
			for live.Value() > 0 {
				if time.Since(start) > closeBound {
					t.Fatalf("stalled session still open %v after %d messages", closeBound, sent)
				}
				if _, err := r.p.SendMessage(r.owner.ID, r.general.ID, payload); err != nil {
					t.Fatal(err)
				}
				sent++
				time.Sleep(time.Millisecond)
			}
			t.Logf("stalled session closed after %v and %d messages", time.Since(start).Round(time.Millisecond), sent)

			r.p.Flush()
			deadline := time.Now().Add(5 * time.Second)
			for siblingGot.Load() < sent && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := siblingGot.Load(); got != sent {
				t.Errorf("sibling session received %d/%d messages", got, sent)
			}

			// Close waits for every session's teardown, so the journal
			// holds the stalled session's session_closed once it returns.
			r.srv.Close()
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			events, _, err := journal.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var reason any
			for _, e := range events {
				if e.Kind == journal.KindSessionClosed && e.Bot == "stalled" {
					reason = e.Fields["reason"]
				}
			}
			if reason != "write_error" && reason != "slow_consumer" {
				t.Errorf("stalled session_closed reason = %v, want write_error or slow_consumer", reason)
			}
		})
	}
}
