package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/botsdk"
	"repro/internal/gateway"
	"repro/internal/platform"
)

// chatterLines is the persona chatter pool. A few lines deliberately
// carry identifier-shaped content, mirroring the group-chat snooping
// workload ("Bots can Snoop") where user conversations leak data that
// over-subscribed bots get to read.
var chatterLines = []string{
	"hey, anyone around?",
	"did you see the patch notes?",
	"brb, grabbing coffee",
	"my email is casey@example.com if you need the doc",
	"meeting moved to 3pm",
	"call me at 555-0142 about the ticket",
	"who owns the deploy today?",
	"lol same",
}

// runChatters posts user messages into one guild at rate msgs/sec until
// ctx is done, crediting the expected fan-out (messages × subscribed
// bot sessions) so delivery completeness is measurable afterwards.
func runChatters(ctx context.Context, p *platform.Platform, g *guildWorld, rate float64,
	rng *rand.Rand, published, pubErrs, expected *atomic.Int64) {
	if len(g.users) == 0 || rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		user := g.users[rng.Intn(len(g.users))]
		line := fmt.Sprintf("%s [#%d]", chatterLines[rng.Intn(len(chatterLines))], i)
		if _, err := p.SendMessage(user, g.general, line); err != nil {
			pubErrs.Add(1)
			continue
		}
		published.Add(1)
		expected.Add(g.nBots)
	}
}

// runResponder is the active-bot persona: at reqRate requests/sec it
// alternates between replying into its guild channel and pulling recent
// history — the send/read mix a real utility bot generates. Failures
// (rate-limit exhaustion, dead session mid-reconnect) are counted, not
// fatal: the run is measuring degradation.
func runResponder(ctx context.Context, rc *botsdk.Reconnector, w *world, reqRate float64,
	rng *rand.Rand, reqOK, reqFailed, expected *atomic.Int64) {
	if reqRate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / reqRate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		sess := rc.Session()
		if sess == nil {
			reqFailed.Add(1)
			continue
		}
		gi := guildIndexOf(w, sess)
		if gi < 0 {
			reqFailed.Add(1)
			continue
		}
		g := w.guilds[gi]
		var err error
		if i%4 == 3 {
			_, err = sess.History(g.general.String(), 5)
		} else {
			_, err = sess.Send(g.general.String(), fmt.Sprintf("on it (%d)", rng.Intn(1000)))
			if err == nil && g.nBots > 1 {
				// A bot's reply fans out to every sibling session in the
				// guild (its own echo is suppressed server-side).
				expected.Add(g.nBots - 1)
			}
		}
		if err != nil {
			reqFailed.Add(1)
			continue
		}
		reqOK.Add(1)
	}
}

// guildIndexOf maps a session back to its guild via the ready frame.
func guildIndexOf(w *world, sess *botsdk.Session) int {
	guilds := sess.InitialGuilds()
	if len(guilds) == 0 {
		return -1
	}
	for gi, g := range w.guilds {
		if g.guild.ID.String() == guilds[0] {
			return gi
		}
	}
	return -1
}

// Stall identifies over raw TCP and then never reads again until ctx is
// cancelled — the deliberately wedged consumer whose dispatch queue must
// fill without taking the rest of the gateway down with it. Exported so
// chaos harnesses can inject phase-scoped stalled listeners against a
// gateway they host themselves.
func Stall(ctx context.Context, addr, token string) {
	stallClient(ctx, addr, token)
}

// stallClient identifies over raw TCP and then never reads again — the
// deliberately wedged consumer whose dispatch queue must fill without
// taking the rest of the gateway down with it.
func stallClient(ctx context.Context, addr, token string) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return
	}
	defer conn.Close()
	identify, err := gateway.AppendFrame(nil, &gateway.Frame{Op: gateway.OpIdentify, Token: token})
	if err != nil {
		return
	}
	if _, err := conn.Write(identify); err != nil {
		return
	}
	// Consume the ready frame so the session is fully established, then
	// go silent.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadString('\n'); err != nil {
		return
	}
	<-ctx.Done()
}
