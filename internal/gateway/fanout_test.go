package gateway_test

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/corpus"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// BenchmarkFanout publishes corpus messages into 4 guilds whose every
// member bot is an SDK session, in a closed loop that keeps at most 64
// messages undelivered to the slowest session, as perfbench's gateway
// fan-out phase does. One op is one published message. It reports
// deliveries per second, frames per socket write (every frame the
// server wrote, ready frames included, over gateway_socket_writes_total)
// and allocations per delivery, client and server together.
func BenchmarkFanout(b *testing.B) {
	for _, sessions := range []int{2, 64} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) { benchFanout(b, sessions) })
	}
}

func benchFanout(b *testing.B, sessions int) {
	const guilds, window = 4, 64
	reg := obs.NewRegistry()
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("owner")
	var channels []platform.ID
	var guildIDs []platform.ID
	for i := 0; i < guilds; i++ {
		g, err := p.CreateGuild(owner.ID, fmt.Sprintf("fanout-%d", i), false)
		if err != nil {
			b.Fatal(err)
		}
		guildIDs = append(guildIDs, g.ID)
		for _, ch := range g.Channels {
			channels = append(channels, ch.ID)
			break
		}
	}
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.SetObs(reg)

	got := make([]atomic.Int64, sessions)
	progress := make(chan struct{}, 1)
	var clients []*botsdk.Session
	defer func() {
		for _, s := range clients {
			s.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		bot, err := p.RegisterBot(owner.ID, "fanout-bot-"+strconv.Itoa(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, gid := range guildIDs {
			if _, err := p.InstallBot(owner.ID, gid, bot.ID, permissions.ViewChannel); err != nil {
				b.Fatal(err)
			}
		}
		s, err := botsdk.Dial(srv.Addr(), bot.Token, botsdk.Options{})
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, s)
		n := &got[i]
		s.OnMessage(func(*botsdk.Session, *botsdk.Message) {
			n.Add(1)
			select {
			case progress <- struct{}{}:
			default:
			}
		})
	}
	slowest := func() int64 {
		n := got[0].Load()
		for i := 1; i < sessions; i++ {
			n = min(n, got[i].Load())
		}
		return n
	}
	await := func() {
		select {
		case <-progress:
		case <-time.After(5 * time.Second):
			b.Fatalf("no delivery for 5s; the slowest session has %d of %d", slowest(), b.N)
		}
	}
	gen := corpus.New(2022)
	personas := gen.Personas(8)
	msgs := make([]string, 256)
	for i := range msgs {
		msgs[i] = gen.Message(personas[i%len(personas)])
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for int64(i)-slowest() >= window {
			await()
		}
		if _, err := p.SendMessage(owner.ID, channels[i%guilds], msgs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
	}
	for slowest() < int64(b.N) {
		await()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)

	// Closing the clients ends every session, and Close returns once
	// their writers have counted all their socket writes.
	for _, s := range clients {
		s.Close()
	}
	srv.Close()
	deliveries := float64(b.N) * float64(sessions)
	frames := float64(reg.Counter("gateway_events_out_total").Value()) + float64(sessions)
	b.ReportMetric(deliveries/elapsed.Seconds(), "deliveries/s")
	b.ReportMetric(frames/float64(reg.Counter("gateway_socket_writes_total").Value()), "frames/write")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/deliveries, "allocs/delivery")
}
