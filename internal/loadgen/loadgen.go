// Package loadgen drives persona-shaped traffic through a live gateway:
// many guilds, many chatting users, and a fleet of bot sessions
// connected over real TCP sockets — the workload ROADMAP item 2 needs
// to prove the traffic plane degrades instead of falling over. One Run
// self-hosts a platform + gateway, connects Sessions bot sessions
// (plus deliberately stalled clients), publishes user messages at a
// configured rate, and reports sustained fan-out throughput together
// with the server's shed/drop/reap accounting.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/botsdk"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/permissions"
	"repro/internal/platform"
	"repro/internal/retry"
)

// Config shapes one load-generation run. The zero value is usable: it
// runs a small smoke-sized workload.
type Config struct {
	// Topology.
	Guilds        int // default 8
	UsersPerGuild int // default 20
	Sessions      int // bot sessions to connect (default 64)
	Tenants       int // distinct bot owners the sessions divide into (default 8)
	Stalled       int // clients that identify, then never read another byte

	// Traffic.
	Duration      time.Duration // publishing window (default 5s)
	MsgRate       float64       // user messages/sec per guild (default 50)
	ReqRate       float64       // requests/sec per responder bot (default 2)
	ResponderFrac float64       // fraction of bots that also issue requests (default 0.25)

	// Chaos.
	FaultProfile string // "", "none", "mild", "moderate", "storm"
	FaultSeed    int64

	// Gateway knobs.
	Limits       gateway.Limits
	SessionRPS   float64 // per-session request rate limit (0 = off)
	SessionBurst int

	// Target, when set, points the run at an externally hosted platform
	// and gateway instead of self-hosting them — the soak conductor's
	// mode, where loadgen traffic and the audit pipeline share one world.
	// The host owns the gateway's Limits/Journal/Obs/FaultPolicy wiring
	// and its lifecycle; Config.Limits then only shapes client-side
	// heartbeat hints, and server counters are read from Obs (which
	// should be the host's registry).
	Target *Target

	Seed    int64
	Obs     *obs.Registry // nil = fresh registry
	Journal *journal.Journal
	Logf    func(format string, args ...any)
}

// Target names an externally hosted world to drive traffic into.
type Target struct {
	Platform *platform.Platform
	Addr     string // gateway listen address to dial
}

func (c Config) withDefaults() Config {
	if c.Guilds <= 0 {
		c.Guilds = 8
	}
	if c.UsersPerGuild <= 0 {
		c.UsersPerGuild = 20
	}
	if c.Sessions <= 0 {
		c.Sessions = 64
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.MsgRate <= 0 {
		c.MsgRate = 50
	}
	if c.ReqRate <= 0 {
		c.ReqRate = 2
	}
	if c.ResponderFrac <= 0 {
		c.ResponderFrac = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Result is one run's measurement, JSON-shaped for `loadgen -out`.
type Result struct {
	Profile           string  `json:"fault_profile"`
	Guilds            int     `json:"guilds"`
	UsersPerGuild     int     `json:"users_per_guild"`
	SessionsTarget    int     `json:"sessions_target"`
	SessionsConnected int     `json:"sessions_connected"`
	SessionsAliveEnd  int     `json:"sessions_alive_at_end"`
	StalledClients    int     `json:"stalled_clients"`
	DurationMS        float64 `json:"duration_ms"`

	Published       int64   `json:"msgs_published"`
	PublishErrors   int64   `json:"publish_errors"`
	PublishedPerSec float64 `json:"msgs_published_per_sec"`
	Delivered       int64   `json:"events_delivered"`
	DeliveredPerSec float64 `json:"events_delivered_per_sec"`
	ExpectedFanout  int64   `json:"expected_fanout"`
	DeliveryRatio   float64 `json:"delivery_ratio"`

	RequestsOK     int64 `json:"requests_ok"`
	RequestsFailed int64 `json:"requests_failed"`
	Reconnects     int64 `json:"reconnects"`
	ShedDials      int64 `json:"shed_dials"`

	// Per-reason shed breakdown (sums to Shed).
	ShedMaxSessions  int64 `json:"shed_max_sessions"`
	ShedIdentifyRate int64 `json:"shed_identify_rate"`
	ShedTenantRate   int64 `json:"shed_tenant_rate"`

	// Server-side accounting, read from the gateway's registry.
	EventsDropped   int64 `json:"events_dropped"`
	SlowDisconnects int64 `json:"slow_consumer_disconnects"`
	Reaped          int64 `json:"sessions_reaped"`
	Shed            int64 `json:"sessions_shed"`
	Throttled       int64 `json:"requests_throttled"`
	TenantThrottled int64 `json:"tenant_throttled"`
	FaultsInjected  int64 `json:"faults_injected"`
}

// Run executes one load-generation run to completion.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	raiseFDLimit()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}

	var hostPlat *platform.Platform
	if cfg.Target != nil {
		hostPlat = cfg.Target.Platform
	}
	world, err := buildWorld(cfg, hostPlat)
	if err != nil {
		return nil, err
	}
	if world.owned {
		defer world.p.Close()
	}

	var addr string
	var inj *faults.Injector
	if cfg.Target != nil {
		addr = cfg.Target.Addr
	} else {
		srv, err := gateway.NewServer(world.p, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		srv.SetObs(reg)
		srv.SetJournal(cfg.Journal)
		srv.SetLimits(cfg.Limits)
		if cfg.SessionRPS > 0 {
			srv.SetRateLimit(cfg.SessionRPS, cfg.SessionBurst)
		}
		if cfg.FaultProfile != "" && cfg.FaultProfile != "none" {
			prof, err := faults.Named(cfg.FaultProfile)
			if err != nil {
				return nil, err
			}
			inj = faults.New(prof, cfg.FaultSeed, faults.Options{Obs: reg, Journal: cfg.Journal})
			srv.SetFaultPolicy(inj)
		}
		addr = srv.Addr()
	}

	res := &Result{
		Profile:        cfg.FaultProfile,
		Guilds:         cfg.Guilds,
		UsersPerGuild:  cfg.UsersPerGuild,
		SessionsTarget: cfg.Sessions,
		StalledClients: cfg.Stalled,
	}
	if res.Profile == "" {
		res.Profile = "none"
	}
	var (
		delivered  atomic.Int64
		published  atomic.Int64
		pubErrs    atomic.Int64
		expected   atomic.Int64
		reqOK      atomic.Int64
		reqFailed  atomic.Int64
		shedDials  atomic.Int64
		reconnects atomic.Int64
	)

	// Heartbeats keep sessions alive under server-side liveness reaping.
	sdkOpts := botsdk.Options{RequestTimeout: 5 * time.Second}
	if hb := cfg.Limits.HeartbeatTimeout; hb > 0 {
		sdkOpts.HeartbeatEvery = hb / 3
	}

	// Connect the fleet. Shed refusals back off on the server's hint and
	// retry; a session that stays shed past its budget is simply absent
	// from the run (that IS graceful degradation, and it is counted).
	var (
		connMu sync.Mutex
		fleet  []*botsdk.Reconnector
	)
	var wgDial sync.WaitGroup
	dialSlots := make(chan struct{}, 64)
	for i, bot := range world.bots {
		wgDial.Add(1)
		go func(i int, token string) {
			defer wgDial.Done()
			dialSlots <- struct{}{}
			defer func() { <-dialSlots }()
			pol := retry.Policy{
				MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second,
				Multiplier: 2, Jitter: 0.2, Seed: cfg.Seed + int64(i), RetryAfterCap: 2 * time.Second,
			}
			var rc *botsdk.Reconnector
			err := retry.Do(ctx, pol, func(context.Context) error {
				var err error
				rc, err = botsdk.Reconnect(addr, token, sdkOpts)
				if err == nil {
					return nil
				}
				var shed *botsdk.ShedError
				if errors.As(err, &shed) {
					shedDials.Add(1)
					return retry.After(err, shed.RetryAfter)
				}
				return err
			})
			if err != nil {
				return
			}
			rc.OnReconnect = func(int) { reconnects.Add(1) }
			rc.OnMessage(func(_ *botsdk.Session, _ *botsdk.Message) {
				delivered.Add(1)
			})
			connMu.Lock()
			fleet = append(fleet, rc)
			connMu.Unlock()
		}(i, bot.token)
	}
	wgDial.Wait()
	res.SessionsConnected = len(fleet)
	cfg.Logf("loadgen: %d/%d sessions connected (%d shed dials)",
		res.SessionsConnected, cfg.Sessions, shedDials.Load())

	// Stalled clients: identify, then never read — the pathological
	// consumer the slow-consumer policy exists for.
	stallCtx, stopStall := context.WithCancel(ctx)
	defer stopStall()
	var wgStall sync.WaitGroup
	for i := 0; i < cfg.Stalled && i < len(world.stalledBots); i++ {
		wgStall.Add(1)
		go func(token string) {
			defer wgStall.Done()
			stallClient(stallCtx, addr, token)
		}(world.stalledBots[i].token)
	}

	// Traffic window.
	trafficCtx, stopTraffic := context.WithTimeout(ctx, cfg.Duration)
	defer stopTraffic()
	start := time.Now()

	var wgTraffic sync.WaitGroup
	// Publishers: users chatting in every guild.
	for gi, g := range world.guilds {
		wgTraffic.Add(1)
		go func(gi int, g *guildWorld) {
			defer wgTraffic.Done()
			runChatters(trafficCtx, world.p, g, cfg.MsgRate, rand.New(rand.NewSource(cfg.Seed+int64(gi)*7919)),
				&published, &pubErrs, &expected)
		}(gi, g)
	}
	// Responder personas: a slice of the fleet answers the room.
	nResponders := int(float64(len(fleet)) * cfg.ResponderFrac)
	for i := 0; i < nResponders; i++ {
		wgTraffic.Add(1)
		go func(i int, rc *botsdk.Reconnector) {
			defer wgTraffic.Done()
			runResponder(trafficCtx, rc, world, cfg.ReqRate,
				rand.New(rand.NewSource(cfg.Seed+int64(i)*104729)), &reqOK, &reqFailed, &expected)
		}(i, fleet[i])
	}
	wgTraffic.Wait()
	elapsed := time.Since(start)
	// Let queued dispatches drain before the final count.
	time.Sleep(300 * time.Millisecond)

	for _, rc := range fleet {
		if sess := rc.Session(); sess != nil {
			select {
			case <-sess.Done():
			default:
				res.SessionsAliveEnd++
			}
		}
	}
	stopStall()
	wgStall.Wait()
	for _, rc := range fleet {
		rc.Close()
	}

	res.DurationMS = float64(elapsed.Nanoseconds()) / 1e6
	res.Published = published.Load()
	res.PublishErrors = pubErrs.Load()
	res.Delivered = delivered.Load()
	res.ExpectedFanout = expected.Load()
	secs := elapsed.Seconds()
	if secs > 0 {
		res.PublishedPerSec = float64(res.Published) / secs
		res.DeliveredPerSec = float64(res.Delivered) / secs
	}
	if res.ExpectedFanout > 0 {
		res.DeliveryRatio = float64(res.Delivered) / float64(res.ExpectedFanout)
	}
	res.RequestsOK = reqOK.Load()
	res.RequestsFailed = reqFailed.Load()
	res.Reconnects = reconnects.Load()
	res.ShedDials = shedDials.Load()

	res.EventsDropped = reg.Counter("gateway_events_dropped_total").Value()
	res.SlowDisconnects = reg.Counter("gateway_slow_consumer_disconnects_total").Value()
	res.Reaped = reg.Counter("gateway_sessions_reaped_total").Value()
	res.Shed = reg.Counter("gateway_sessions_shed_total").Value()
	res.ShedMaxSessions = reg.Counter("gateway_sessions_shed_max_sessions_total").Value()
	res.ShedIdentifyRate = reg.Counter("gateway_sessions_shed_identify_rate_total").Value()
	res.ShedTenantRate = reg.Counter("gateway_sessions_shed_tenant_rate_total").Value()
	res.Throttled = reg.Counter("gateway_requests_throttled_total").Value()
	res.TenantThrottled = reg.Counter("gateway_tenant_throttled_total").Value()
	if inj != nil {
		res.FaultsInjected = int64(inj.Count())
	} else {
		// Target mode: the host owns the injector; its counter lives on
		// the shared registry.
		res.FaultsInjected = reg.Counter("faults_injected_total").Value()
	}
	return res, nil
}

// world is the synthetic ecosystem one run plays out in.
type world struct {
	p           *platform.Platform
	owned       bool // Run created p and must close it
	guilds      []*guildWorld
	bots        []botRef // connected fleet, round-robin across guilds
	stalledBots []botRef // extra bots reserved for stalled clients
}

type guildWorld struct {
	guild   *platform.Guild
	general platform.ID
	users   []platform.ID
	nBots   int64 // sessions subscribed to this guild (fan-out factor)
}

type botRef struct {
	token string
	guild int // index into world.guilds
}

// buildWorld creates guilds, chatting users, and installed bots. Bot
// ownership is spread over cfg.Tenants owner accounts so per-tenant
// rate limits have tenants to bite on. With a non-nil host platform the
// world is grafted onto it (and the host keeps ownership); otherwise a
// fresh platform is created and owned by the run.
func buildWorld(cfg Config, host *platform.Platform) (*world, error) {
	p := host
	owned := false
	if p == nil {
		p = platform.New(platform.Options{})
		owned = true
	}
	admin := p.CreateUser("lg-admin")
	owners := make([]*platform.User, cfg.Tenants)
	for i := range owners {
		owners[i] = p.CreateUser(fmt.Sprintf("lg-tenant-%d", i))
	}
	w := &world{p: p, owned: owned}
	for gi := 0; gi < cfg.Guilds; gi++ {
		g, err := p.CreateGuild(admin.ID, fmt.Sprintf("lg-guild-%d", gi), false)
		if err != nil {
			return nil, fmt.Errorf("loadgen: create guild: %w", err)
		}
		gw := &guildWorld{guild: g}
		for _, ch := range g.Channels {
			gw.general = ch.ID
		}
		for ui := 0; ui < cfg.UsersPerGuild; ui++ {
			u := p.CreateUser(fmt.Sprintf("lg-user-%d-%d", gi, ui))
			if err := p.JoinGuild(u.ID, g.ID); err != nil {
				return nil, fmt.Errorf("loadgen: join guild: %w", err)
			}
			gw.users = append(gw.users, u.ID)
		}
		w.guilds = append(w.guilds, gw)
	}
	registerBot := func(i int, name string) (botRef, error) {
		owner := owners[i%len(owners)]
		gi := i % len(w.guilds)
		bot, err := p.RegisterBot(owner.ID, fmt.Sprintf("%s-%d", name, i))
		if err != nil {
			return botRef{}, err
		}
		perms := permissions.ViewChannel | permissions.SendMessages | permissions.ReadMessageHistory
		if _, err := p.InstallBot(admin.ID, w.guilds[gi].guild.ID, bot.ID, perms); err != nil {
			return botRef{}, err
		}
		return botRef{token: bot.Token, guild: gi}, nil
	}
	for i := 0; i < cfg.Sessions; i++ {
		ref, err := registerBot(i, "lgbot")
		if err != nil {
			return nil, fmt.Errorf("loadgen: register bot: %w", err)
		}
		w.bots = append(w.bots, ref)
		w.guilds[ref.guild].nBots++
	}
	for i := 0; i < cfg.Stalled; i++ {
		ref, err := registerBot(i, "lgstall")
		if err != nil {
			return nil, fmt.Errorf("loadgen: register stalled bot: %w", err)
		}
		w.stalledBots = append(w.stalledBots, ref)
		// Stalled clients subscribe too; they are part of the fan-out the
		// server must survive, but not of the delivery expectation.
	}
	return w, nil
}
