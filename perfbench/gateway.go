package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/botsdk"
	"repro/internal/corpus"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// gatewayInputs shape the gateway workload: a self-hosted platform and
// gateway with Sessions bot sessions, each installed in every guild, and
// one publisher posting corpus text through platform.SendMessage.
type gatewayInputs struct {
	Sessions        int     `json:"sessions"`
	Guilds          int     `json:"guilds"`
	FanoutMessages  int     `json:"fanout_messages"`
	FanoutWindow    int     `json:"fanout_window"`
	SteadyRate      float64 `json:"steady_msgs_per_s"`
	SteadyMS        int     `json:"steady_ms"`
	RequestRate     float64 `json:"requests_per_s_per_session"`
	HistoryLimit    int     `json:"history_limit"`
	AttachmentEvery int     `json:"attachment_every"`
	AttachmentBytes int     `json:"attachment_bytes"`
}

func (in gatewayInputs) steadyMessages() int { return int(in.SteadyRate * float64(in.SteadyMS) / 1000) }

// gatewayWorkload: phase (a) is a closed loop of FanoutMessages with at
// most FanoutWindow messages undelivered; phase (b) is an open loop at
// SteadyRate while every session issues paced Send and History
// requests. On a busy 2-vCPU machine 10k msgs/s occasionally overflowed
// the 256-slot subscription buffer on pacing bursts; 5k msgs/s leaves
// the margin for the phase to lose nothing.
var gatewayWorkload = gatewayInputs{
	Sessions: runtime.NumCPU(), Guilds: 4,
	FanoutMessages: 50000, FanoutWindow: 64,
	SteadyRate: 5000, SteadyMS: 2000,
	RequestRate: 100, HistoryLimit: 20,
	AttachmentEvery: 10, AttachmentBytes: 512,
}

// stallTimeout bounds how long a phase waits without any delivery
// progress before it counts the missing deliveries as lost.
const stallTimeout = 5 * time.Second

// gwMessage is one pre-generated publisher message.
type gwMessage struct {
	text string
	att  []byte
}

// gwSession tracks one bot session's deliveries per phase.
type gwSession struct {
	s *botsdk.Session

	got [2]atomic.Int64 // distinct deliveries per phase: 0 fan-out, 1 steady
	mu  sync.Mutex
	// seen marks delivered sequence numbers per phase, so duplicates
	// and losses are both visible.
	seen [2][]bool
	dups int64
}

// gwWorld is one set-up gateway world.
type gwWorld struct {
	p        *platform.Platform
	srv      *gateway.Server
	reg      *obs.Registry
	owner    platform.ID
	ownerStr string
	channels []platform.ID
	sessions []*gwSession
	progress chan struct{}
	setup    time.Duration

	// The steady phase's schedule, read by the delivery handlers.
	steadyStart    atomic.Int64 // unix nanos of message 0's due time
	steadyInterval atomic.Int64 // nanoseconds between due times
	deliver        latencies
}

// newGatewayWorld builds the platform, guilds and bots, starts the
// gateway and dials every session — the set-up the benchmark times.
func newGatewayWorld(in gatewayInputs) (*gwWorld, error) {
	start := time.Now()
	reg := obs.NewRegistry()
	p := platform.New(platform.Options{Obs: reg})
	w := &gwWorld{p: p, reg: reg, progress: make(chan struct{}, 1)}
	owner := p.CreateUser("bench-owner")
	w.owner, w.ownerStr = owner.ID, owner.ID.String()
	var guilds []platform.ID
	for gi := 0; gi < in.Guilds; gi++ {
		g, err := p.CreateGuild(owner.ID, fmt.Sprintf("bench-guild-%d", gi), false)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("create guild: %w", err)
		}
		guilds = append(guilds, g.ID)
		for _, ch := range g.Channels {
			w.channels = append(w.channels, ch.ID)
			break
		}
	}
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	srv.SetObs(reg)
	w.srv = srv
	perms := permissions.ViewChannel | permissions.SendMessages | permissions.ReadMessageHistory
	for i := 0; i < in.Sessions; i++ {
		bot, err := p.RegisterBot(owner.ID, fmt.Sprintf("bench-bot-%d", i))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("register bot: %w", err)
		}
		for _, gid := range guilds {
			if _, err := p.InstallBot(owner.ID, gid, bot.ID, perms); err != nil {
				w.close()
				return nil, fmt.Errorf("install bot: %w", err)
			}
		}
		s, err := botsdk.Dial(srv.Addr(), bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial session: %w", err)
		}
		gs := &gwSession{s: s}
		w.sessions = append(w.sessions, gs)
		s.OnMessage(func(_ *botsdk.Session, m *botsdk.Message) { w.onMessage(gs, m) })
	}
	w.setup = time.Since(start)
	return w, nil
}

func (w *gwWorld) close() {
	for _, gs := range w.sessions {
		gs.s.Close()
	}
	w.srv.Close()
	w.p.Close()
}

// onMessage accounts one delivery. Publisher messages carry their phase
// and sequence number as "f<seq> " or "s<seq> "; the bots' own request
// traffic is ignored.
func (w *gwWorld) onMessage(gs *gwSession, m *botsdk.Message) {
	now := time.Now()
	if m.AuthorBot || m.AuthorID != w.ownerStr || len(m.Content) < 2 {
		return
	}
	phase := 0
	if m.Content[0] == 's' {
		phase = 1
	}
	end := strings.IndexByte(m.Content, ' ')
	if end < 0 {
		return
	}
	seq, err := strconv.Atoi(m.Content[1:end])
	if err != nil {
		return
	}
	if phase == 1 {
		due := time.Unix(0, w.steadyStart.Load()).Add(time.Duration(int64(seq) * w.steadyInterval.Load()))
		w.deliver.add(now.Sub(due))
	}
	gs.mu.Lock()
	if seen := gs.seen[phase]; seq < len(seen) && !seen[seq] {
		seen[seq] = true
		gs.mu.Unlock()
		gs.got[phase].Add(1)
	} else {
		gs.dups++
		gs.mu.Unlock()
	}
	select {
	case w.progress <- struct{}{}:
	default:
	}
}

func (w *gwWorld) minGot(phase int) int64 {
	min := int64(-1)
	for _, gs := range w.sessions {
		if n := gs.got[phase].Load(); min < 0 || n < min {
			min = n
		}
	}
	return min
}

// awaitProgress blocks until some delivery lands or stallTimeout passes.
func (w *gwWorld) awaitProgress() bool {
	t := time.NewTimer(stallTimeout)
	defer t.Stop()
	select {
	case <-w.progress:
		return true
	case <-t.C:
		return false
	}
}

// drain waits until every session has n deliveries of phase, or until
// deliveries stop arriving.
func (w *gwWorld) drain(phase int, n int64) {
	for w.minGot(phase) < n {
		if !w.awaitProgress() {
			return
		}
	}
}

func (w *gwWorld) resetPhase(phase, n int) {
	for _, gs := range w.sessions {
		gs.mu.Lock()
		gs.seen[phase] = make([]bool, n)
		gs.mu.Unlock()
	}
}

func (w *gwWorld) publish(phase byte, seq int, msg gwMessage) error {
	ch := w.channels[seq%len(w.channels)]
	text := string(phase) + strconv.Itoa(seq) + " " + msg.text
	var err error
	if msg.att != nil {
		_, err = w.p.SendMessage(w.owner, ch, text, platform.Attachment{Filename: "notes.txt", ContentType: "text/plain", Data: msg.att})
	} else {
		_, err = w.p.SendMessage(w.owner, ch, text)
	}
	return err
}

// gwIter is one iteration's measurements: set-up, then the fan-out and
// steady phases on the same world.
type gwIter struct {
	Setup            time.Duration    `json:"-"`
	SetupS           float64          `json:"setup_s"`
	FanoutWallS      float64          `json:"fanout_wall_s"`
	FanoutDeliveries int64            `json:"fanout_deliveries"`
	FanoutPerS       float64          `json:"fanout_deliveries_per_s"`
	CPUS             float64          `json:"fanout_cpu_s"` // the workload's cpu_s: fixed closed-loop work
	SteadyCPUS       float64          `json:"steady_cpu_s"`
	Expected         int64            `json:"expected_deliveries"`
	Delivered        int64            `json:"delivered"`
	Duplicates       int64            `json:"duplicates"`
	PublishErrors    int64            `json:"publish_errors"`
	RequestsOK       int64            `json:"requests_ok"`
	RequestsFailed   int64            `json:"requests_failed"`
	RequestsThrottle int64            `json:"requests_throttled"`
	PaceWaitS        float64          `json:"pace_wait_s"`
	SteadyWallS      float64          `json:"steady_wall_s"`
	WallS            float64          `json:"wall_s"`
	Counters         map[string]int64 `json:"counters"`

	deliver, send, history, late, platformSend []float64
}

// gatewayMessages pre-generates the publisher's corpus messages.
func gatewayMessages(in gatewayInputs, seed int64, n int) []gwMessage {
	gen := corpus.New(seed)
	rng := rand.New(rand.NewSource(seed))
	personas := gen.Personas(8)
	msgs := make([]gwMessage, n)
	for i := range msgs {
		msgs[i].text = gen.Message(personas[i%len(personas)])
		if in.AttachmentEvery > 0 && i%in.AttachmentEvery == 0 {
			b := make([]byte, in.AttachmentBytes)
			rng.Read(b)
			msgs[i].att = b
		}
	}
	return msgs
}

// gatewayIteration sets up a world, runs both phases and tears it down.
// With traced set, every SendMessage is timed individually.
func gatewayIteration(in gatewayInputs, fanout, steady []gwMessage, traced bool) (*gwIter, []string, error) {
	w, err := newGatewayWorld(in)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	it := &gwIter{Setup: w.setup, SetupS: w.setup.Seconds()}
	var publishErrs int64
	start := time.Now()
	cpu0 := cpuTime()

	// (a) fan-out: closed loop with a bounded window of undelivered
	// messages.
	w.resetPhase(0, len(fanout))
	t0 := time.Now()
	for seq, msg := range fanout {
		for int64(seq)-w.minGot(0) >= int64(in.FanoutWindow) {
			if !w.awaitProgress() {
				break
			}
		}
		if err := w.publish('f', seq, msg); err != nil {
			publishErrs++
		}
	}
	w.drain(0, int64(len(fanout)))
	fanoutWall := time.Since(t0)
	it.CPUS = (cpuTime() - cpu0).Seconds()
	cpu1 := cpuTime()
	for _, gs := range w.sessions {
		it.FanoutDeliveries += gs.got[0].Load()
	}

	// (b) steady: open loop at a fixed rate, each delivery timed from its
	// message's due time, with paced requests from every session.
	w.resetPhase(1, len(steady))
	interval := time.Duration(float64(time.Second) / in.SteadyRate)
	due0 := time.Now().Add(time.Millisecond)
	w.steadyInterval.Store(int64(interval))
	w.steadyStart.Store(due0.UnixNano())
	end := due0.Add(time.Duration(len(steady)) * interval)
	var sendLat, histLat latencies
	var reqOK, reqFailed, reqThrottled atomic.Int64
	var wg sync.WaitGroup
	for i, gs := range w.sessions {
		wg.Add(1)
		go func(i int, s *botsdk.Session) {
			defer wg.Done()
			requester(s, w.channels, in, i, end, &sendLat, &histLat, &reqOK, &reqFailed, &reqThrottled)
		}(i, gs.s)
	}
	var paced time.Duration
	late := make([]float64, 0, len(steady))
	var platformSend []float64
	for seq, msg := range steady {
		due := due0.Add(time.Duration(seq) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			paced += d
		}
		now := time.Now()
		late = append(late, ms(now.Sub(due)))
		if err := w.publish('s', seq, msg); err != nil {
			publishErrs++
		}
		if traced {
			platformSend = append(platformSend, float64(time.Since(now).Nanoseconds())/1e3)
		}
	}
	wg.Wait()
	w.drain(1, int64(len(steady)))
	it.SteadyWallS = time.Since(due0).Seconds()
	it.SteadyCPUS = (cpuTime() - cpu1).Seconds()
	it.WallS = time.Since(start).Seconds()

	it.Expected = int64(len(w.sessions) * (len(fanout) + len(steady)))
	for _, gs := range w.sessions {
		gs.mu.Lock()
		it.Duplicates += gs.dups
		gs.mu.Unlock()
		it.Delivered += gs.got[0].Load() + gs.got[1].Load()
	}
	it.PublishErrors = publishErrs
	it.RequestsOK, it.RequestsFailed, it.RequestsThrottle = reqOK.Load(), reqFailed.Load(), reqThrottled.Load()
	it.PaceWaitS = paced.Seconds()
	it.FanoutWallS = fanoutWall.Seconds()
	it.FanoutPerS = float64(it.FanoutDeliveries) / fanoutWall.Seconds()
	it.Counters = map[string]int64{}
	for _, name := range []string{
		"gateway_events_out_total", "gateway_events_dropped_total", "gateway_sub_events_dropped_total",
		"gateway_requests_total", "gateway_requests_throttled_total", "platform_messages_total",
	} {
		it.Counters[name] = w.reg.Counter(name).Value()
	}
	it.deliver, it.send, it.history = w.deliver.values(), sendLat.values(), histLat.values()
	it.late, it.platformSend = late, platformSend

	var problems []string
	if lost := it.Expected - it.Delivered; lost != 0 {
		problems = append(problems, fmt.Sprintf("%d of %d deliveries lost", lost, it.Expected))
	}
	if it.Duplicates > 0 {
		problems = append(problems, fmt.Sprintf("%d duplicate deliveries", it.Duplicates))
	}
	if it.PublishErrors > 0 || it.RequestsFailed > 0 || it.RequestsThrottle > 0 {
		problems = append(problems, fmt.Sprintf("%d publish errors, %d failed and %d throttled requests",
			it.PublishErrors, it.RequestsFailed, it.RequestsThrottle))
	}
	return it, problems, nil
}

// requester issues one session's paced requests until end, alternating
// Send and History across the guilds' channels.
func requester(s *botsdk.Session, channels []platform.ID, in gatewayInputs, idx int, end time.Time,
	sendLat, histLat *latencies, ok, failed, throttled *atomic.Int64) {
	interval := time.Duration(float64(time.Second) / in.RequestRate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ch := channels[(idx+k)%len(channels)].String()
		t := time.Now()
		var err error
		if k%2 == 0 {
			if _, err = s.Send(ch, fmt.Sprintf("bot %d reply %d", idx, k)); err == nil {
				sendLat.add(time.Since(t))
			}
		} else {
			var msgs []*botsdk.Message
			msgs, err = s.History(ch, in.HistoryLimit)
			if err == nil && (len(msgs) == 0 || len(msgs) > in.HistoryLimit) {
				err = fmt.Errorf("history returned %d messages", len(msgs))
			}
			if err == nil {
				histLat.add(time.Since(t))
			}
		}
		var shed *botsdk.ShedError
		switch {
		case err == nil:
			ok.Add(1)
		case errors.Is(err, botsdk.ErrRateLimited) || errors.As(err, &shed):
			throttled.Add(1)
		default:
			failed.Add(1)
		}
	}
}

// gatewayRun collects iterations and their problems.
type gatewayRun struct {
	iters    []*gwIter
	setups   []time.Duration
	worlds   []time.Duration // the world-and-dial part of each set-up
	problems []string
}

func (r *gatewayRun) pooled(pick func(*gwIter) []float64) []float64 {
	var all []float64
	for _, it := range r.iters {
		all = append(all, pick(it)...)
	}
	return all
}

// measureGateway repeats iterations until budget has elapsed.
func measureGateway(in gatewayInputs, seed int64, budget time.Duration) (*outcome, error) {
	// Set-up is generating the messages, building the world and dialing
	// its sessions. The world alone takes well under a millisecond and
	// its time swings with scheduler wake-ups, so the generated inputs
	// are part of every set-up sample, as synth.Generate is on audits.
	// The first few samples run on a cold heap and read high; three
	// times the audits' sample count keeps the median past them.
	r := &gatewayRun{}
	var fanout, steady []gwMessage
	for len(r.setups) < 3*setupSamples {
		// Every sample starts from the same collected heap.
		fanout, steady = nil, nil
		runtime.GC()
		start := time.Now()
		fanout = gatewayMessages(in, seed, in.FanoutMessages)
		steady = gatewayMessages(in, seed+1, in.steadyMessages())
		w, err := newGatewayWorld(in)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
		r.worlds = append(r.worlds, w.setup)
		w.close()
	}
	// One unmeasured iteration first, so the heap has grown and the
	// runtime has warmed up before any timing.
	if _, _, err := gatewayIteration(in, fanout, steady, false); err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	for len(r.iters) == 0 || time.Since(start) < budget {
		it, problems, err := gatewayIteration(in, fanout, steady, false)
		if err != nil {
			return nil, err
		}
		r.iters = append(r.iters, it)
		r.problems = append(r.problems, problems...)
		runtime.GC()
	}

	out := r.outcome(in)
	var perS, cpu []float64
	for _, it := range r.iters {
		perS = append(perS, it.FanoutPerS)
		cpu = append(cpu, it.CPUS)
	}
	out.set("setup_s", median(seconds(r.setups)), "s")
	out.set("items_per_s", median(perS), "1/s")
	out.set("cpu_s", median(cpu), "s")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	return out, nil
}

// outcome folds the iterations into the shared accounting and record:
// every expected delivery, publish and request is an attempt; lost or
// duplicated deliveries and failed, throttled or shed requests fail.
func (r *gatewayRun) outcome(in gatewayInputs) *outcome {
	out := &outcome{inputs: in, problems: r.problems}
	for _, it := range r.iters {
		reqs := it.RequestsOK + it.RequestsFailed + it.RequestsThrottle
		out.res.Attempted += it.Expected + reqs
		out.res.Failed += it.Expected - it.Delivered + it.Duplicates + it.PublishErrors + it.RequestsFailed + it.RequestsThrottle
	}
	deliver := r.pooled(func(it *gwIter) []float64 { return it.deliver })
	requests := r.pooled(func(it *gwIter) []float64 { return append(append([]float64(nil), it.send...), it.history...) })
	late := r.pooled(func(it *gwIter) []float64 { return it.late })
	out.samples = map[string]int{
		"iterations": len(r.iters), "setups": len(r.setups),
		"deliver_latency": len(deliver), "request_latency": len(requests), "generator_lateness": len(late),
	}
	out.detail = map[string]any{
		"iterations":     r.iters,
		"setups_s":       seconds(r.setups),
		"world_setups_s": seconds(r.worlds),
		"deliver_p50_ms": quantile(deliver, 0.5), "deliver_p99_ms": quantile(deliver, 0.99),
		"request_p50_ms": quantile(requests, 0.5), "request_p99_ms": quantile(requests, 0.99),
		"gen_late_p50_ms": quantile(late, 0.5), "gen_late_p99_ms": quantile(late, 0.99),
	}
	return out
}
