package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
)

// Server accepts bot connections and bridges them to the platform.
type Server struct {
	p  *platform.Platform
	ln net.Listener

	mu         sync.Mutex
	sessions   map[*session]struct{}
	handshakes map[net.Conn]struct{} // accepted, not yet a session
	seenBots   map[platform.ID]bool  // for distinguishing reconnects
	closed     bool
	wg         sync.WaitGroup

	intercept func(bot *platform.User, method string, args map[string]any) error
	faults    FaultPolicy

	// traffic plane (admission, backpressure, liveness)
	limits      Limits
	admitted    int // connections holding an admission slot (incl. handshakes)
	identBucket bucket
	tenants     map[platform.ID]*bucket
	tenantIdent map[platform.ID]*bucket

	// per-session rate limiting (zero = disabled)
	rateRPS   float64
	rateBurst float64

	// observability
	cConnections *obs.Counter
	cReconnects  *obs.Counter
	cEventsOut   *obs.Counter
	cWrites      *obs.Counter
	cRequests    *obs.Counter
	cShed        *obs.Counter
	cShedBy      map[string]*obs.Counter
	cDropped     *obs.Counter
	cReaped      *obs.Counter
	cSlowClosed  *obs.Counter
	cThrottled   *obs.Counter
	cTenantThrot *obs.Counter
	gSessions    *obs.Gauge
	journal      *journal.Journal

	// Logf receives connection-level diagnostics; defaults to a no-op.
	Logf func(format string, args ...any)
}

// SetObs points the server's metrics at a registry; by default they go
// to the process-wide one. Call it before bots connect.
func (s *Server) SetObs(r *obs.Registry) {
	reg := obs.Or(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cConnections = reg.Counter("gateway_connections_total")
	s.cReconnects = reg.Counter("gateway_reconnects_total")
	s.cEventsOut = reg.Counter("gateway_events_out_total")
	s.cWrites = reg.Counter("gateway_socket_writes_total")
	s.cRequests = reg.Counter("gateway_requests_total")
	s.cShed = reg.Counter("gateway_sessions_shed_total")
	s.cShedBy = make(map[string]*obs.Counter, len(ShedReasons))
	for _, reason := range ShedReasons {
		s.cShedBy[reason] = reg.Counter("gateway_sessions_shed_" + reason + "_total")
	}
	s.cDropped = reg.Counter("gateway_events_dropped_total")
	s.cReaped = reg.Counter("gateway_sessions_reaped_total")
	s.cSlowClosed = reg.Counter("gateway_slow_consumer_disconnects_total")
	s.cThrottled = reg.Counter("gateway_requests_throttled_total")
	s.cTenantThrot = reg.Counter("gateway_tenant_throttled_total")
	s.gSessions = reg.Gauge("gateway_sessions")
}

// SetJournal attaches an event journal: session lifecycle
// (session_opened/session_closed), shedding (session_shed), slow-consumer
// losses (events_dropped), and every bot request denied for missing
// permissions (permission_denied) are recorded. A nil journal disables
// emission.
func (s *Server) SetJournal(j *journal.Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

func (s *Server) getJournal() *journal.Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal
}

// ShedReasons enumerates every reason the gateway refuses a connection
// with a shedding frame, in the order reports render them. Each has a
// dedicated counter (gateway_sessions_shed_<reason>_total) alongside the
// aggregate gateway_sessions_shed_total, so shed accounting can be
// reconciled per cause.
var ShedReasons = []string{"max_sessions", "identify_rate", "tenant_rate"}

// FaultPolicy lets a chaos harness interfere with the event stream:
// for each outbound event frame destined for a bot it may order the
// frame dropped or the whole session disconnected. Implementations
// must be safe for concurrent use. The interface is structural so the
// fault injector can satisfy it without the gateway importing it.
type FaultPolicy interface {
	EventFault(bot string) (drop, disconnect bool)
}

// SetFaultPolicy installs (or, with nil, removes) a fault policy
// consulted for every dispatched event frame.
func (s *Server) SetFaultPolicy(p FaultPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = p
}

func (s *Server) getFaults() FaultPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// SetRateLimit enables per-session request throttling, like Discord's
// REST rate limits: bots may issue rps sustained requests per second
// with the given burst. Throttled requests receive a response whose
// error is ErrRateLimited and whose RetryAfterMS suggests a backoff.
func (s *Server) SetRateLimit(rps float64, burst int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rateRPS = rps
	s.rateBurst = float64(burst)
	if s.rateBurst <= 0 {
		s.rateBurst = 5
	}
}

// SetLimits installs the traffic-plane configuration: admission caps,
// identify throttling, per-tenant rate limits, bounded send queues with
// a slow-consumer policy, write deadlines, and heartbeat liveness.
// Call it before bots connect; already-established sessions keep the
// limits they were admitted under.
func (s *Server) SetLimits(l Limits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limits = l.withDefaults()
}

// Limits reports the active traffic-plane configuration.
func (s *Server) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// SetInterceptor installs a runtime policy hook consulted before every
// bot request. A non-nil error denies the request with that message.
// Discord ships no such enforcer (the paper's central observation);
// Slack/MS Teams-style platforms do — internal/enforcer implements one
// so the two models can be compared.
func (s *Server) SetInterceptor(f func(bot *platform.User, method string, args map[string]any) error) {
	s.mu.Lock()
	s.intercept = f
	s.mu.Unlock()
}

func (s *Server) interceptor() func(bot *platform.User, method string, args map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intercept
}

// NewServer starts a gateway listening on addr (use "127.0.0.1:0" for an
// ephemeral port).
func NewServer(p *platform.Platform, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	s := &Server{
		p:           p,
		ln:          ln,
		sessions:    make(map[*session]struct{}),
		handshakes:  make(map[net.Conn]struct{}),
		seenBots:    make(map[platform.ID]bool),
		tenants:     make(map[platform.ID]*bucket),
		tenantIdent: make(map[platform.ID]*bucket),
		limits:      Limits{}.withDefaults(),
		Logf:        func(string, ...any) {},
	}
	s.SetObs(nil)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address, e.g. to hand to bot clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection still in its
// handshake, and tears down every session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	handshakes := make([]net.Conn, 0, len(s.handshakes))
	for conn := range s.handshakes {
		handshakes = append(handshakes, conn)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, conn := range handshakes {
		conn.Close()
	}
	for _, sess := range sessions {
		sess.closeWith("server_closed")
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.handshakes[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// admit reserves an admission slot for a fresh connection, applying the
// session cap and the identify-rate throttle. On refusal it returns the
// shed reason and a backoff hint for the client.
func (s *Server) admit() (limits Limits, reason string, retryAfter time.Duration, ok bool) {
	s.mu.Lock()
	limits = s.limits
	if s.closed {
		s.mu.Unlock()
		return limits, "server_closed", 0, false
	}
	if limits.MaxSessions > 0 && s.admitted >= limits.MaxSessions {
		s.mu.Unlock()
		return limits, "max_sessions", 250 * time.Millisecond, false
	}
	s.admitted++
	s.mu.Unlock()
	if wait, limited := s.identBucket.take(limits.IdentifyRPS, float64(limits.IdentifyBurst)); limited {
		s.releaseAdmit()
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		return limits, "identify_rate", wait, false
	}
	return limits, "", 0, true
}

func (s *Server) releaseAdmit() {
	s.mu.Lock()
	s.admitted--
	s.mu.Unlock()
}

// shed refuses a connection with an explicit shedding frame so clients
// can distinguish overload (back off and retry) from rejection.
func (s *Server) shed(conn net.Conn, reason string, retryAfter, writeTimeout time.Duration) {
	s.cShed.Inc()
	if c, ok := s.cShedBy[reason]; ok {
		c.Inc()
	}
	s.getJournal().Emit(journal.Event{
		Kind:      journal.KindSessionShed,
		Component: "gateway",
		Fields: map[string]any{
			"reason":         reason,
			"remote":         conn.RemoteAddr().String(),
			"retry_after_ms": retryAfter.Milliseconds(),
		},
	})
	writeFrame(conn, Frame{
		Op: OpError, Err: ErrShedding, RetryAfterMS: retryAfter.Milliseconds(),
	}, writeTimeout)
}

// tenantBucket returns the shared rate bucket for a bot owner.
func (s *Server) tenantBucket(owner platform.ID) *bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenants[owner]
	if !ok {
		b = &bucket{}
		s.tenants[owner] = b
	}
	return b
}

// tenantIdentBucket returns the per-owner identify throttle bucket,
// distinct from the request-path tenant bucket so reconnect storms and
// request floods are limited (and accounted) independently.
func (s *Server) tenantIdentBucket(owner platform.ID) *bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.tenantIdent[owner]
	if !ok {
		b = &bucket{}
		s.tenantIdent[owner] = b
	}
	return b
}

// writeFrame encodes one frame straight onto the connection under a
// write deadline. Only pre-session handshake errors and shed refusals
// use it; established sessions write through their writer goroutine.
func writeFrame(conn net.Conn, f Frame, timeout time.Duration) error {
	b, err := AppendFrame(nil, &f)
	if err != nil {
		return err
	}
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err = conn.Write(b)
	return err
}

// session is one authenticated bot connection, served by two
// goroutines: serve reads frames and answers requests, and writeLoop
// owns the socket's write side. Two bounded channels feed the writer:
// control (ready frames, responses, acks; enqueue blocks with a
// deadline) and events (the platform events the subscription callback
// queues under the slow-consumer policy; the writer encodes each one as
// it drains it).
type session struct {
	srv  *Server
	conn net.Conn
	bot  *platform.User
	sub  *platform.Subscription

	limits  Limits
	control chan Frame
	events  chan platform.Event
	done    chan struct{}

	sent    atomic.Int64 // frames a successful write sent to the socket
	dropped atomic.Int64 // events the slow-consumer policy discarded
	writes  int64        // the writer's socket writes not yet counted on cWrites

	rate bucket

	closeOnce   sync.Once
	reasonMu    sync.Mutex
	closeReason string
}

var errSessionClosed = errors.New("gateway: session closed")

// closeWith tears the session down once, remembering why for the
// session_closed journal event.
func (sess *session) closeWith(reason string) {
	sess.closeOnce.Do(func() {
		sess.reasonMu.Lock()
		sess.closeReason = reason
		sess.reasonMu.Unlock()
		close(sess.done)
		sess.conn.Close()
	})
}

func (sess *session) reason() string {
	sess.reasonMu.Lock()
	defer sess.reasonMu.Unlock()
	if sess.closeReason == "" {
		return "peer_closed"
	}
	return sess.closeReason
}

// drainSize is the size past which a drain takes no further frame.
// drainBufs keeps drain buffers between drains, so an idle session
// holds none; one that an oversized frame grew past 4*drainSize is left
// to the collector.
const drainSize = 32 << 10

var drainBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2*drainSize); return &b }}

// writeLoop is the session's single socket writer. It blocks for one
// frame, then appends every frame already queued to one pooled buffer
// until the queues are empty or the buffer holds drainSize bytes, and
// sends the buffer in one socket write under a fresh WriteTimeout
// deadline. Control frames are taken before event frames at every step,
// so a flood of dispatches can never starve a response or heartbeat ack.
func (sess *session) writeLoop() {
	for {
		f, ok := sess.next(true)
		if !ok {
			return
		}
		bp := drainBufs.Get().(*[]byte)
		b := (*bp)[:0]
		var frames, events int64
		var err error
		for ok {
			if b, err = AppendFrame(b, &f); err != nil {
				break
			}
			frames++
			if f.Op == OpDispatch {
				events++
			}
			if len(b) >= drainSize {
				break
			}
			f, ok = sess.next(false)
		}
		if err == nil {
			sess.conn.SetWriteDeadline(time.Now().Add(sess.limits.WriteTimeout))
			_, err = sess.conn.Write(b)
		}
		if cap(b) <= 4*drainSize {
			*bp = b
			drainBufs.Put(bp)
		}
		if err != nil {
			sess.closeWith("write_error")
			return
		}
		sess.sent.Add(frames)
		sess.writes++
		// Read the shared counters only once an event went out: SetObs
		// may swap them after the ready frame was written, and only an
		// event published since orders that swap before this read.
		if events > 0 {
			sess.srv.cEventsOut.Add(events)
			sess.srv.cWrites.Add(sess.writes)
			sess.writes = 0
		}
	}
}

// next takes one queued frame, control before events. With wait it
// blocks until a frame arrives or the session closes; without, it
// reports false as soon as both queues are empty.
func (sess *session) next(wait bool) (Frame, bool) {
	select {
	case f := <-sess.control:
		return f, true
	default:
	}
	if !wait {
		select {
		case e := <-sess.events:
			return sess.dispatchFrame(e), true
		default:
			return Frame{}, false
		}
	}
	select {
	case f := <-sess.control:
		return f, true
	case e := <-sess.events:
		return sess.dispatchFrame(e), true
	case <-sess.done:
		return Frame{}, false
	}
}

func (sess *session) dispatchFrame(e platform.Event) Frame {
	return Frame{Op: OpDispatch, Type: string(e.Type), Event: encodeEvent(sess.srv.p, e)}
}

// send enqueues a control frame (ready, response, ack, error), blocking
// up to the write timeout. A session that cannot absorb its own control
// traffic within the deadline is disconnected.
func (sess *session) send(f Frame) error {
	select {
	case sess.control <- f:
		return nil
	case <-sess.done:
		return errSessionClosed
	default:
	}
	t := time.NewTimer(sess.limits.WriteTimeout)
	defer t.Stop()
	select {
	case sess.control <- f:
		return nil
	case <-sess.done:
		return errSessionClosed
	case <-t.C:
		sess.srv.cSlowClosed.Inc()
		sess.closeWith("slow_consumer")
		return errSessionClosed
	}
}

// onEvent is the session's platform subscription callback. It runs on
// the bus's dispatcher goroutine and must not block: it filters the
// event, applies the fault policy, then queues the event under the
// slow-consumer policy.
func (sess *session) onEvent(e platform.Event) {
	s, bot := sess.srv, sess.bot
	// Deliver only events in guilds this bot belongs to, and not the
	// bot's own messages (Discord bots receive their own messages, but
	// our honeypot bots never need the echo; suppressing it avoids
	// self-trigger loops). Interactions are addressed to one bot; other
	// bots in the guild never see them.
	switch {
	case e.Type == platform.EventMessageCreate && e.UserID == bot.ID:
		return
	case e.Type == platform.EventInteractionCreate:
		if e.Interaction == nil || e.Interaction.BotID != bot.ID {
			return
		}
	case !s.p.IsMember(e.GuildID, bot.ID):
		return
	}
	// A closed session's writer is gone: it takes no fault decision and
	// counts no loss.
	select {
	case <-sess.done:
		return
	default:
	}
	if fp := s.getFaults(); fp != nil {
		drop, disconnect := fp.EventFault(bot.Name)
		if disconnect {
			sess.closeWith("fault_disconnect")
			return
		}
		if drop {
			return
		}
	}
	select {
	case sess.events <- e:
		return
	default:
	}
	switch sess.limits.SlowConsumer {
	case SlowDropOldest:
		// Evict the oldest queued event to make room. This callback is
		// the queue's only sender, so the send after it cannot block.
		select {
		case <-sess.events:
			sess.noteDropped()
		default:
		}
		sess.events <- e
	case SlowDisconnect:
		s.cSlowClosed.Inc()
		sess.closeWith("slow_consumer")
	default: // SlowBlock: the newest event is the one lost
		sess.noteDropped()
	}
}

func (sess *session) noteDropped() {
	sess.dropped.Add(1)
	sess.srv.cDropped.Inc()
}

// throttled applies the per-session token bucket; it returns the
// suggested backoff when the request must be rejected.
func (s *Server) throttled(sess *session) (time.Duration, bool) {
	s.mu.Lock()
	rps, burst := s.rateRPS, s.rateBurst
	s.mu.Unlock()
	return sess.rate.take(rps, burst)
}

// identifyMax bounds the identify line, the one frame a peer sends
// before it has shown a token.
const identifyMax = 64 << 10

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	defer func() {
		s.mu.Lock()
		delete(s.handshakes, conn)
		s.mu.Unlock()
	}()
	fr := NewFrameReader(conn)

	limits, reason, retryAfter, ok := s.admit()
	if !ok {
		if reason != "server_closed" {
			s.shed(conn, reason, retryAfter, limits.WriteTimeout)
		}
		return
	}
	defer s.releaseAdmit()

	// First frame must identify within a deadline, on a line of at most
	// identifyMax bytes: it is read before the token is checked.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr.max = identifyMax
	var hello Frame
	if err := fr.ReadFrame(&hello); err != nil {
		return
	}
	fr.max = 0
	conn.SetReadDeadline(time.Time{})
	if hello.Op != OpIdentify {
		writeFrame(conn, Frame{Op: OpError, Err: "expected identify"}, limits.WriteTimeout)
		return
	}
	bot, err := s.p.BotByToken(hello.Token)
	if err != nil {
		writeFrame(conn, Frame{Op: OpError, Err: "invalid token"}, limits.WriteTimeout)
		return
	}
	if limits.TenantIdentifyRPS > 0 {
		tb := s.tenantIdentBucket(bot.OwnerID)
		if wait, limited := tb.take(limits.TenantIdentifyRPS, float64(limits.TenantIdentifyBurst)); limited {
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			s.shed(conn, "tenant_rate", wait, limits.WriteTimeout)
			return
		}
	}

	sess := &session{
		srv:     s,
		conn:    conn,
		bot:     bot,
		limits:  limits,
		control: make(chan Frame, 32),
		events:  make(chan platform.Event, limits.SendQueue),
		done:    make(chan struct{}),
	}
	sess.sub = s.p.Subscribe(sess.onEvent)
	var guilds []string
	for _, gid := range s.p.GuildsOf(bot.ID) {
		guilds = append(guilds, gid.String())
	}
	// The writer takes control frames before events, so the ready frame
	// queued before it starts precedes every dispatch.
	sess.control <- Frame{Op: OpReady, BotID: bot.ID.String(), BotName: bot.Name, GuildIDs: guilds}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.p.Unsubscribe(sess.sub)
		return
	}
	s.sessions[sess] = struct{}{}
	delete(s.handshakes, conn)
	s.cConnections.Inc()
	if s.seenBots[bot.ID] {
		s.cReconnects.Inc()
	}
	s.seenBots[bot.ID] = true
	s.gSessions.Add(1)
	nSessions := len(s.sessions)
	s.mu.Unlock()
	s.getJournal().Emit(journal.Event{
		Kind:      journal.KindSessionOpened,
		Component: "gateway",
		Bot:       bot.Name,
		Fields: map[string]any{
			"bot_account_id": bot.ID.String(),
			"remote":         conn.RemoteAddr().String(),
			"sessions":       nSessions,
		},
	})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sess.writeLoop()
	}()
	defer func() {
		sess.closeWith("peer_closed")
		<-writerDone
		s.mu.Lock()
		delete(s.sessions, sess)
		s.gSessions.Add(-1)
		s.cWrites.Add(sess.writes) // the writes after its last event
		s.mu.Unlock()
		s.p.Unsubscribe(sess.sub)
		if d := sess.dropped.Load(); d > 0 {
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindEventsDropped,
				Component: "gateway",
				Bot:       bot.Name,
				Fields: map[string]any{
					"dropped": d,
					"policy":  sess.limits.SlowConsumer.String(),
				},
			})
		}
		s.getJournal().Emit(journal.Event{
			Kind:      journal.KindSessionClosed,
			Component: "gateway",
			Bot:       bot.Name,
			Fields: map[string]any{
				"reason":         sess.reason(),
				"frames_sent":    sess.sent.Load(),
				"events_dropped": sess.dropped.Load(),
			},
		})
	}()

	tenant := s.tenantBucket(bot.OwnerID)
	var f Frame
	for {
		// Heartbeat liveness: a session silent past the timeout is
		// closed, freeing its admission slot for a live client.
		if limits.HeartbeatTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(limits.HeartbeatTimeout))
		}
		if err := fr.ReadFrame(&f); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.cReaped.Inc()
				sess.closeWith("heartbeat_timeout")
			}
			return
		}
		switch f.Op {
		case OpHeartbeat:
			if err := sess.send(Frame{Op: OpHeartbeatAck, Seq: f.Seq}); err != nil {
				return
			}
		case OpRequest:
			s.cRequests.Inc()
			wait, limited := s.throttled(sess)
			if !limited {
				var tWait time.Duration
				if tWait, limited = tenant.take(limits.TenantRPS, float64(limits.TenantBurst)); limited {
					s.cTenantThrot.Inc()
					wait = tWait
				}
			}
			if limited {
				s.cThrottled.Inc()
				resp := Frame{Op: OpResponse, ID: f.ID, Err: ErrRateLimited,
					RetryAfterMS: int64(wait / time.Millisecond)}
				if resp.RetryAfterMS < 1 {
					resp.RetryAfterMS = 1
				}
				if err := sess.send(resp); err != nil {
					return
				}
				continue
			}
			resp := s.handleRequest(bot, f)
			if err := sess.send(resp); err != nil {
				return
			}
		default:
			sess.send(Frame{Op: OpError, Err: "unexpected op " + string(f.Op)})
		}
	}
}

func argString(args map[string]any, key string) string {
	v, _ := args[key].(string)
	return v
}

func argID(args map[string]any, key string) platform.ID {
	id, err := platform.ParseID(argString(args, key))
	if err != nil {
		return platform.Nil
	}
	return id
}

func argInt(args map[string]any, key string) int {
	switch v := args[key].(type) {
	case float64:
		return int(v)
	case string:
		id, _ := platform.ParseID(v)
		return int(id)
	default:
		return 0
	}
}

// handleRequest executes one REST-style method as the authenticated bot.
// Crucially, the platform checks only the BOT's permissions here — there
// is no notion of "the user who asked the bot to do this", which is the
// Discord design gap the paper studies.
func (s *Server) handleRequest(bot *platform.User, f Frame) Frame {
	resp := Frame{Op: OpResponse, ID: f.ID}
	fail := func(err error) Frame {
		if errors.Is(err, platform.ErrPermissionDenied) {
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindPermissionDenied,
				Component: "gateway",
				Bot:       bot.Name,
				Fields:    map[string]any{"method": f.Method, "bot_account_id": bot.ID.String()},
			})
		}
		resp.OK = false
		resp.Err = err.Error()
		return resp
	}
	ok := func(result map[string]any) Frame {
		resp.OK = true
		resp.Result = result
		return resp
	}

	if hook := s.interceptor(); hook != nil {
		if err := hook(bot, f.Method, f.Args); err != nil {
			// Runtime-policy denials (the enforcer) are permission
			// denials too, just decided by the interceptor rather than
			// the platform's static permission set.
			s.getJournal().Emit(journal.Event{
				Kind:      journal.KindPermissionDenied,
				Component: "gateway",
				Bot:       bot.Name,
				Fields:    map[string]any{"method": f.Method, "policy": err.Error()},
			})
			return fail(err)
		}
	}

	switch f.Method {
	case MethodSendMessage:
		var atts []platform.Attachment
		if raw, found := f.Args["attachments"]; found {
			blob, _ := json.Marshal(raw)
			var was []WireAttachment
			_ = json.Unmarshal(blob, &was)
			for _, wa := range was {
				atts = append(atts, platform.Attachment{Filename: wa.Filename, ContentType: wa.ContentType})
			}
		}
		if data := argString(f.Args, "attachment_data"); data != "" && len(atts) > 0 {
			atts[0].Data = decodeData(data)
		}
		msg, err := s.p.SendMessage(bot.ID, argID(f.Args, "channel_id"), argString(f.Args, "content"), atts...)
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"message_id": msg.ID.String()})

	case MethodHistory:
		msgs, err := s.p.History(bot.ID, argID(f.Args, "channel_id"), argInt(f.Args, "limit"))
		if err != nil {
			return fail(err)
		}
		out := make([]*WireMessage, 0, len(msgs))
		for _, m := range msgs {
			out = append(out, encodeMessage(s.p, m))
		}
		return ok(map[string]any{"messages": out})

	case MethodGuilds:
		var ids []string
		for _, gid := range s.p.GuildsOf(bot.ID) {
			ids = append(ids, gid.String())
		}
		return ok(map[string]any{"guild_ids": strings.Join(ids, ",")})

	case MethodGuildInfo:
		info, err := s.p.GuildSummary(argID(f.Args, "guild_id"), bot.ID)
		if err != nil {
			return fail(err)
		}
		chans := make([]any, 0, len(info.Channels))
		for _, ch := range info.Channels {
			chans = append(chans, map[string]any{
				"id": ch.ID.String(), "name": ch.Name, "kind": ch.Kind.String(),
			})
		}
		return ok(map[string]any{
			"name": info.Name, "members": float64(info.Members), "channels": chans,
		})

	case MethodKick:
		if err := s.p.KickMember(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodBan:
		if err := s.p.BanMember(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodEditNickname:
		if err := s.p.EditNickname(bot.ID, argID(f.Args, "guild_id"), argID(f.Args, "user_id"), argString(f.Args, "nick")); err != nil {
			return fail(err)
		}
		return ok(nil)

	case MethodGetAttachment:
		att, err := s.p.Attachment(bot.ID, argID(f.Args, "channel_id"), argID(f.Args, "message_id"), argID(f.Args, "attachment_id"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{
			"filename": att.Filename, "content_type": att.ContentType,
			"data": encodeData(att.Data),
		})

	case MethodPermissions:
		perms, err := s.p.Permissions(argID(f.Args, "guild_id"), bot.ID)
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"value": perms.Value(), "names": strings.Join(perms.Names(), ",")})

	case MethodMemberPermissions:
		gid := argID(f.Args, "guild_id")
		if !s.p.IsMember(gid, bot.ID) {
			return fail(platform.ErrNotMember)
		}
		perms, err := s.p.Permissions(gid, argID(f.Args, "user_id"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"value": perms.Value()})

	case MethodRespondInteraction:
		msg, err := s.p.RespondInteraction(bot.ID,
			argID(f.Args, "guild_id"), argID(f.Args, "interaction_id"),
			argString(f.Args, "content"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"message_id": msg.ID.String()})

	case MethodCreateWebhook:
		wh, err := s.p.CreateWebhook(bot.ID, argID(f.Args, "channel_id"), argString(f.Args, "name"))
		if err != nil {
			return fail(err)
		}
		return ok(map[string]any{"webhook_id": wh.ID.String(), "token": wh.Token})

	case MethodVoiceStates:
		states, err := s.p.VoiceStates(bot.ID, argID(f.Args, "guild_id"))
		if err != nil {
			return fail(err)
		}
		out := make([]any, 0, len(states))
		for _, st := range states {
			out = append(out, map[string]any{
				"user_id": st.UserID.String(), "channel_id": st.ChannelID.String(),
				"muted": st.Muted, "deafened": st.Deafened,
			})
		}
		return ok(map[string]any{"states": out})

	default:
		return fail(errors.New("gateway: unknown method " + f.Method))
	}
}
