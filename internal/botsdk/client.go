// Package botsdk is the bot-developer SDK for the reproduction's
// messaging platform — the analogue of discord.js/discord.py in the
// paper's ecosystem. A Session connects to the gateway over TCP,
// dispatches events to registered handlers, and exposes action methods
// (send, history, kick, ban, …) that execute with the BOT's privileges.
//
// The SDK also exposes the permission-check helpers (HasPermission,
// MemberPermissions) whose *absence* in real bot code is what the
// paper's code analysis measures: a well-behaved command handler calls
// them on the invoking user before acting.
package botsdk

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/retry"
)

// Errors returned by the SDK.
var (
	ErrClosed   = errors.New("botsdk: session closed")
	ErrIdentify = errors.New("botsdk: identify rejected")
	ErrTimeout  = errors.New("botsdk: request timed out")
	ErrStale    = errors.New("botsdk: response for unknown request")
)

// Message is a received or fetched message.
type Message struct {
	ID          string
	ChannelID   string
	GuildID     string
	AuthorID    string
	AuthorBot   bool
	Content     string
	Attachments []Attachment
}

// Attachment describes an uploaded file; Data is only populated by
// FetchAttachment.
type Attachment struct {
	ID          string
	Filename    string
	ContentType string
	Size        int
	Data        []byte
}

// Event is a dispatched platform event.
type Event struct {
	Type      string
	GuildID   string
	ChannelID string
	UserID    string
	Message   *Message

	interaction *Interaction
}

// Handler consumes dispatched events. Handlers run sequentially on the
// session's read loop; heavy work should be moved to a goroutine.
type Handler func(s *Session, e Event)

// Options tunes a Session.
type Options struct {
	// RequestTimeout bounds each round-trip; default 5s.
	RequestTimeout time.Duration
	// HeartbeatEvery, when positive, starts a background heartbeat.
	HeartbeatEvery time.Duration
	// DialTimeout bounds the TCP connect and the identify handshake;
	// default 5s.
	DialTimeout time.Duration
	// Retry governs the backoff applied when the gateway rate-limits a
	// request: the gateway's RetryAfterMS hint is honoured (clamped to
	// the policy's RetryAfterCap) with jittered exponential backoff
	// between attempts, and a shared Retry.Budget lets a fleet of
	// sessions (loadgen, the honeypot campaign) bound total retry work.
	// The zero value uses defaultRetryPolicy.
	Retry retry.Policy
}

// defaultRetryPolicy is tuned for gateway rate limits: short base
// delays (hints dominate), enough attempts to ride out a sustained
// throttle, and deterministic jitter.
func defaultRetryPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts:   8,
		BaseDelay:     2 * time.Millisecond,
		MaxDelay:      time.Second,
		Multiplier:    2,
		Jitter:        0.2,
		Seed:          1,
		RetryAfterCap: 2 * time.Second,
	}
}

// Session is one authenticated bot connection.
type Session struct {
	conn net.Conn

	writeMu sync.Mutex
	enc     *json.Encoder

	botID   string
	botName string
	guilds  []string

	reqTimeout  time.Duration
	retryPolicy retry.Policy
	nextID      int64

	mu       sync.Mutex
	pending  map[int64]chan gateway.Frame
	handlers map[string][]Handler
	closed   bool

	done   chan struct{}
	ctx    context.Context // cancelled on Close; bounds retry waits
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Dial connects to a gateway address and identifies with the bot token.
func Dial(addr, token string, opts Options) (*Session, error) {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.Retry.MaxAttempts == 0 && opts.Retry.BaseDelay == 0 {
		budget := opts.Retry.Budget
		opts.Retry = defaultRetryPolicy()
		opts.Retry.Budget = budget
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("botsdk: dial %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{
		conn:        conn,
		enc:         json.NewEncoder(conn),
		reqTimeout:  opts.RequestTimeout,
		retryPolicy: opts.Retry,
		pending:     make(map[int64]chan gateway.Frame),
		handlers:    make(map[string][]Handler),
		done:        make(chan struct{}),
		ctx:         ctx,
		cancel:      cancel,
	}
	if err := s.send(gateway.Frame{Op: gateway.OpIdentify, Token: token}); err != nil {
		cancel()
		conn.Close()
		return nil, err
	}
	dec := json.NewDecoder(bufio.NewReader(conn))
	conn.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	var ready gateway.Frame
	if err := dec.Decode(&ready); err != nil {
		cancel()
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrIdentify, err)
	}
	conn.SetReadDeadline(time.Time{})
	if ready.Op != gateway.OpReady {
		cancel()
		conn.Close()
		if ready.Err == gateway.ErrShedding {
			return nil, &ShedError{RetryAfter: time.Duration(ready.RetryAfterMS) * time.Millisecond}
		}
		return nil, fmt.Errorf("%w: %s", ErrIdentify, ready.Err)
	}
	s.botID, s.botName, s.guilds = ready.BotID, ready.BotName, ready.GuildIDs
	s.wg.Add(1)
	go s.readLoop(dec)
	if opts.HeartbeatEvery > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop(opts.HeartbeatEvery)
	}
	return s, nil
}

// Done returns a channel closed when the session terminates — either
// by Close or because the connection dropped.
func (s *Session) Done() <-chan struct{} { return s.done }

// BotID returns this session's bot account ID.
func (s *Session) BotID() string { return s.botID }

// BotName returns this session's bot account name.
func (s *Session) BotName() string { return s.botName }

// InitialGuilds returns the guild IDs reported in the ready frame.
func (s *Session) InitialGuilds() []string { return append([]string(nil), s.guilds...) }

// On registers a handler for an event type (e.g. "MESSAGE_CREATE").
func (s *Session) On(eventType string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[eventType] = append(s.handlers[eventType], h)
}

// OnMessage registers a MESSAGE_CREATE convenience handler.
func (s *Session) OnMessage(h func(s *Session, m *Message)) {
	s.On("MESSAGE_CREATE", func(s *Session, e Event) {
		if e.Message != nil {
			h(s, e.Message)
		}
	})
}

// Close tears the session down and waits for its goroutines.
func (s *Session) Close() error {
	err := s.teardown()
	s.wg.Wait()
	return err
}

// teardown marks the session closed, fails its pending requests and
// closes the connection, without waiting for the session's goroutines:
// the read loop, one of them, calls it when the connection ends first.
// Only the first call closes the connection and returns its error.
func (s *Session) teardown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.cancel()
	for id, ch := range s.pending {
		close(ch)
		delete(s.pending, id)
	}
	s.mu.Unlock()
	return s.conn.Close()
}

func (s *Session) send(f gateway.Frame) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.enc.Encode(f)
}

func (s *Session) readLoop(dec *json.Decoder) {
	defer s.wg.Done()
	for {
		var f gateway.Frame
		if err := dec.Decode(&f); err != nil {
			s.teardown()
			return
		}
		switch f.Op {
		case gateway.OpDispatch:
			s.dispatch(f)
		case gateway.OpResponse:
			s.mu.Lock()
			ch, ok := s.pending[f.ID]
			if ok {
				delete(s.pending, f.ID)
			}
			s.mu.Unlock()
			if ok {
				ch <- f
				close(ch)
			}
		case gateway.OpHeartbeatAck, gateway.OpError:
			// acks are informational; errors surface via closed requests
		}
	}
}

func (s *Session) heartbeatLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	var seq int64
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			seq++
			if err := s.send(gateway.Frame{Op: gateway.OpHeartbeat, Seq: seq}); err != nil {
				return
			}
		}
	}
}

func (s *Session) dispatch(f gateway.Frame) {
	e := Event{Type: f.Type}
	if f.Event != nil {
		e.GuildID, e.ChannelID, e.UserID = f.Event.GuildID, f.Event.ChannelID, f.Event.UserID
		if f.Event.Message != nil {
			e.Message = fromWire(f.Event.Message)
		}
		if f.Event.Interaction != nil {
			wi := f.Event.Interaction
			e.interaction = &Interaction{
				ID: wi.ID, GuildID: wi.GuildID, ChannelID: wi.ChannelID,
				UserID: wi.UserID, Command: wi.Command, Args: wi.Args,
			}
		}
	}
	s.mu.Lock()
	hs := append([]Handler(nil), s.handlers[e.Type]...)
	s.mu.Unlock()
	for _, h := range hs {
		h(s, e)
	}
}

func fromWire(wm *gateway.WireMessage) *Message {
	m := &Message{
		ID: wm.ID, ChannelID: wm.ChannelID, GuildID: wm.GuildID,
		AuthorID: wm.AuthorID, AuthorBot: wm.AuthorBot, Content: wm.Content,
	}
	for _, wa := range wm.Attachments {
		m.Attachments = append(m.Attachments, Attachment{
			ID: wa.ID, Filename: wa.Filename, ContentType: wa.ContentType, Size: wa.Size,
		})
	}
	return m
}

// ErrRateLimited surfaces when the gateway throttles and retries are
// exhausted.
var ErrRateLimited = errors.New("botsdk: rate limited")

// ErrShedding surfaces when the gateway refuses a connection outright
// under admission control (session cap or identify-rate throttle).
var ErrShedding = errors.New("botsdk: gateway shedding load")

// ShedError carries the gateway's shed refusal plus its backoff hint;
// errors.Is(err, ErrShedding) matches it.
type ShedError struct {
	// RetryAfter is the gateway's suggested wait before redialling.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("botsdk: gateway shedding load (retry after %v)", e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrShedding }

// request performs one round-trip, transparently backing off and
// retrying when the gateway rate-limits the session (like Discord SDKs
// honouring Retry-After). Backoff policy — jittered exponential delays,
// the gateway's RetryAfterMS hint, and the optional shared retry budget
// — comes from Options.Retry via internal/retry, so SDK clients degrade
// the same way every other stage of the pipeline does.
func (s *Session) request(method string, args map[string]any) (map[string]any, error) {
	var res map[string]any
	err := retry.Do(s.ctx, s.retryPolicy, func(context.Context) error {
		r, retryAfter, err := s.requestOnce(method, args)
		if err != nil {
			// Anything but a throttle (platform denial, timeout, closed
			// session) is not retryable at this layer.
			return retry.Permanent(err)
		}
		if retryAfter > 0 {
			return retry.After(ErrRateLimited, retryAfter)
		}
		res = r
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return res, nil
}

// requestOnce performs one round-trip. A positive retryAfter means the
// gateway throttled the request.
func (s *Session) requestOnce(method string, args map[string]any) (map[string]any, time.Duration, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	id := atomic.AddInt64(&s.nextID, 1)
	ch := make(chan gateway.Frame, 1)
	s.pending[id] = ch
	s.mu.Unlock()

	if err := s.send(gateway.Frame{Op: gateway.OpRequest, ID: id, Method: method, Args: args}); err != nil {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return nil, 0, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return nil, 0, ErrClosed
		}
		if f.Err == gateway.ErrRateLimited {
			wait := time.Duration(f.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = time.Millisecond
			}
			return nil, wait, nil
		}
		if !f.OK {
			return nil, 0, errors.New(f.Err)
		}
		return f.Result, 0, nil
	case <-time.After(s.reqTimeout):
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return nil, 0, ErrTimeout
	}
}

// Send posts a message to a channel.
func (s *Session) Send(channelID, content string) (string, error) {
	res, err := s.request(gateway.MethodSendMessage, map[string]any{
		"channel_id": channelID, "content": content,
	})
	if err != nil {
		return "", err
	}
	id, _ := res["message_id"].(string)
	return id, nil
}

// History fetches up to limit recent messages from a channel.
func (s *Session) History(channelID string, limit int) ([]*Message, error) {
	res, err := s.request(gateway.MethodHistory, map[string]any{
		"channel_id": channelID, "limit": float64(limit),
	})
	if err != nil {
		return nil, err
	}
	blob, _ := json.Marshal(res["messages"])
	var wire []*gateway.WireMessage
	if err := json.Unmarshal(blob, &wire); err != nil {
		return nil, err
	}
	out := make([]*Message, 0, len(wire))
	for _, wm := range wire {
		out = append(out, fromWire(wm))
	}
	return out, nil
}

// Guilds lists the guilds the bot currently belongs to.
func (s *Session) Guilds() ([]string, error) {
	res, err := s.request(gateway.MethodGuilds, nil)
	if err != nil {
		return nil, err
	}
	raw, _ := res["guild_ids"].(string)
	if raw == "" {
		return nil, nil
	}
	return strings.Split(raw, ","), nil
}

// ChannelRef identifies a channel within a guild summary.
type ChannelRef struct {
	ID   string
	Name string
	Kind string
}

// GuildInfo fetches a guild summary.
func (s *Session) GuildInfo(guildID string) (name string, members int, channels []ChannelRef, err error) {
	res, err := s.request(gateway.MethodGuildInfo, map[string]any{"guild_id": guildID})
	if err != nil {
		return "", 0, nil, err
	}
	name, _ = res["name"].(string)
	if f, ok := res["members"].(float64); ok {
		members = int(f)
	}
	if chans, ok := res["channels"].([]any); ok {
		for _, c := range chans {
			m, _ := c.(map[string]any)
			ref := ChannelRef{}
			ref.ID, _ = m["id"].(string)
			ref.Name, _ = m["name"].(string)
			ref.Kind, _ = m["kind"].(string)
			channels = append(channels, ref)
		}
	}
	return name, members, channels, nil
}

// Kick removes a member, acting with the bot's own privileges.
func (s *Session) Kick(guildID, userID string) error {
	_, err := s.request(gateway.MethodKick, map[string]any{"guild_id": guildID, "user_id": userID})
	return err
}

// Ban bans a member, acting with the bot's own privileges.
func (s *Session) Ban(guildID, userID string) error {
	_, err := s.request(gateway.MethodBan, map[string]any{"guild_id": guildID, "user_id": userID})
	return err
}

// EditNickname renames a member, acting with the bot's own privileges.
func (s *Session) EditNickname(guildID, userID, nick string) error {
	_, err := s.request(gateway.MethodEditNickname, map[string]any{
		"guild_id": guildID, "user_id": userID, "nick": nick,
	})
	return err
}

// FetchAttachment downloads an attachment's bytes — the moral
// equivalent of a bot opening a document posted in the channel, which
// is exactly the signal the paper's canary documents detect.
func (s *Session) FetchAttachment(channelID, messageID, attachmentID string) (*Attachment, error) {
	res, err := s.request(gateway.MethodGetAttachment, map[string]any{
		"channel_id": channelID, "message_id": messageID, "attachment_id": attachmentID,
	})
	if err != nil {
		return nil, err
	}
	a := &Attachment{ID: attachmentID}
	a.Filename, _ = res["filename"].(string)
	a.ContentType, _ = res["content_type"].(string)
	if data, ok := res["data"].(string); ok {
		blob, err := decodeB64(data)
		if err != nil {
			return nil, err
		}
		a.Data = blob
		a.Size = len(blob)
	}
	return a, nil
}

// MyPermissions fetches the bot's own effective guild permissions.
func (s *Session) MyPermissions(guildID string) (permissions.Permission, error) {
	res, err := s.request(gateway.MethodPermissions, map[string]any{"guild_id": guildID})
	if err != nil {
		return permissions.None, err
	}
	raw, _ := res["value"].(string)
	return permissions.ParseValue(raw)
}
