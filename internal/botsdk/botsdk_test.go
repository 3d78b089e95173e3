package botsdk

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
)

// scriptedServer is a minimal fake gateway for protocol edge cases the
// real-gateway integration tests (in internal/gateway) don't cover.
type scriptedServer struct {
	ln     net.Listener
	t      *testing.T
	handle func(conn net.Conn, dec *json.Decoder, enc *json.Encoder)
	wg     sync.WaitGroup
}

func newScripted(t *testing.T, handle func(net.Conn, *json.Decoder, *json.Encoder)) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln, t: t, handle: handle}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				dec := json.NewDecoder(bufio.NewReader(conn))
				enc := json.NewEncoder(conn)
				s.handle(conn, dec, enc)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); s.wg.Wait() })
	return s
}

// acceptIdentify reads the identify frame and sends ready.
func acceptIdentify(t *testing.T, dec *json.Decoder, enc *json.Encoder) bool {
	var f gateway.Frame
	if err := dec.Decode(&f); err != nil {
		return false
	}
	if f.Op != gateway.OpIdentify {
		t.Errorf("first frame op = %s", f.Op)
		return false
	}
	enc.Encode(gateway.Frame{Op: gateway.OpReady, BotID: "1", BotName: "fake", GuildIDs: []string{"9"}})
	return true
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "tok", Options{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDialRejectedByErrorFrame(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		var f gateway.Frame
		dec.Decode(&f)
		enc.Encode(gateway.Frame{Op: gateway.OpError, Err: "invalid token"})
	})
	_, err := Dial(srv.ln.Addr().String(), "bad", Options{})
	if !errors.Is(err, ErrIdentify) {
		t.Errorf("err = %v, want ErrIdentify", err)
	}
}

func TestDialServerSilent(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		var f gateway.Frame
		dec.Decode(&f) // read identify, never answer; returns on close
		dec.Decode(&f)
	})
	start := time.Now()
	_, err := Dial(srv.ln.Addr().String(), "tok", Options{DialTimeout: 150 * time.Millisecond})
	if !errors.Is(err, ErrIdentify) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("dial did not respect the identify deadline")
	}
}

func TestRequestTimeout(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		// Swallow every request, never respond.
		for {
			var f gateway.Frame
			if err := dec.Decode(&f); err != nil {
				return
			}
		}
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Send("9", "x"); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestReadyFieldsExposed(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		var f gateway.Frame
		dec.Decode(&f) // hold the connection open
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.BotID() != "1" || sess.BotName() != "fake" {
		t.Errorf("identity = %s/%s", sess.BotID(), sess.BotName())
	}
	g := sess.InitialGuilds()
	if len(g) != 1 || g[0] != "9" {
		t.Errorf("guilds = %v", g)
	}
	g[0] = "mutated"
	if sess.InitialGuilds()[0] != "9" {
		t.Error("InitialGuilds shares backing storage")
	}
}

func TestDispatchFanOutAndHandlerOrder(t *testing.T) {
	// The server holds its events until both handlers are registered:
	// a dispatch that arrives before its handler is dropped.
	registered := make(chan struct{})
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		select {
		case <-registered:
		case <-time.After(5 * time.Second):
		}
		enc.Encode(gateway.Frame{
			Op: gateway.OpDispatch, Type: "MESSAGE_CREATE",
			Event: &gateway.WireEvent{
				GuildID: "9", ChannelID: "2", UserID: "3",
				Message: &gateway.WireMessage{ID: "m1", Content: "hi", Attachments: []gateway.WireAttachment{{ID: "a1", Filename: "f.pdf", Size: 7}}},
			},
		})
		enc.Encode(gateway.Frame{Op: gateway.OpDispatch, Type: "GUILD_MEMBER_ADD",
			Event: &gateway.WireEvent{GuildID: "9", UserID: "4"}})
		var f gateway.Frame
		dec.Decode(&f)
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := make(chan string, 4)
	sess.OnMessage(func(s *Session, m *Message) {
		if len(m.Attachments) != 1 || m.Attachments[0].Filename != "f.pdf" || m.Attachments[0].Size != 7 {
			t.Errorf("attachment meta lost: %+v", m.Attachments)
		}
		got <- "msg:" + m.Content
	})
	sess.On("GUILD_MEMBER_ADD", func(s *Session, e Event) {
		got <- "join:" + e.UserID
	})
	close(registered)
	deadline := time.After(2 * time.Second)
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case v := <-got:
			seen[v] = true
		case <-deadline:
			t.Fatalf("events seen: %v", seen)
		}
	}
	if !seen["msg:hi"] || !seen["join:4"] {
		t.Errorf("seen = %v", seen)
	}
}

// TestHandlerRegisteredInHandlerRunsFromNextEvent registers a handler
// from inside a handler while a second goroutine keeps registering
// handlers: the new handler must miss the event it was registered
// during and run for every later one, after the handlers before it.
func TestHandlerRegisteredInHandlerRunsFromNextEvent(t *testing.T) {
	registered := make(chan struct{})
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		select {
		case <-registered:
		case <-time.After(5 * time.Second):
		}
		for _, content := range []string{"m1", "m2", "m3"} {
			enc.Encode(gateway.Frame{Op: gateway.OpDispatch, Type: "MESSAGE_CREATE",
				Event: &gateway.WireEvent{Message: &gateway.WireMessage{ID: content, Content: content}}})
		}
		var f gateway.Frame
		dec.Decode(&f)
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := make(chan string, 16)
	record := func(who string) func(*Session, *Message) {
		return func(_ *Session, m *Message) { got <- who + ":" + m.Content }
	}
	sess.OnMessage(record("first"))
	sess.OnMessage(func(s *Session, m *Message) {
		if m.Content == "m1" {
			s.OnMessage(record("late"))
		}
	})
	var others sync.WaitGroup
	others.Add(1)
	go func() {
		defer others.Done()
		for i := 0; i < 100; i++ {
			sess.On("MESSAGE_CREATE", func(*Session, Event) {})
		}
	}()
	close(registered)
	want := []string{"first:m1", "first:m2", "late:m2", "first:m3", "late:m3"}
	for i, w := range want {
		select {
		case g := <-got:
			if g != w {
				t.Fatalf("call %d = %s, want %s (want %v)", i, g, w, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d handler calls: want %v", i, len(want), want)
		}
	}
	others.Wait()
}

func TestConcurrentRequestsMultiplex(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		var mu sync.Mutex
		for {
			var f gateway.Frame
			if err := dec.Decode(&f); err != nil {
				return
			}
			go func(f gateway.Frame) {
				// Answer out of order to exercise correlation.
				time.Sleep(time.Duration(f.ID%7) * 3 * time.Millisecond)
				mu.Lock()
				defer mu.Unlock()
				enc.Encode(gateway.Frame{
					Op: gateway.OpResponse, ID: f.ID, OK: true,
					Result: map[string]any{"message_id": "echo"},
				})
			}(f)
		}
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{RequestTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id, err := sess.Send("9", "x"); err != nil || id != "echo" {
				t.Errorf("send = %q, %v", id, err)
			}
		}()
	}
	wg.Wait()
}

func TestServerDisconnectFailsPending(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		var f gateway.Frame
		dec.Decode(&f)
		conn.Close() // drop mid-request
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{RequestTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Send("9", "x"); err == nil {
		t.Error("request across a dropped connection succeeded")
	}
}

// TestServerDropLeavesNoGoroutine: a session whose connection the
// server drops tears itself down. Once Done fires and the caller's
// Close returns, none of the session's goroutines may remain.
func TestServerDropLeavesNoGoroutine(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		acceptIdentify(t, dec, enc) // then drop the connection
	})
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		sess, err := Dial(srv.ln.Addr().String(), "tok", Options{HeartbeatEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-sess.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("session outlived the server's drop")
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The server side's connection goroutines exit on their own time.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 64<<10)
		t.Fatalf("%d goroutines outlive 50 dropped sessions (baseline %d):\n%s", n-base, base, buf[:runtime.Stack(buf, true)])
	}
}

func TestErrorResponseSurfaces(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		for {
			var f gateway.Frame
			if err := dec.Decode(&f); err != nil {
				return
			}
			enc.Encode(gateway.Frame{Op: gateway.OpResponse, ID: f.ID, OK: false, Err: "platform: permission denied"})
		}
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.History("9", 5)
	if err == nil || err.Error() != "platform: permission denied" {
		t.Errorf("err = %v", err)
	}
	if err := sess.Kick("9", "3"); err == nil {
		t.Error("kick error swallowed")
	}
}

func TestCloseIdempotentAndFailsFurtherUse(t *testing.T) {
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		var f gateway.Frame
		dec.Decode(&f)
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second close err = %v", err)
	}
	if _, err := sess.Guilds(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close request err = %v", err)
	}
}

func TestHeartbeatFramesSent(t *testing.T) {
	beats := make(chan int64, 8)
	srv := newScripted(t, func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if !acceptIdentify(t, dec, enc) {
			return
		}
		for {
			var f gateway.Frame
			if err := dec.Decode(&f); err != nil {
				return
			}
			if f.Op == gateway.OpHeartbeat {
				beats <- f.Seq
				enc.Encode(gateway.Frame{Op: gateway.OpHeartbeatAck, Seq: f.Seq})
			}
		}
	})
	sess, err := Dial(srv.ln.Addr().String(), "tok", Options{HeartbeatEvery: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var seqs []int64
	timeout := time.After(2 * time.Second)
	for len(seqs) < 3 {
		select {
		case s := <-beats:
			seqs = append(seqs, s)
		case <-timeout:
			t.Fatalf("only %d heartbeats", len(seqs))
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("heartbeat seq not monotone: %v", seqs)
		}
	}
}
