package gateway_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/permissions"
)

// dialRaw opens a plain TCP connection to the gateway.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// garbageFrames are first lines no client should send.
var garbageFrames = []string{
	"not json at all\n",
	`{"op":"heartbeat"}` + "\n",            // valid JSON, wrong first op
	`{"op":"identify","token":123}` + "\n", // wrong field type
	"\x00\x01\x02\xff\n",
}

func TestGarbageBeforeIdentifyDropsConnection(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	for _, garbage := range garbageFrames {
		conn := dialRaw(t, r.srv.Addr())
		fmt.Fprint(conn, garbage)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server answers with an error frame or just closes; it
		// must never hang or crash.
		br := bufio.NewReader(conn)
		br.ReadString('\n')
		conn.Close()
	}
	// The established, well-behaved session still works.
	if _, err := r.sess.Send(r.general.ID.String(), "still alive"); err != nil {
		t.Fatalf("healthy session broken by garbage peers: %v", err)
	}
}

func TestGarbageAfterIdentifyOnlyKillsThatSession(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	conn := dialRaw(t, r.srv.Addr())
	fmt.Fprintf(conn, `{"op":"identify","token":%q}`+"\n", r.bot.Token)
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("no ready frame: %v", err)
	}
	// Now poison the stream.
	fmt.Fprint(conn, "}}}}{{{{ definitely not a frame\n")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	deadline := time.Now().Add(3 * time.Second)
	dead := false
	for time.Now().Before(deadline) {
		if _, err := br.ReadString('\n'); err != nil {
			dead = true
			break
		}
	}
	if !dead {
		t.Error("poisoned session not terminated")
	}
	// The sibling SDK session is unaffected.
	if _, err := r.sess.Send(r.general.ID.String(), "unaffected"); err != nil {
		t.Fatalf("sibling session degraded: %v", err)
	}
}

func TestSlowIdentifyTimesOut(t *testing.T) {
	r := newRig(t, permissions.ViewChannel)
	conn := dialRaw(t, r.srv.Addr())
	// Send nothing; the server's identify deadline (5s) must reap the
	// connection rather than leak it. We detect the close by reading.
	conn.SetReadDeadline(time.Now().Add(7 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := conn.Read(buf)
	if err == nil {
		t.Fatal("server sent data to a silent pre-identify connection")
	}
	if time.Since(start) > 6500*time.Millisecond {
		t.Error("identify deadline apparently not enforced")
	}
}

// TestCloseCutsHandshakeShort: Close must not wait out the 5 s identify
// deadline of a connection that never identifies. With one admission
// slot, two silent connections race for it; the one shed shows that
// the other holds the slot in its handshake.
func TestCloseCutsHandshakeShort(t *testing.T) {
	r := newServerRig(t, permissions.ViewChannel)
	r.srv.SetLimits(gateway.Limits{MaxSessions: 1})
	shed := make(chan struct{}, 2)
	var readers sync.WaitGroup
	defer readers.Wait()
	for i := 0; i < 2; i++ {
		conn := dialRaw(t, r.srv.Addr())
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		readers.Add(1)
		go func() {
			defer readers.Done()
			if line, _ := bufio.NewReader(conn).ReadString('\n'); strings.Contains(line, gateway.ErrShedding) {
				shed <- struct{}{}
			}
		}()
	}
	select {
	case <-shed:
	case <-time.After(5 * time.Second):
		t.Fatal("neither silent connection was shed")
	}
	start := time.Now()
	r.srv.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a connection in its handshake", took)
	}
}

// FuzzFrameDecode writes arbitrary bytes to a fresh raw connection,
// either as its first bytes or after a valid identify line, closes the
// connection's write side and reads the server's replies until it
// closes. The server must neither panic nor hang past the read
// deadline, and the rig's healthy session must still send afterwards.
// A server that closes with input still unread resets the connection,
// which counts as closed.
func FuzzFrameDecode(f *testing.F) {
	for _, g := range garbageFrames {
		f.Add([]byte(g), false)
	}
	f.Add([]byte(`{"op":"mystery"}`+"\n"), true)
	f.Add([]byte(`{"op":"request","id":1,"method":"mystery","args":{}}`+"\n"), true)
	f.Add([]byte(`{"op":"request","id":2,"method":"send_message","args":{"channel_id":"1","content":"`+strings.Repeat("A", 64<<10)+`"}}`+"\n"), true)
	// Escapes, and lines the hand decoder leaves to encoding/json.
	for _, line := range []string{
		`{"op":"request","id":3,"method":"send_message","args":{"channel_id":"1","content":"\"\\ \u003c\u003e\u0026 \u0000\u001f \u2028\u2029 \ud83d\ude00 \ud800"}}`,
		"{\"op\":\"request\",\"id\":4,\"method\":\"guilds\",\"error\":\"bad \xff utf8 <>&\"}",
		`{"OP":"heartbeat","Seq":1}`,
		`{"op":"heartbeat","op":"heartbeat","seq":1}`,
		`{"op":"heartbeat","extra":{"deep":[null]}}`,
		`{"op":null,"seq":null}`,
		`{"op":"heartbeat","seq":1e3}`,
		`{"op":"heartbeat","seq":1.5}`,
		`{"op":"request","id":5,"method":"history","args":{"channel_id":"1","limit":{"nested":[1,{"x":"}"}]}}}`,
		`{"op":"heartbeat","seq":1}garbage`,
		`{"op":"heartbeat","seq":1}{"op":"heartbeat","seq":2}`,
		"\n \r\n" + `{"op":"heartbeat","seq":1}` + "\n",
	} {
		f.Add([]byte(line+"\n"), true)
	}
	r := newRig(f, permissions.ViewChannel|permissions.SendMessages)
	f.Fuzz(func(t *testing.T, data []byte, identify bool) {
		conn := dialRaw(t, r.srv.Addr())
		if identify {
			fmt.Fprintf(conn, `{"op":"identify","token":%q}`+"\n", r.bot.Token)
		}
		conn.Write(data)
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("server did not close the connection: %v", err)
		}
		if _, err := r.sess.Send(r.general.ID.String(), "still alive"); err != nil {
			t.Fatalf("healthy session broken by fuzzed peer: %v", err)
		}
	})
}
