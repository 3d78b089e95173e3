package gateway_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

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
