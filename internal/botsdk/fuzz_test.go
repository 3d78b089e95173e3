package botsdk

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
)

// FuzzSessionFrames feeds arbitrary bytes to a session as the frames a
// gateway sends after ready. A scripted server accepts one connection,
// answers identify with a valid ready frame, writes the input and
// closes. When pending is set, one Guilds request (ID 1) is waiting for
// its response, so the response path decodes the input too. Whatever
// the input, the session must not panic; within 5s of the server
// closing, Done must close, Close must return, and the pending request
// must return, with an error unless the input answered it.
func FuzzSessionFrames(f *testing.F) {
	frame := func(fr gateway.Frame) []byte {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	message := func(content string) []byte {
		return frame(gateway.Frame{
			Op: gateway.OpDispatch, Type: "MESSAGE_CREATE",
			Event: &gateway.WireEvent{
				GuildID: "9", ChannelID: "2", UserID: "3",
				Message: &gateway.WireMessage{
					ID: "m1", ChannelID: "2", GuildID: "9", AuthorID: "3", Content: content,
					Attachments: []gateway.WireAttachment{{ID: "a1", Filename: "f.pdf", ContentType: "application/pdf", Size: 7}},
				},
			},
		})
	}
	for _, seed := range [][]byte{
		message("hi"),
		frame(gateway.Frame{Op: gateway.OpResponse, ID: 77, OK: true, Result: map[string]any{"guild_ids": "9"}}),
		[]byte(`{"op":"response","id":1,"ok":true,"result":{"guild_ids":42}}` + "\n"),
		frame(gateway.Frame{Op: gateway.OpHeartbeatAck, Seq: 1}),
		frame(gateway.Frame{Op: gateway.OpError, Err: gateway.ErrShedding, RetryAfterMS: 50}),
		[]byte(`{"op":"dispatch","type":"MESSAGE_CRE`),
		message(strings.Repeat("x", 64<<10)),
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	// Escapes, and lines the hand decoder leaves to encoding/json.
	for _, line := range []string{
		string(message("\"\\ <>& \x00\x1f \u2028\u2029 \xff")),
		`{"op":"dispatch","type":"MESSAGE_CREATE","event":{"message":{"content":"\ud83d\ude00 \ud800 \/"}}}` + "\n",
		`{"OP":"response","ID":1,"Ok":true,"Result":{"guild_ids":"9"}}` + "\n",
		`{"op":"response","id":1,"id":1,"ok":true,"result":{"guild_ids":"9"}}` + "\n",
		`{"op":"response","id":1e0,"ok":true}` + "\n",
		`{"op":"response","id":1.5,"ok":true}` + "\n",
		`{"op":"dispatch","type":null,"event":null}` + "\n",
		`{"op":"response","id":1,"ok":true,"result":{"guild_ids":"9","extra":{"a":[1,{"b":"}"}]}}}` + "\n",
		`{"op":"heartbeat_ack","seq":1}trailing` + "\n",
		`{"op":"heartbeat_ack","seq":1}{"op":"response","id":1,"ok":true}` + "\n",
		"\n\n" + `{"op":"response","id":1,"ok":true,"result":{"guild_ids":"9"}}` + "\n\n",
	} {
		f.Add([]byte(line), false)
		f.Add([]byte(line), true)
	}

	f.Fuzz(func(t *testing.T, input []byte, pending bool) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		registered := make(chan struct{})
		serverClosed := make(chan struct{})
		go func() {
			defer close(serverClosed)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			dec := json.NewDecoder(bufio.NewReader(conn))
			if !acceptIdentify(t, dec, json.NewEncoder(conn)) {
				return
			}
			<-registered
			if pending {
				var req gateway.Frame
				if err := dec.Decode(&req); err != nil || req.Op != gateway.OpRequest || req.ID != 1 {
					t.Errorf("pending request arrived as %+v, %v", req, err)
					return
				}
			}
			conn.Write(input)
		}()

		// A timeout far past the 5s limit, so only the dropped
		// connection can end the pending request in time.
		sess, err := Dial(ln.Addr().String(), "tok", Options{RequestTimeout: time.Minute})
		if err != nil {
			ln.Close()
			close(registered)
			<-serverClosed // the server goroutine may not log after Fatal
			t.Fatal(err)
		}
		sess.OnMessage(func(_ *Session, m *Message) {
			for _, a := range m.Attachments {
				_ = a.Filename
			}
		})
		sess.OnInteraction(func(_ *Session, in *Interaction) { _ = in.Command })
		sess.On("GUILD_MEMBER_ADD", func(_ *Session, e Event) { _ = e.UserID })
		result := make(chan error, 1)
		if pending {
			go func() {
				_, err := sess.Guilds()
				result <- err
			}()
		}
		close(registered)

		<-serverClosed
		limit := time.NewTimer(5 * time.Second)
		defer limit.Stop()
		select {
		case <-sess.Done():
		case <-limit.C:
			t.Fatal("Done did not close within 5s of the server closing")
		}
		closed := make(chan struct{})
		go func() {
			sess.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-limit.C:
			t.Fatal("Close did not return within 5s of the server closing")
		}
		if !pending {
			return
		}
		select {
		case err := <-result:
			if err == nil && !answers(input) {
				t.Fatal("the pending request succeeded with no response in the input")
			}
		case <-limit.C:
			t.Fatal("the pending request hung past 5s after the server closed")
		}
	})
}

// answers reports whether the frames a json.Decoder reads from input,
// up to the first that fails, include a successful response, which may
// have answered the pending request or its retry. The session's read
// loop decodes a subset of those frames: it also stops at a line
// holding two objects, or one object spread over lines.
func answers(input []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(input))
	for {
		var f gateway.Frame
		if err := dec.Decode(&f); err != nil {
			return false
		}
		if f.Op == gateway.OpResponse && f.ID >= 1 && f.OK && f.Err != gateway.ErrRateLimited {
			return true
		}
	}
}
