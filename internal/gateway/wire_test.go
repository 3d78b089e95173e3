package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// codecSeeds are frame lines for FuzzFrameCodec: every op and method
// the server and the SDK send, then escapes, then lines the hand
// decoder leaves to encoding/json.
func codecSeeds(tb testing.TB) [][]byte {
	line := func(f Frame) []byte {
		b, err := json.Marshal(f)
		if err != nil {
			tb.Fatal(err)
		}
		return append(b, '\n')
	}
	msg := &WireMessage{
		ID: "101", ChannelID: "12", GuildID: "11", AuthorID: "7", AuthorBot: true, Content: "hello",
		Attachments: []WireAttachment{
			{ID: "102", Filename: "notes.txt", ContentType: "text/plain", Size: 512},
			{ID: "103", Filename: "canary.pdf", ContentType: "application/pdf"},
		},
	}
	seeds := [][]byte{
		line(Frame{Op: OpIdentify, Token: "tok-123"}),
		line(Frame{Op: OpReady, BotID: "5", BotName: "itbot", GuildIDs: []string{"11", "21"}}),
		line(Frame{Op: OpReady, BotID: "5", BotName: "lonely"}),
		line(Frame{Op: OpDispatch, Type: string(platform.EventMessageCreate),
			Event: &WireEvent{GuildID: "11", ChannelID: "12", UserID: "7", Message: msg}}),
		line(Frame{Op: OpDispatch, Type: string(platform.EventInteractionCreate),
			Event: &WireEvent{GuildID: "11", ChannelID: "12", UserID: "7", Interaction: &WireInteraction{
				ID: "301", GuildID: "11", ChannelID: "12", UserID: "7", Command: "ban", Args: "<@8> spam"}}}),
		line(Frame{Op: OpDispatch, Type: string(platform.EventInteractionCreate),
			Event: &WireEvent{Interaction: &WireInteraction{ID: "302", Command: "ping"}}}),
		line(Frame{Op: OpDispatch, Type: "GUILD_MEMBER_ADD", Event: &WireEvent{GuildID: "11", UserID: "9"}}),
		line(Frame{Op: OpDispatch, Type: "GUILD_DELETE", Event: &WireEvent{}}),
		line(Frame{Op: OpHeartbeat, Seq: 42}),
		line(Frame{Op: OpHeartbeatAck, Seq: 42}),
		line(Frame{Op: OpError, Err: ErrShedding, RetryAfterMS: 250}),
		line(Frame{Op: OpError, Err: "expected identify"}),
		line(Frame{Op: OpError, Err: "unexpected op mystery"}),
		line(Frame{Op: OpResponse, ID: 9, Err: ErrRateLimited, RetryAfterMS: 1}),
		line(Frame{Op: OpResponse, ID: 10, Err: platform.ErrPermissionDenied.Error()}),
	}
	requests := []struct {
		method string
		args   map[string]any
	}{
		{MethodSendMessage, map[string]any{"channel_id": "12", "content": "hi"}},
		{MethodSendMessage, map[string]any{"channel_id": "12", "content": "doc",
			"attachments":     []any{map[string]any{"filename": "a.pdf", "content_type": "application/pdf"}},
			"attachment_data": encodeData([]byte("%PDF-1.4"))}},
		{MethodHistory, map[string]any{"channel_id": "12", "limit": float64(20)}},
		{MethodGuilds, nil},
		{MethodGuildInfo, map[string]any{"guild_id": "11"}},
		{MethodKick, map[string]any{"guild_id": "11", "user_id": "9"}},
		{MethodBan, map[string]any{"guild_id": "11", "user_id": "9"}},
		{MethodEditNickname, map[string]any{"guild_id": "11", "user_id": "9", "nick": "<b>&"}},
		{MethodGetAttachment, map[string]any{"channel_id": "12", "message_id": "101", "attachment_id": "102"}},
		{MethodPermissions, map[string]any{"guild_id": "11"}},
		{MethodMemberPermissions, map[string]any{"guild_id": "11", "user_id": "9"}},
		{MethodVoiceStates, map[string]any{"guild_id": "11"}},
		{MethodRespondInteraction, map[string]any{"guild_id": "11", "interaction_id": "301", "content": "done"}},
		{MethodCreateWebhook, map[string]any{"channel_id": "12", "name": "hook"}},
	}
	for i, r := range requests {
		seeds = append(seeds, line(Frame{Op: OpRequest, ID: int64(i + 1), Method: r.method, Args: r.args}))
	}
	for i, res := range []map[string]any{
		{"message_id": "101"},
		{"messages": []*WireMessage{msg, {ID: "104", Content: "plain"}}},
		{"messages": []*WireMessage{}},
		{"guild_ids": "11,21"},
		{"name": "itest", "members": float64(3), "channels": []any{
			map[string]any{"id": "12", "name": "general", "kind": "text"}}},
		{"filename": "notes.txt", "content_type": "text/plain", "data": encodeData([]byte("x"))},
		{"value": "3072", "names": "VIEW_CHANNEL,SEND_MESSAGES"},
		{"states": []any{map[string]any{"user_id": "9", "channel_id": "13", "muted": true, "deafened": false}}},
		{"webhook_id": "401", "token": "wh-tok"},
	} {
		seeds = append(seeds, line(Frame{Op: OpResponse, ID: int64(i + 1), OK: true, Result: res}))
	}
	seeds = append(seeds, line(Frame{Op: OpResponse, ID: 20, OK: true}))
	for _, content := range []string{
		`say "hi" \ back`, "<script>&amp;</script>", "ctl \x00\x01\b\f\n\r\t\x1f\x7f end",
		"sep \u2028 and \u2029", "bad \xff\xfe utf8 \xe2\x80", "caf\u00e9 \U0001F600",
	} {
		m := *msg
		m.Content = content
		seeds = append(seeds, line(Frame{Op: OpDispatch, Type: "MESSAGE_CREATE", Event: &WireEvent{Message: &m}}))
	}
	for _, s := range []string{
		// Escapes encoding/json reads but never writes.
		`{"op":"dispatch","event":{"message":{"content":"\ud83d\ude00 é \/ \ud800 \udc00x \ud800A"}}}`,
		`{"op":"identify","token":"t"}`,
		`{"op":"error","error":"tab\	raw"}`,
		`{"op":"error","error":"\'"}`,
		`{"op":"error","error":"\u12"}`,
		// Keys encoding/json folds, repeats or ignores, and nulls.
		`{"OP":"heartbeat","Seq":3}`,
		`{"op":"heartbeat","ſeq":3}`,
		`{"op":"a","op":"b"}`,
		`{"op":"dispatch","event":{"guild_id":"1"},"event":{"user_id":"2"}}`,
		`{"op":"request","args":{"a":1},"args":{"b":2}}`,
		`{"op":"ready","guild_ids":["1"],"guild_ids":[]}`,
		`{"op":"dispatch","event":{"message":{"attachments":[{"id":"a","size":1}],"attachments":[{"id":"b"}]}}}`,
		`{"op":"heartbeat","extra":{"deep":[1,2]}}`,
		`{"op":null}`, `{"op":"dispatch","event":null}`, `{"op":"ready","guild_ids":null}`,
		`{"op":"ready","guild_ids":["1",null]}`, `{"op":"request","args":null}`, `null`,
		// Numbers in integer fields.
		`{"op":"heartbeat","seq":1e3}`, `{"op":"heartbeat","seq":1.5}`, `{"op":"heartbeat","seq":-0}`,
		`{"op":"heartbeat","seq":9223372036854775807}`, `{"op":"heartbeat","seq":9223372036854775808}`,
		`{"op":"heartbeat","seq":-9223372036854775808}`, `{"op":"heartbeat","seq":-9223372036854775809}`,
		`{"op":"heartbeat","seq":01}`, `{"op":"heartbeat","seq":"1"}`, `{"op":"heartbeat","seq":-}`,
		`{"op":"dispatch","event":{"message":{"attachments":[{"size":1E2}]}}}`,
		`{"op":"response","ok":1}`, `{"op":"response","ok":tru}`,
		// Nested args, trailing garbage, and two objects on one line.
		`{"op":"request","id":1,"method":"send_message","args":{"a":{"b":[1,{"c":"}]\"{"}]},"d":[]}}`,
		`{"op":"request","args":{"a":"}"}x}`, `{"op":"request","args":{]}`, `{"op":"request","args":[]}`,
		`{"op":"heartbeat"}x`, `{"op":"heartbeat"}{"op":"heartbeat"}`, `{"op":"heartbeat"} {"op":"heartbeat"}`,
		" \t{ \"op\" : \"heartbeat\" , \"seq\" : 2 }\r\n", ``, ` `, `{`, `{"op":"hea`, `[]`, `"op"`, `{}`, `{,}`,
		`{"op":"heartbeat",}`, `{"op" "heartbeat"}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzFrameCodec pins the codec to encoding/json. For any line,
// decodeFrame must give json.Unmarshal's Frame and fail exactly when it
// fails, and the Frame must not refer to the line's bytes. For every
// line that decodes, AppendFrame must write json.Marshal's bytes and
// '\n', and the hand decoder must take what it wrote.
func FuzzFrameCodec(f *testing.F) {
	for _, s := range codecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Frame
		wantErr := json.Unmarshal(line, &want)
		buf := append([]byte(nil), line...)
		var got Frame
		gotErr := decodeFrame(buf, &got)
		for i := range buf {
			buf[i] = 'X'
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeFrame(%q) error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeFrame(%q) = %#v, json.Unmarshal = %#v", line, got, want)
		}
		if gotErr != nil {
			return
		}
		enc, err := AppendFrame([]byte("prefix"), &got)
		if err != nil {
			t.Fatalf("AppendFrame(%#v): %v", got, err)
		}
		wantEnc, err := json.Marshal(&got)
		if err != nil {
			t.Fatalf("json.Marshal(%#v): %v", got, err)
		}
		if !bytes.Equal(enc, append([]byte("prefix"+string(wantEnc)), '\n')) {
			t.Fatalf("AppendFrame wrote\n%q\njson.Marshal wrote\n%q", enc, wantEnc)
		}
		var hand, viaJSON Frame
		if d := (decoder{b: enc[len("prefix"):]}); !d.frame(&hand) || !d.end() {
			t.Fatalf("the hand decoder does not take what AppendFrame wrote: %q", enc)
		}
		json.Unmarshal(enc[len("prefix"):], &viaJSON)
		if !reflect.DeepEqual(hand, viaJSON) {
			t.Fatalf("hand decoder read %q as %#v, json.Unmarshal as %#v", enc, hand, viaJSON)
		}
	})
}

// TestAppendFrameRefusesWhatMarshalRefuses: a map value json.Marshal
// cannot encode fails the frame and leaves dst as it was.
func TestAppendFrameRefusesWhatMarshalRefuses(t *testing.T) {
	dst := []byte("kept")
	out, err := AppendFrame(dst, &Frame{Op: OpResponse, OK: true, Result: map[string]any{"c": make(chan int)}})
	if err == nil || string(out) != "kept" {
		t.Fatalf("AppendFrame = %q, %v; want \"kept\" and an error", out, err)
	}
}

// TestFrameReaderLines reads frames across a short buffer: blank lines
// are skipped, a line longer than the buffer is gathered, and a final
// line without '\n' still decodes.
func TestFrameReaderLines(t *testing.T) {
	long := strings.Repeat("y", 3*4096)
	input := "\n \r\n" + `{"op":"heartbeat","seq":1}` + "\n\n" +
		`{"op":"error","error":"` + long + `"}` + "\n\t\n" + `{"op":"heartbeat_ack","seq":2}`
	r := NewFrameReader(strings.NewReader(input))
	want := []Frame{{Op: OpHeartbeat, Seq: 1}, {Op: OpError, Err: long}, {Op: OpHeartbeatAck, Seq: 2}}
	for i, w := range want {
		var f Frame
		if err := r.ReadFrame(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, w) {
			t.Fatalf("frame %d = %+v, want %+v", i, f, w)
		}
	}
	var f Frame
	if err := r.ReadFrame(&f); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// readCounter counts the bytes the server reads from its end of a
// connection.
type readCounter struct {
	net.Conn
	n atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestIdentifyLineIsBounded: a raw connection that sends megabytes
// with no newline before identifying is closed once the server has read
// at most identifyMax and one more 4 KiB reader buffer, long before the
// 5 s identify deadline.
func TestIdentifyLineIsBounded(t *testing.T) {
	p := platform.New(platform.Options{})
	defer p.Close()
	srv, err := NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Serve the server's end of a fresh pair as the accept loop would,
	// through a counter.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	counted := &readCounter{Conn: conn}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve(counted)
	}()

	const total = 16 << 20
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := client.Write(chunk); err != nil {
				return // the server closed the connection
			}
		}
		client.(*net.TCPConn).CloseWrite()
	}()
	start := time.Now()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the server still reads the unterminated line after 10s")
	}
	t.Logf("closed after %v and %d bytes read", time.Since(start).Round(time.Millisecond), counted.n.Load())
	if n, limit := counted.n.Load(), int64(identifyMax+4096); n > limit {
		t.Errorf("the server read %d bytes of an unterminated identify line, want at most %d", n, limit)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the client's connection is still open: %v", err)
	}
	client.Close()
	<-wrote
}

// recordDispatches serves one bot through a real gateway and records
// the dispatch lines it reads for n corpus messages, every tenth with a
// 512-byte attachment, as perfbench's gateway workload posts them.
func recordDispatches(tb testing.TB, n int) [][]byte {
	tb.Helper()
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "bench", false)
	if err != nil {
		tb.Fatal(err)
	}
	bot, err := p.RegisterBot(owner.ID, "bench-bot")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
		tb.Fatal(err)
	}
	var ch platform.ID
	for _, c := range g.Channels {
		ch = c.ID
	}
	srv, err := NewServer(p, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"op":"identify","token":%q}`+"\n", bot.Token)
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := br.ReadBytes('\n'); err != nil {
		tb.Fatal(err)
	}
	gen := corpus.New(2022)
	personas := gen.Personas(8)
	go func() {
		for i := 0; i < n; i++ {
			var atts []platform.Attachment
			if i%10 == 0 {
				atts = append(atts, platform.Attachment{Filename: "notes.txt", ContentType: "text/plain", Data: make([]byte, 512)})
			}
			p.SendMessage(owner.ID, ch, fmt.Sprintf("f%d %s", i, gen.Message(personas[i%len(personas)])), atts...)
		}
	}()
	lines := make([][]byte, 0, n)
	for len(lines) < n {
		line, err := br.ReadBytes('\n')
		if err != nil {
			tb.Fatalf("after %d dispatches: %v", len(lines), err)
		}
		lines = append(lines, line)
	}
	return lines
}

// loopReader yields a recorded stream over and over.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

var sinkFrame Frame

// BenchmarkFrameCodec reads and writes a recorded dispatch stream with
// the codec and with the encoding/json stream the gateway wire used
// before it. One op is one frame.
func BenchmarkFrameCodec(b *testing.B) {
	lines := recordDispatches(b, 256)
	stream := bytes.Join(lines, nil)
	frames := make([]Frame, len(lines))
	for i, l := range lines {
		if err := decodeFrame(l, &frames[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%d frames, %.0f bytes per frame", len(lines), float64(len(stream))/float64(len(lines)))
	b.Run("decode/codec", func(b *testing.B) {
		r := NewFrameReader(&loopReader{b: stream})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.ReadFrame(&sinkFrame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		dec := json.NewDecoder(bufio.NewReader(&loopReader{b: stream}))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var f Frame
			if err := dec.Decode(&f); err != nil {
				b.Fatal(err)
			}
			sinkFrame = f
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = AppendFrame(buf[:0], &frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEscapedStringsDecodeInLinearSpace: each escaped string is decoded
// into a buffer that grows with the string, not one sized from the rest
// of the line, so an identify line of many escaped guild IDs, which the
// server decodes before it checks the token, allocates a small multiple
// of its length rather than its length squared.
func TestEscapedStringsDecodeInLinearSpace(t *testing.T) {
	const n = 10000
	line := []byte(`{"op":"identify","guild_ids":[` + strings.Repeat(`"\n",`, n-1) + `"\n"]}`)
	var f Frame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeFrame(line, &f)
	runtime.ReadMemStats(&after)
	if err != nil || len(f.GuildIDs) != n || f.GuildIDs[n-1] != "\n" {
		t.Fatalf("decodeFrame: %v, %d guild IDs", err, len(f.GuildIDs))
	}
	alloc, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(line))
	t.Logf("%d-byte line, %d bytes allocated", len(line), alloc)
	if alloc > limit {
		t.Errorf("decoding a %d-byte line allocated %d bytes, want at most %d", len(line), alloc, limit)
	}
}
