package gateway_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// TestWireTranscript is a black-box suite of the gateway's error and
// refusal paths. Each row writes raw lines to a fresh TCP connection
// and decodes every reply frame, one JSON object per line, checking
// the fields a client acts on: op, id, ok, error and retry_after_ms.
func TestWireTranscript(t *testing.T) {
	type reply struct {
		op  gateway.Op
		id  int64
		ok  bool
		err string
		// retryMin is the least retry_after_ms the frame may carry;
		// zero means the field must be absent.
		retryMin int64
	}
	ready := reply{op: gateway.OpReady}
	request := func(id int64, method string) string {
		return fmt.Sprintf(`{"op":"request","id":%d,"method":%q,"args":{}}`+"\n", id, method)
	}
	rows := []struct {
		name     string
		setup    func(r *rig)
		identify bool     // write a valid identify line first
		writes   []string // each goes out in one Write
		want     []reply
		then     []string // written once every wanted reply has been read
		hangup   bool     // the server closes the connection after the replies
	}{
		{
			name:   "bad_token",
			writes: []string{`{"op":"identify","token":"not-a-token"}` + "\n"},
			want:   []reply{{op: gateway.OpError, err: "invalid token"}},
			hangup: true,
		},
		{
			name:   "first_frame_not_identify",
			writes: []string{`{"op":"heartbeat","seq":1}` + "\n"},
			want:   []reply{{op: gateway.OpError, err: "expected identify"}},
			hangup: true,
		},
		{
			name:     "unknown_op",
			identify: true,
			writes:   []string{`{"op":"mystery"}` + "\n"},
			want:     []reply{ready, {op: gateway.OpError, err: "unexpected op mystery"}},
		},
		{
			name:     "unknown_method",
			identify: true,
			writes:   []string{request(7, "mystery")},
			want:     []reply{ready, {op: gateway.OpResponse, id: 7, err: "gateway: unknown method mystery"}},
		},
		{
			name: "past_max_sessions",
			// The rig's own session holds the only slot.
			setup:  func(r *rig) { r.srv.SetLimits(gateway.Limits{MaxSessions: 1}) },
			want:   []reply{{op: gateway.OpError, err: gateway.ErrShedding, retryMin: 1}},
			hangup: true,
		},
		{
			name:     "rate_limited",
			setup:    func(r *rig) { r.srv.SetRateLimit(0.01, 1) },
			identify: true,
			writes:   []string{request(1, gateway.MethodGuilds) + request(2, gateway.MethodGuilds)},
			want: []reply{ready,
				{op: gateway.OpResponse, id: 1, ok: true},
				{op: gateway.OpResponse, id: 2, err: gateway.ErrRateLimited, retryMin: 1}},
		},
		{
			name:     "pipelined_requests",
			identify: true,
			writes: []string{request(11, gateway.MethodGuilds) +
				request(12, "mystery") + request(13, gateway.MethodPermissions)},
			want: []reply{ready,
				{op: gateway.OpResponse, id: 11, ok: true},
				{op: gateway.OpResponse, id: 12, err: "gateway: unknown method mystery"},
				{op: gateway.OpResponse, id: 13, err: platform.ErrNotFound.Error()}},
		},
		{
			name:     "request_split_across_writes",
			identify: true,
			writes:   []string{`{"op":"request","id":21,"met`, `hod":"guilds","args":{}}` + "\n"},
			want:     []reply{ready, {op: gateway.OpResponse, id: 21, ok: true}},
		},
		{
			name:     "blank_lines_between_frames",
			identify: true,
			writes:   []string{"\n\n" + request(31, gateway.MethodGuilds) + " \r\n\t\n\n" + request(32, "mystery")},
			want: []reply{ready,
				{op: gateway.OpResponse, id: 31, ok: true},
				{op: gateway.OpResponse, id: 32, err: "gateway: unknown method mystery"}},
		},
		{
			// One frame per line: a second object on the line is a
			// decode error, which closes the session.
			name:     "two_objects_on_one_line",
			identify: true,
			writes:   []string{request(41, gateway.MethodGuilds)},
			want:     []reply{ready, {op: gateway.OpResponse, id: 41, ok: true}},
			then:     []string{`{"op":"heartbeat","seq":1}{"op":"heartbeat","seq":2}` + "\n"},
			hangup:   true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
			if row.setup != nil {
				row.setup(r)
			}
			conn := dialRaw(t, r.srv.Addr())
			writes := row.writes
			if row.identify {
				writes = append([]string{fmt.Sprintf(`{"op":"identify","token":%q}`+"\n", r.bot.Token)}, writes...)
			}
			for _, w := range writes {
				if _, err := conn.Write([]byte(w)); err != nil {
					t.Fatalf("write %q: %v", w, err)
				}
			}
			br := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			for i, want := range row.want {
				line, err := br.ReadBytes('\n')
				if err != nil {
					t.Fatalf("reply %d: %v (want %+v)", i, err, want)
				}
				var f gateway.Frame
				if err := json.Unmarshal(line, &f); err != nil {
					t.Fatalf("reply %d is not one JSON frame: %v: %q", i, err, line)
				}
				got := reply{op: f.Op, id: f.ID, ok: f.OK, err: f.Err, retryMin: want.retryMin}
				if got != want {
					t.Errorf("reply %d = %s, want %+v", i, line, want)
				}
				if f.RetryAfterMS < want.retryMin || (want.retryMin == 0 && f.RetryAfterMS != 0) {
					t.Errorf("reply %d retry_after_ms = %d, want at least %d (0: absent)", i, f.RetryAfterMS, want.retryMin)
				}
			}
			for _, w := range row.then {
				if _, err := conn.Write([]byte(w)); err != nil {
					t.Fatalf("write %q: %v", w, err)
				}
			}
			if row.hangup {
				if line, err := br.ReadBytes('\n'); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("connection still open after the refusal: %q, %v", line, err)
				}
			}
		})
	}
}
