// Package gateway exposes the platform to chatbots over a TCP
// line-delimited JSON protocol, mirroring the role of Discord's gateway
// plus a minimal REST surface multiplexed on the same connection.
//
// A session begins with an identify frame carrying the bot token. The
// server then pushes dispatch frames for events in guilds the bot
// belongs to, answers request frames (send message, read history, kick,
// ban, …) with response frames, and expects periodic heartbeats.
//
// # Wire format
//
// Each frame is one JSON object on one line, ended by '\n'. Lines that
// hold only whitespace are skipped. Two objects on one line, or one
// object spread over several lines, is a decode error, and the peer
// that reads it closes the session. The server reads a connection's
// first line, its identify frame, under a 64 KiB cap; later lines have
// none. Both ends of the wire use the one codec in this file:
//
//   - AppendFrame writes a frame by hand. Its bytes are exactly
//     json.Marshal's followed by '\n', escapes included; only the Args
//     and Result maps go through encoding/json.
//   - FrameReader finds each line in its buffer and decodes it by
//     hand, handing the Args and Result objects to
//     json.Unmarshal. A line the hand decoder does not take (an unknown,
//     case-folded or repeated key, a null, a float in an integer field,
//     malformed JSON) goes whole to json.Unmarshal, so every line
//     decodes to the same Frame, and fails or not, exactly as
//     json.Unmarshal would.
package gateway

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/platform"
)

// Op is the frame opcode.
type Op string

// Frame opcodes.
const (
	OpIdentify     Op = "identify"
	OpReady        Op = "ready"
	OpDispatch     Op = "dispatch"
	OpHeartbeat    Op = "heartbeat"
	OpHeartbeatAck Op = "heartbeat_ack"
	OpRequest      Op = "request"
	OpResponse     Op = "response"
	OpError        Op = "error"
)

// Method names accepted in request frames.
const (
	MethodSendMessage   = "send_message"
	MethodHistory       = "history"
	MethodGuilds        = "guilds"
	MethodGuildInfo     = "guild_info"
	MethodKick          = "kick"
	MethodBan           = "ban"
	MethodEditNickname  = "edit_nickname"
	MethodGetAttachment = "get_attachment"
	MethodPermissions   = "permissions"
	// MethodMemberPermissions resolves another member's effective guild
	// permissions — what SDKs expose so bot code CAN check invoking
	// users. Whether bot code actually calls it is the paper's Table 3
	// question.
	MethodMemberPermissions = "member_permissions"
	// MethodVoiceStates exposes the guild's voice metadata — one of the
	// data classes Discord's policy says bots may access.
	MethodVoiceStates = "voice_states"
	// MethodRespondInteraction posts a bot's reply to a slash-command
	// interaction.
	MethodRespondInteraction = "respond_interaction"
	// MethodCreateWebhook mints a channel webhook (manage-webhooks).
	MethodCreateWebhook = "create_webhook"
)

// Frame is the single wire envelope. Fields are populated per opcode.
type Frame struct {
	Op    Op     `json:"op"`
	Token string `json:"token,omitempty"` // identify

	BotID    string   `json:"bot_id,omitempty"`   // ready
	BotName  string   `json:"bot_name,omitempty"` // ready
	GuildIDs []string `json:"guild_ids,omitempty"`

	Type  string     `json:"type,omitempty"`  // dispatch
	Event *WireEvent `json:"event,omitempty"` // dispatch

	Seq int64 `json:"seq,omitempty"` // heartbeat

	ID     int64          `json:"id,omitempty"`     // request/response correlation
	Method string         `json:"method,omitempty"` // request
	Args   map[string]any `json:"args,omitempty"`   // request

	OK     bool           `json:"ok,omitempty"`     // response
	Result map[string]any `json:"result,omitempty"` // response
	Err    string         `json:"error,omitempty"`  // response/error
	// RetryAfterMS, on a rate-limited response, tells the client how
	// long to back off before retrying — Discord's Retry-After.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrRateLimited is the error string carried by throttled responses.
const ErrRateLimited = "gateway: rate limited"

// ErrShedding is the error string carried by the OpError frame a
// connection receives when admission control refuses it (session cap
// reached or identify rate exceeded). RetryAfterMS on the same frame
// hints when to try again.
const ErrShedding = "gateway: shedding"

// WireEvent is the JSON shape of a platform event.
type WireEvent struct {
	GuildID     string           `json:"guild_id,omitempty"`
	ChannelID   string           `json:"channel_id,omitempty"`
	UserID      string           `json:"user_id,omitempty"`
	Message     *WireMessage     `json:"message,omitempty"`
	Interaction *WireInteraction `json:"interaction,omitempty"`
}

// WireInteraction is the JSON shape of a slash-command invocation. It
// carries the invoking user — the context prefix commands lack.
type WireInteraction struct {
	ID        string `json:"id"`
	GuildID   string `json:"guild_id"`
	ChannelID string `json:"channel_id"`
	UserID    string `json:"user_id"`
	Command   string `json:"command"`
	Args      string `json:"args,omitempty"`
}

// WireMessage is the JSON shape of a message.
type WireMessage struct {
	ID          string           `json:"id"`
	ChannelID   string           `json:"channel_id"`
	GuildID     string           `json:"guild_id"`
	AuthorID    string           `json:"author_id"`
	AuthorBot   bool             `json:"author_bot"`
	Content     string           `json:"content"`
	Attachments []WireAttachment `json:"attachments,omitempty"`
}

// WireAttachment describes an attachment without its payload; bots fetch
// payloads with the get_attachment method, like downloading from a CDN.
type WireAttachment struct {
	ID          string `json:"id"`
	Filename    string `json:"filename"`
	ContentType string `json:"content_type"`
	Size        int    `json:"size"`
}

func encodeMessage(p *platform.Platform, m *platform.Message) *WireMessage {
	wm := &WireMessage{
		ID:        m.ID.String(),
		ChannelID: m.ChannelID.String(),
		GuildID:   m.GuildID.String(),
		AuthorID:  m.AuthorID.String(),
		Content:   m.Content,
	}
	if u, err := p.UserByID(m.AuthorID); err == nil {
		wm.AuthorBot = u.IsBot()
	}
	for _, a := range m.Attachments {
		wm.Attachments = append(wm.Attachments, WireAttachment{
			ID: a.ID.String(), Filename: a.Filename,
			ContentType: a.ContentType, Size: len(a.Data),
		})
	}
	return wm
}

func encodeEvent(p *platform.Platform, e platform.Event) *WireEvent {
	we := &WireEvent{
		GuildID:   e.GuildID.String(),
		ChannelID: e.ChannelID.String(),
		UserID:    e.UserID.String(),
	}
	if e.Message != nil {
		we.Message = encodeMessage(p, e.Message)
	}
	if e.Interaction != nil {
		we.Interaction = &WireInteraction{
			ID:        e.Interaction.ID.String(),
			GuildID:   e.Interaction.GuildID.String(),
			ChannelID: e.Interaction.ChannelID.String(),
			UserID:    e.Interaction.UserID.String(),
			Command:   e.Interaction.Command,
			Args:      e.Interaction.Args,
		}
	}
	return we
}

func encodeData(b []byte) string { return base64.StdEncoding.EncodeToString(b) }
func decodeData(s string) []byte { b, _ := base64.StdEncoding.DecodeString(s); return b }

// FrameReader reads frames from a connection, one per line.
type FrameReader struct {
	br  *bufio.Reader
	max int // when positive, the longest line ReadFrame takes
}

// errLineTooLong refuses a line longer than FrameReader.max.
var errLineTooLong = errors.New("gateway: frame line too long")

// NewFrameReader buffers r and reads frames from it.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// ReadFrame decodes the next frame into f, skipping blank lines. A
// final line that the connection ends without '\n' is decoded like any
// other. It returns the read error, io.EOF at a clean end, or the
// decode error. Nothing in f refers to the reader's buffer.
func (r *FrameReader) ReadFrame(f *Frame) error {
	for {
		line, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line, err = r.longLine(line)
		}
		if err != nil && (err != io.EOF || len(line) == 0) {
			return err
		}
		if !blank(line) {
			return decodeFrame(line, f)
		}
		if err != nil {
			return err
		}
	}
}

// longLine gathers a line longer than the reader's buffer, of which
// part is the start. With r.max set it reads at most one buffer past
// r.max before it refuses the line.
func (r *FrameReader) longLine(part []byte) ([]byte, error) {
	line := append([]byte(nil), part...)
	for {
		part, err := r.br.ReadSlice('\n')
		line = append(line, part...)
		if r.max > 0 && len(line) > r.max {
			return nil, errLineTooLong
		}
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

func blank(line []byte) bool {
	for _, c := range line {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// decodeFrame decodes one line into f, which it zeroes first. The
// result, and whether it fails, are exactly those of json.Unmarshal
// into a zero Frame.
func decodeFrame(line []byte, f *Frame) error {
	*f = Frame{}
	d := decoder{b: line}
	if d.frame(f) && d.end() {
		return nil
	}
	*f = Frame{}
	return json.Unmarshal(line, f)
}

// decoder parses the frames AppendFrame writes, and any other JSON it
// can decode exactly as encoding/json does. Each method reports false
// for anything else, and decodeFrame then falls back to json.Unmarshal.
type decoder struct {
	b []byte
	i int // the next byte to read
}

func (d *decoder) ws() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// object parses the JSON object at the cursor, calling field with each
// key once the cursor is on its value. field decodes the value and
// returns the key's bit in the object, or 0 for a key or value it does
// not take. An unknown or repeated key fails the parse: encoding/json
// matches keys case-insensitively and merges repeated ones.
func (d *decoder) object(field func(key []byte) uint32) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	var seen uint32
	for {
		d.ws()
		key, ok := d.str()
		if !ok || !d.consume(':') {
			return false
		}
		d.ws()
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// array parses the JSON array at the cursor, calling elem with the
// cursor on each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		d.ws()
		if !elem() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

func (d *decoder) frame(f *Frame) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "op":
			return d.strTo((*string)(&f.Op), 1<<0)
		case "token":
			return d.strTo(&f.Token, 1<<1)
		case "bot_id":
			return d.strTo(&f.BotID, 1<<2)
		case "bot_name":
			return d.strTo(&f.BotName, 1<<3)
		case "guild_ids":
			f.GuildIDs = []string{}
			return bitIf(1<<4, d.array(func() bool {
				var s string
				ok := d.strTo(&s, 1) != 0
				f.GuildIDs = append(f.GuildIDs, s)
				return ok
			}))
		case "type":
			return d.strTo(&f.Type, 1<<5)
		case "event":
			f.Event = new(WireEvent)
			return bitIf(1<<6, d.event(f.Event))
		case "seq":
			return d.intTo(&f.Seq, 1<<7)
		case "id":
			return d.intTo(&f.ID, 1<<8)
		case "method":
			return d.strTo(&f.Method, 1<<9)
		case "args":
			return d.mapTo(&f.Args, 1<<10)
		case "ok":
			return d.boolTo(&f.OK, 1<<11)
		case "result":
			return d.mapTo(&f.Result, 1<<12)
		case "error":
			return d.strTo(&f.Err, 1<<13)
		case "retry_after_ms":
			return d.intTo(&f.RetryAfterMS, 1<<14)
		}
		return 0
	})
}

func (d *decoder) event(e *WireEvent) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "guild_id":
			return d.strTo(&e.GuildID, 1<<0)
		case "channel_id":
			return d.strTo(&e.ChannelID, 1<<1)
		case "user_id":
			return d.strTo(&e.UserID, 1<<2)
		case "message":
			e.Message = new(WireMessage)
			return bitIf(1<<3, d.message(e.Message))
		case "interaction":
			e.Interaction = new(WireInteraction)
			return bitIf(1<<4, d.interaction(e.Interaction))
		}
		return 0
	})
}

func (d *decoder) message(m *WireMessage) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "id":
			return d.strTo(&m.ID, 1<<0)
		case "channel_id":
			return d.strTo(&m.ChannelID, 1<<1)
		case "guild_id":
			return d.strTo(&m.GuildID, 1<<2)
		case "author_id":
			return d.strTo(&m.AuthorID, 1<<3)
		case "author_bot":
			return d.boolTo(&m.AuthorBot, 1<<4)
		case "content":
			return d.strTo(&m.Content, 1<<5)
		case "attachments":
			m.Attachments = []WireAttachment{}
			return bitIf(1<<6, d.array(func() bool {
				m.Attachments = append(m.Attachments, WireAttachment{})
				return d.attachment(&m.Attachments[len(m.Attachments)-1])
			}))
		}
		return 0
	})
}

func (d *decoder) attachment(a *WireAttachment) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "id":
			return d.strTo(&a.ID, 1<<0)
		case "filename":
			return d.strTo(&a.Filename, 1<<1)
		case "content_type":
			return d.strTo(&a.ContentType, 1<<2)
		case "size":
			var n int64
			if d.intTo(&n, 1) == 0 || int64(int(n)) != n {
				return 0
			}
			a.Size = int(n)
			return 1 << 3
		}
		return 0
	})
}

func (d *decoder) interaction(in *WireInteraction) bool {
	return d.object(func(key []byte) uint32 {
		switch string(key) {
		case "id":
			return d.strTo(&in.ID, 1<<0)
		case "guild_id":
			return d.strTo(&in.GuildID, 1<<1)
		case "channel_id":
			return d.strTo(&in.ChannelID, 1<<2)
		case "user_id":
			return d.strTo(&in.UserID, 1<<3)
		case "command":
			return d.strTo(&in.Command, 1<<4)
		case "args":
			return d.strTo(&in.Args, 1<<5)
		}
		return 0
	})
}

// bitIf returns bit if ok, else 0.
func bitIf(bit uint32, ok bool) uint32 {
	if ok {
		return bit
	}
	return 0
}

func (d *decoder) strTo(dst *string, bit uint32) uint32 {
	s, ok := d.str()
	if ok {
		*dst = string(s)
	}
	return bitIf(bit, ok)
}

func (d *decoder) boolTo(dst *bool, bit uint32) uint32 {
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst, d.i = true, d.i+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst, d.i = false, d.i+5
	default:
		return 0
	}
	return bit
}

// intTo decodes an integer literal that fits in an int64. A fraction
// or an exponent, which json.Unmarshal refuses for an integer field,
// is left to it.
func (d *decoder) intTo(dst *int64, bit uint32) uint32 {
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		n = n*10 + uint64(d.b[i]-'0')
	}
	digits := i - start
	// 19 digits cannot overflow a uint64; 20 can, and exceed an int64.
	if digits == 0 || digits > 19 || (d.b[start] == '0' && digits > 1) {
		return 0
	}
	if i < len(d.b) && (d.b[i] == '.' || d.b[i] == 'e' || d.b[i] == 'E') {
		return 0
	}
	switch {
	case neg && n <= 1<<63:
		*dst = -int64(n)
	case !neg && n < 1<<63:
		*dst = int64(n)
	default:
		return 0
	}
	d.i = i
	return bit
}

// mapTo hands the object at the cursor to json.Unmarshal.
func (d *decoder) mapTo(dst *map[string]any, bit uint32) uint32 {
	start := d.i
	if !d.skipObject() {
		return 0
	}
	return bitIf(bit, json.Unmarshal(d.b[start:d.i], dst) == nil)
}

// skipObject moves the cursor past the object it is on, matching
// brackets outside strings. It checks nothing else: json.Unmarshal
// validates what it skipped.
func (d *decoder) skipObject() bool {
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return false
	}
	depth := 0
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case '"':
			for d.i++; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
				if d.b[d.i] == '\\' {
					d.i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				d.i++
				return true
			}
		}
	}
	return false
}

// str reads the JSON string at the cursor and returns its value as
// encoding/json decodes it. The bytes alias the line when the string
// holds no escape and no invalid UTF-8.
func (d *decoder) str() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(d.b); {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], true
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	return nil, false
}

// unquote decodes the string whose contents begin at start, from the
// first byte at i that needs more than a copy, as encoding/json's
// unquoteBytes does: escapes are resolved, a lone or broken surrogate
// escape becomes U+FFFD, and so does each byte of invalid UTF-8.
func (d *decoder) unquote(start, i int) ([]byte, bool) {
	// out grows with the value. Sized from the rest of the line, it
	// would make a line of many escaped strings cost its length squared.
	out := append([]byte(nil), d.b[start:i]...)
	for i < len(d.b) {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return out, true
		case c < ' ':
			return nil, false
		case c == '\\':
			if i+1 >= len(d.b) {
				return nil, false
			}
			switch e := d.b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := getu4(d.b[i:])
				if r < 0 {
					return nil, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(d.b[i:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, false
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return nil, false
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// AppendFrame appends f and '\n' to dst, byte for byte what
// json.Marshal(f) followed by '\n' gives. It fails only when the Args
// or Result map holds a value json.Marshal refuses, and then returns
// dst unchanged.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = appendString(append(dst, `,"op":`...), string(f.Op))
	dst = appendStringField(dst, `,"token":`, f.Token)
	dst = appendStringField(dst, `,"bot_id":`, f.BotID)
	dst = appendStringField(dst, `,"bot_name":`, f.BotName)
	if len(f.GuildIDs) > 0 {
		dst = append(dst, `,"guild_ids":[`...)
		for i, id := range f.GuildIDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, id)
		}
		dst = append(dst, ']')
	}
	dst = appendStringField(dst, `,"type":`, f.Type)
	if f.Event != nil {
		dst = appendEvent(append(dst, `,"event":`...), f.Event)
	}
	dst = appendIntField(dst, `,"seq":`, f.Seq)
	dst = appendIntField(dst, `,"id":`, f.ID)
	dst = appendStringField(dst, `,"method":`, f.Method)
	var err error
	if dst, err = appendMapField(dst, `,"args":`, f.Args); err != nil {
		return dst[:start], err
	}
	if f.OK {
		dst = append(dst, `,"ok":true`...)
	}
	if dst, err = appendMapField(dst, `,"result":`, f.Result); err != nil {
		return dst[:start], err
	}
	dst = appendStringField(dst, `,"error":`, f.Err)
	dst = appendIntField(dst, `,"retry_after_ms":`, f.RetryAfterMS)
	return append(closeObject(dst, start), '\n'), nil
}

// closeObject ends the object whose fields were appended from start,
// each after a comma: the first comma becomes the opening brace.
func closeObject(dst []byte, start int) []byte {
	if len(dst) == start {
		return append(dst, '{', '}')
	}
	dst[start] = '{'
	return append(dst, '}')
}

func appendEvent(dst []byte, e *WireEvent) []byte {
	start := len(dst)
	dst = appendStringField(dst, `,"guild_id":`, e.GuildID)
	dst = appendStringField(dst, `,"channel_id":`, e.ChannelID)
	dst = appendStringField(dst, `,"user_id":`, e.UserID)
	if m := e.Message; m != nil {
		dst = appendString(append(dst, `,"message":{"id":`...), m.ID)
		dst = appendString(append(dst, `,"channel_id":`...), m.ChannelID)
		dst = appendString(append(dst, `,"guild_id":`...), m.GuildID)
		dst = appendString(append(dst, `,"author_id":`...), m.AuthorID)
		dst = strconv.AppendBool(append(dst, `,"author_bot":`...), m.AuthorBot)
		dst = appendString(append(dst, `,"content":`...), m.Content)
		if len(m.Attachments) > 0 {
			dst = append(dst, `,"attachments":[`...)
			for i, a := range m.Attachments {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(append(dst, `{"id":`...), a.ID)
				dst = appendString(append(dst, `,"filename":`...), a.Filename)
				dst = appendString(append(dst, `,"content_type":`...), a.ContentType)
				dst = strconv.AppendInt(append(dst, `,"size":`...), int64(a.Size), 10)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	if in := e.Interaction; in != nil {
		dst = appendString(append(dst, `,"interaction":{"id":`...), in.ID)
		dst = appendString(append(dst, `,"guild_id":`...), in.GuildID)
		dst = appendString(append(dst, `,"channel_id":`...), in.ChannelID)
		dst = appendString(append(dst, `,"user_id":`...), in.UserID)
		dst = appendString(append(dst, `,"command":`...), in.Command)
		dst = appendStringField(dst, `,"args":`, in.Args)
		dst = append(dst, '}')
	}
	return closeObject(dst, start)
}

// appendStringField appends an omitempty string field.
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// appendMapField appends an omitempty map field through json.Marshal.
func appendMapField(dst []byte, key string, m map[string]any) ([]byte, error) {
	if len(m) == 0 {
		return dst, nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		return dst, err
	}
	return append(append(dst, key...), b...), nil
}

// htmlSafe[c] reports whether json.Marshal copies ASCII byte c into a
// string unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s quoted as json.Marshal quotes it: '<', '>' and
// '&' are escaped, as are U+2028 and U+2029, and each byte of invalid
// UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
