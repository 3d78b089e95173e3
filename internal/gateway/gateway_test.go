package gateway_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// rig spins up a platform + gateway with one guild, an owner, and an
// installed bot, returning a connected SDK session.
type rig struct {
	p       *platform.Platform
	srv     *gateway.Server
	owner   *platform.User
	guild   *platform.Guild
	general *platform.Channel
	bot     *platform.User
	sess    *botsdk.Session
}

func newRig(t testing.TB, botPerms permissions.Permission) *rig {
	t.Helper()
	r := newServerRig(t, botPerms)
	sess, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	r.sess = sess
	return r
}

// newServerRig is newRig without the SDK session: no client is
// connected yet.
func newServerRig(t testing.TB, botPerms permissions.Permission) *rig {
	t.Helper()
	p := platform.New(platform.Options{})
	t.Cleanup(p.Close)
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "itest", false)
	if err != nil {
		t.Fatal(err)
	}
	var general *platform.Channel
	for _, ch := range g.Channels {
		general = ch
	}
	bot, err := p.RegisterBot(owner.ID, "itbot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, botPerms); err != nil {
		t.Fatal(err)
	}
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &rig{p: p, srv: srv, owner: owner, guild: g, general: general, bot: bot}
}

func TestIdentifyAndReady(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	if r.sess.BotID() != r.bot.ID.String() {
		t.Errorf("BotID = %s, want %s", r.sess.BotID(), r.bot.ID)
	}
	if r.sess.BotName() != "itbot" {
		t.Errorf("BotName = %s", r.sess.BotName())
	}
	guilds := r.sess.InitialGuilds()
	if len(guilds) != 1 || guilds[0] != r.guild.ID.String() {
		t.Errorf("InitialGuilds = %v", guilds)
	}
}

func TestIdentifyBadToken(t *testing.T) {
	p := platform.New(platform.Options{})
	defer p.Close()
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := botsdk.Dial(srv.Addr(), "not-a-token", botsdk.Options{}); !errors.Is(err, botsdk.ErrIdentify) {
		t.Errorf("bad token err = %v", err)
	}
}

func TestSendAndHistoryRoundTrip(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel|permissions.ReadMessageHistory)
	chID := r.general.ID.String()
	if _, err := r.sess.Send(chID, "hello from bot"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.SendMessage(r.owner.ID, r.general.ID, "hello from human"); err != nil {
		t.Fatal(err)
	}
	msgs, err := r.sess.History(chID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("history = %d messages", len(msgs))
	}
	if msgs[0].Content != "hello from bot" || !msgs[0].AuthorBot {
		t.Errorf("first message wrong: %+v", msgs[0])
	}
	if msgs[1].AuthorID != r.owner.ID.String() || msgs[1].AuthorBot {
		t.Errorf("second message wrong: %+v", msgs[1])
	}
}

// TestFrameLargerThanDrain sends a 256 KiB message, larger than a
// writer's drain and its pooled buffer and 64 times the readers' 4 KiB
// buffers, with bytes of every kind the codec escapes: the server must
// read the request line whole, a sibling session must receive the
// message byte for byte, and History must return it.
func TestFrameLargerThanDrain(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel|permissions.ReadMessageHistory)
	sibBot, err := r.p.RegisterBot(r.owner.ID, "sibling")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.p.InstallBot(r.owner.ID, r.guild.ID, sibBot.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	sib, err := botsdk.Dial(r.srv.Addr(), sibBot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sib.Close()
	got := make(chan string, 1)
	sib.OnMessage(func(_ *botsdk.Session, m *botsdk.Message) { got <- m.Content })

	unit := "plain text, <html> & \"quotes\" \\ tab\t newline\n \x01 caf\u00e9 \u2028 \U0001F600 "
	content := strings.Repeat(unit, (256<<10)/len(unit)+1)
	chID := r.general.ID.String()
	if _, err := r.sess.Send(chID, content); err != nil {
		t.Fatal(err)
	}
	same := func(what, s string) {
		t.Helper()
		if s != content {
			i := 0
			for i < len(s) && i < len(content) && s[i] == content[i] {
				i++
			}
			t.Errorf("%s: %d bytes, want %d; first difference at byte %d", what, len(s), len(content), i)
		}
	}
	select {
	case s := <-got:
		same("sibling's OnMessage", s)
	case <-time.After(5 * time.Second):
		t.Fatal("the sibling session received nothing")
	}
	msgs, err := r.sess.History(chID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("History returned %d messages, want 1", len(msgs))
	}
	same("History", msgs[0].Content)
}

func TestPermissionDeniedSurfacesToSDK(t *testing.T) {
	r := newRig(t, permissions.ViewChannel) // no send-messages of its own
	// Installed bots still inherit @everyone, so strip send-messages
	// from it to model a read-only bot.
	everyone := r.guild.EveryoneRoleID()
	if err := r.p.EditRole(r.owner.ID, r.guild.ID, everyone,
		platform.DefaultEveryonePerms.Remove(permissions.SendMessages)); err != nil {
		t.Fatal(err)
	}
	_, err := r.sess.Send(r.general.ID.String(), "should fail")
	if err == nil || !strings.Contains(err.Error(), "permission denied") {
		t.Errorf("denied send err = %v", err)
	}
	// Kick without kick-members must fail too.
	victim := r.p.CreateUser("victim")
	r.p.JoinGuild(victim.ID, r.guild.ID)
	if err := r.sess.Kick(r.guild.ID.String(), victim.ID.String()); err == nil {
		t.Error("kick without permission should fail")
	}
}

func TestEventPushOnMessage(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	got := make(chan *botsdk.Message, 1)
	r.sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) {
		select {
		case got <- m:
		default:
		}
	})
	if _, err := r.p.SendMessage(r.owner.ID, r.general.ID, "ping"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Content != "ping" || m.GuildID != r.guild.ID.String() {
			t.Errorf("event message wrong: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no MESSAGE_CREATE delivered")
	}
}

func TestBotDoesNotReceiveOwnEcho(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	got := make(chan *botsdk.Message, 4)
	r.sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) { got <- m })
	if _, err := r.sess.Send(r.general.ID.String(), "my own words"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		t.Errorf("bot received its own message: %+v", m)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestEventsScopedToBotGuilds(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	other, err := r.p.CreateGuild(r.owner.ID, "other", false)
	if err != nil {
		t.Fatal(err)
	}
	var otherCh *platform.Channel
	for _, ch := range other.Channels {
		otherCh = ch
	}
	got := make(chan *botsdk.Message, 4)
	r.sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) { got <- m })
	if _, err := r.p.SendMessage(r.owner.ID, otherCh.ID, "elsewhere"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		t.Errorf("received event from a foreign guild: %+v", m)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestAttachmentFetch(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	payload := []byte("canary-document-bytes")
	msg, err := r.p.SendMessage(r.owner.ID, r.general.ID, "take this",
		platform.Attachment{Filename: "secret.docx", ContentType: "application/msword", Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	att, err := r.sess.FetchAttachment(r.general.ID.String(), msg.ID.String(), msg.Attachments[0].ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if att.Filename != "secret.docx" || string(att.Data) != string(payload) {
		t.Errorf("attachment round-trip wrong: %+v", att)
	}
}

func TestGuildInfoAndGuilds(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel)
	guilds, err := r.sess.Guilds()
	if err != nil || len(guilds) != 1 {
		t.Fatalf("Guilds = %v, %v", guilds, err)
	}
	name, members, channels, err := r.sess.GuildInfo(guilds[0])
	if err != nil {
		t.Fatal(err)
	}
	if name != "itest" || members != 2 || len(channels) != 1 || channels[0].Name != "general" {
		t.Errorf("GuildInfo = %q, %d, %v", name, members, channels)
	}
}

func TestModerationViaSDK(t *testing.T) {
	r := newRig(t, permissions.KickMembers|permissions.BanMembers|permissions.ManageNicknames|permissions.ViewChannel)
	// Raise the bot's managed role above new members.
	var botRole *platform.Role
	for _, role := range r.guild.Roles {
		if role.Managed {
			botRole = role
		}
	}
	if err := r.p.MoveRole(r.owner.ID, r.guild.ID, botRole.ID, 5); err != nil {
		t.Fatal(err)
	}
	victim := r.p.CreateUser("victim")
	r.p.JoinGuild(victim.ID, r.guild.ID)
	if err := r.sess.EditNickname(r.guild.ID.String(), victim.ID.String(), "renamed-by-bot"); err != nil {
		t.Fatal(err)
	}
	if err := r.sess.Kick(r.guild.ID.String(), victim.ID.String()); err != nil {
		t.Fatal(err)
	}
	if r.p.IsMember(r.guild.ID, victim.ID) {
		t.Error("victim still member after SDK kick")
	}
	r.p.JoinGuild(victim.ID, r.guild.ID)
	if err := r.sess.Ban(r.guild.ID.String(), victim.ID.String()); err != nil {
		t.Fatal(err)
	}
	if err := r.p.JoinGuild(victim.ID, r.guild.ID); !errors.Is(err, platform.ErrBanned) {
		t.Errorf("rejoin after SDK ban err = %v", err)
	}
}

func TestPermissionIntrospection(t *testing.T) {
	r := newRig(t, permissions.SendMessages|permissions.ViewChannel|permissions.KickMembers)
	perms, err := r.sess.MyPermissions(r.guild.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if !perms.Has(permissions.KickMembers) {
		t.Errorf("MyPermissions = %s", perms)
	}
	// The SDK-level invoker check the paper's Table 3 patterns map to.
	okOwner, err := r.sess.HasPermission(r.guild.ID.String(), r.owner.ID.String(), permissions.KickMembers)
	if err != nil || !okOwner {
		t.Errorf("owner HasPermission = %v, %v", okOwner, err)
	}
	pleb := r.p.CreateUser("pleb")
	r.p.JoinGuild(pleb.ID, r.guild.ID)
	okPleb, err := r.sess.HasPermission(r.guild.ID.String(), pleb.ID.String(), permissions.KickMembers)
	if err != nil || okPleb {
		t.Errorf("pleb HasPermission = %v, %v", okPleb, err)
	}
}

func TestVoiceStatesOverGateway(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	lounge, err := r.p.CreateChannel(r.owner.ID, r.guild.ID, "lounge", platform.ChannelVoice)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.p.JoinVoice(r.owner.ID, lounge.ID); err != nil {
		t.Fatal(err)
	}
	states, err := r.sess.VoiceStates(r.guild.ID.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].UserID != r.owner.ID.String() || states[0].ChannelID != lounge.ID.String() {
		t.Errorf("voice states = %+v", states)
	}
	// Bots not in the guild see nothing.
	if _, err := r.sess.VoiceStates("424242"); err == nil {
		t.Error("foreign guild voice metadata exposed")
	}
}

func TestInteractionDispatchAndRespond(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	got := make(chan *botsdk.Interaction, 1)
	r.sess.OnInteraction(func(s *botsdk.Session, in *botsdk.Interaction) {
		select {
		case got <- in:
		default:
		}
	})
	in, err := r.p.Interact(r.owner.ID, r.bot.ID, r.general.ID, "help", "now")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case rx := <-got:
		if rx.ID != in.ID.String() || rx.UserID != r.owner.ID.String() ||
			rx.Command != "help" || rx.Args != "now" {
			t.Errorf("interaction = %+v", rx)
		}
		if _, err := r.sess.Respond(rx.GuildID, rx.ID, "here to help"); err != nil {
			t.Fatalf("respond: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("interaction not dispatched")
	}
	msgs, err := r.p.ChannelMessages(r.general.ID)
	if err != nil || len(msgs) != 1 || msgs[0].Content != "here to help" {
		t.Errorf("reply missing: %v, %v", msgs, err)
	}
}

func TestInteractionNotDeliveredToOtherBots(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	other, _ := r.p.RegisterBot(r.owner.ID, "bystander")
	if _, err := r.p.InstallBot(r.owner.ID, r.guild.ID, other.ID, permissions.ViewChannel); err != nil {
		t.Fatal(err)
	}
	otherSess, err := botsdk.Dial(r.srv.Addr(), other.Token, botsdk.Options{RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer otherSess.Close()
	leaked := make(chan *botsdk.Interaction, 1)
	otherSess.OnInteraction(func(s *botsdk.Session, in *botsdk.Interaction) { leaked <- in })
	if _, err := r.p.Interact(r.owner.ID, r.bot.ID, r.general.ID, "secret", ""); err != nil {
		t.Fatal(err)
	}
	r.p.Flush()
	select {
	case in := <-leaked:
		t.Errorf("bystander bot received a foreign interaction: %+v", in)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestHeartbeatKeepsSessionAlive(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	sess, err := botsdk.Dial(r.srv.Addr(), r.bot.Token, botsdk.Options{
		RequestTimeout: time.Second, HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	time.Sleep(150 * time.Millisecond)
	if _, err := sess.Guilds(); err != nil {
		t.Errorf("session died despite heartbeats: %v", err)
	}
}

func TestUnknownMethodAndClosedSession(t *testing.T) {
	r := newRig(t, permissions.ViewChannel)
	// member_permissions on a guild the bot is not in → not-member error.
	foreign, _ := r.p.CreateGuild(r.owner.ID, "foreign", false)
	if _, err := r.sess.MemberPermissions(foreign.ID.String(), r.owner.ID.String()); err == nil {
		t.Error("member_permissions outside bot guilds should fail")
	}
	r.sess.Close()
	if _, err := r.sess.Send("1", "x"); !errors.Is(err, botsdk.ErrClosed) {
		t.Errorf("send on closed session err = %v", err)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	r := newRig(t, permissions.ViewChannel)
	r.srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := r.sess.Guilds(); err != nil {
			return // session noticed the teardown
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("session survived server close")
}

func TestGatewayRateLimitAndSDKRetry(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	r.srv.SetRateLimit(50, 3)
	chID := r.general.ID.String()
	// A burst well beyond the bucket: every send must still succeed
	// because the SDK honours retry_after_ms transparently.
	start := time.Now()
	for i := 0; i < 12; i++ {
		if _, err := r.sess.Send(chID, "burst"); err != nil {
			t.Fatalf("send %d under rate limit: %v", i, err)
		}
	}
	// 12 requests at 50 rps with burst 3 needs roughly (12-3)/50 ≈ 180ms.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("burst finished in %v — limiter apparently inert", elapsed)
	}
	msgs, err := r.sess.History(chID, 0)
	if err == nil && len(msgs) != 12 {
		t.Errorf("messages delivered = %d, want 12", len(msgs))
	}
}

func TestGatewayRateLimitDisabledByDefault(t *testing.T) {
	r := newRig(t, permissions.ViewChannel|permissions.SendMessages)
	start := time.Now()
	for i := 0; i < 30; i++ {
		if _, err := r.sess.Send(r.general.ID.String(), "fast"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("unthrottled burst took %v", elapsed)
	}
}

func TestManyConcurrentBots(t *testing.T) {
	p := platform.New(platform.Options{})
	defer p.Close()
	owner := p.CreateUser("owner")
	g, _ := p.CreateGuild(owner.ID, "busy", false)
	var general *platform.Channel
	for _, ch := range g.Channels {
		general = ch
	}
	srv, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 12
	received := make(chan string, n*2)
	var sessions []*botsdk.Session
	for i := 0; i < n; i++ {
		bot, _ := p.RegisterBot(owner.ID, "bot")
		if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
			t.Fatal(err)
		}
		sess, err := botsdk.Dial(srv.Addr(), bot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		sess.OnMessage(func(s *botsdk.Session, m *botsdk.Message) {
			received <- s.BotID()
		})
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	if _, err := p.SendMessage(owner.ID, general.ID, "broadcast"); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	timeout := time.After(3 * time.Second)
	for len(seen) < n {
		select {
		case id := <-received:
			seen[id] = true
		case <-timeout:
			t.Fatalf("only %d/%d bots received the broadcast", len(seen), n)
		}
	}
}
