package enforcer

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

// rig: platform + gateway + enforcer, a guild with a privileged mod, an
// unprivileged pleb, a victim, and a connected bot holding kick/ban.
type rig struct {
	p       *platform.Platform
	enf     *Enforcer
	guild   *platform.Guild
	general *platform.Channel
	mod     *platform.User
	pleb    *platform.User
	victim  *platform.User
	sess    *botsdk.Session
}

func newRig(t *testing.T, window time.Duration) *rig {
	t.Helper()
	p := platform.New(platform.Options{})
	gw, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	enf := New(p, Options{Window: window})
	gw.SetInterceptor(enf.Intercept)
	t.Cleanup(func() {
		gw.Close()
		enf.Close()
		p.Close()
	})

	owner := p.CreateUser("owner")
	g, _ := p.CreateGuild(owner.ID, "enforced", false)
	var general *platform.Channel
	for _, ch := range g.Channels {
		general = ch
	}
	mod := p.CreateUser("mod")
	pleb := p.CreateUser("pleb")
	victim := p.CreateUser("victim")
	for _, u := range []*platform.User{mod, pleb, victim} {
		if err := p.JoinGuild(u.ID, g.ID); err != nil {
			t.Fatal(err)
		}
	}
	modRole, err := p.CreateRole(owner.ID, g.ID, "mods", permissions.KickMembers|permissions.BanMembers|permissions.ManageNicknames, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.GrantRole(owner.ID, g.ID, mod.ID, modRole.ID); err != nil {
		t.Fatal(err)
	}

	bot, _ := p.RegisterBot(owner.ID, "modbot")
	botRole, err := p.InstallBot(owner.ID, g.ID, bot.ID,
		permissions.ViewChannel|permissions.SendMessages|permissions.KickMembers|permissions.BanMembers|permissions.ManageNicknames)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MoveRole(owner.ID, g.ID, botRole.ID, 10); err != nil {
		t.Fatal(err)
	}
	sess, err := botsdk.Dial(gw.Addr(), bot.Token, botsdk.Options{RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return &rig{p: p, enf: enf, guild: g, general: general, mod: mod, pleb: pleb, victim: victim, sess: sess}
}

// speak posts a human message and waits for the enforcer to see it.
func (r *rig) speak(t *testing.T, u *platform.User, text string) {
	t.Helper()
	if _, err := r.p.SendMessage(u.ID, r.general.ID, text); err != nil {
		t.Fatal(err)
	}
	// Flush returns once every callback has run, the enforcer's too.
	r.p.Flush()
	r.enf.mu.Lock()
	last, ok := r.enf.last[r.guild.ID]
	r.enf.mu.Unlock()
	if !ok || last.userID != u.ID {
		t.Fatal("enforcer never observed the interaction")
	}
}

func TestPrivilegedUserActionAllowed(t *testing.T) {
	r := newRig(t, time.Minute)
	r.speak(t, r.mod, "!kick victim")
	if err := r.sess.Kick(r.guild.ID.String(), r.victim.ID.String()); err != nil {
		t.Fatalf("kick triggered by a privileged mod was denied: %v", err)
	}
	if r.p.IsMember(r.guild.ID, r.victim.ID) {
		t.Error("victim still present")
	}
	if s := r.enf.Stats(); s.Allowed != 1 || s.DeniedRedelegate != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReDelegationBlocked(t *testing.T) {
	r := newRig(t, time.Minute)
	r.speak(t, r.pleb, "!kick victim")
	err := r.sess.Kick(r.guild.ID.String(), r.victim.ID.String())
	if err == nil {
		t.Fatal("re-delegated kick allowed — the enforcer failed")
	}
	if !strings.Contains(err.Error(), "lacks the required permission") {
		t.Errorf("err = %v", err)
	}
	if !r.p.IsMember(r.guild.ID, r.victim.ID) {
		t.Error("victim was kicked despite the block")
	}
	if s := r.enf.Stats(); s.DeniedRedelegate != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoInteractionContextBlocked(t *testing.T) {
	r := newRig(t, time.Minute)
	// No human has spoken: the bot acts spontaneously (the Melonian
	// pattern — owner-driven, not interaction-driven).
	err := r.sess.Ban(r.guild.ID.String(), r.victim.ID.String())
	if err == nil {
		t.Fatal("spontaneous privileged action allowed")
	}
	if !strings.Contains(err.Error(), "without a triggering interaction") {
		t.Errorf("err = %v", err)
	}
	if s := r.enf.Stats(); s.DeniedNoContext != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInteractionWindowExpires(t *testing.T) {
	r := newRig(t, 60*time.Millisecond)
	r.speak(t, r.mod, "!nick victim")
	time.Sleep(120 * time.Millisecond)
	err := r.sess.EditNickname(r.guild.ID.String(), r.victim.ID.String(), "stale")
	if err == nil {
		t.Fatal("action authorized by an expired interaction")
	}
	if s := r.enf.Stats(); s.DeniedNoContext != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBotMessagesDoNotAuthorize(t *testing.T) {
	r := newRig(t, time.Minute)
	// The bot itself speaks; its own message must not count as a human
	// interaction.
	if _, err := r.sess.Send(r.general.ID.String(), "I will now moderate"); err != nil {
		t.Fatal(err)
	}
	r.p.Flush()
	time.Sleep(20 * time.Millisecond)
	if err := r.sess.Kick(r.guild.ID.String(), r.victim.ID.String()); err == nil {
		t.Fatal("bot self-authorized via its own message")
	}
}

func TestReadsAndSendsPassThrough(t *testing.T) {
	r := newRig(t, time.Minute)
	// Unprivileged methods are not gated: the enforcer governs
	// privileged actions, not conversation.
	if _, err := r.sess.Send(r.general.ID.String(), "hello"); err != nil {
		t.Fatalf("send gated: %v", err)
	}
	if _, err := r.sess.Guilds(); err != nil {
		t.Fatalf("guilds gated: %v", err)
	}
	if s := r.enf.Stats(); s.Allowed != 0 && s.DeniedNoContext != 0 {
		t.Errorf("pass-through counted: %+v", s)
	}
}

func TestLatestInteractionWins(t *testing.T) {
	r := newRig(t, time.Minute)
	r.speak(t, r.mod, "looks fine to me")
	r.speak(t, r.pleb, "!kick victim") // pleb speaks last
	err := r.sess.Kick(r.guild.ID.String(), r.victim.ID.String())
	if err == nil {
		t.Fatal("kick attributed to the earlier privileged speaker")
	}
	if !errors.Is(errForTest(err), ErrReDelegation) && !strings.Contains(err.Error(), "lacks the required") {
		t.Errorf("err = %v", err)
	}
}

// errForTest normalizes errors that crossed the wire as strings.
func errForTest(err error) error { return err }

func TestEnforcerPerGuildScoping(t *testing.T) {
	r := newRig(t, time.Minute)
	// A mod interaction in ANOTHER guild must not authorize actions in
	// this one.
	owner2 := r.p.CreateUser("owner2")
	g2, _ := r.p.CreateGuild(owner2.ID, "other", false)
	var ch2 *platform.Channel
	for _, c := range g2.Channels {
		ch2 = c
	}
	if _, err := r.p.SendMessage(owner2.ID, ch2.ID, "unrelated chatter"); err != nil {
		t.Fatal(err)
	}
	r.p.Flush()
	time.Sleep(20 * time.Millisecond)
	if err := r.sess.Kick(r.guild.ID.String(), r.victim.ID.String()); err == nil {
		t.Fatal("cross-guild interaction authorized the action")
	}
}
