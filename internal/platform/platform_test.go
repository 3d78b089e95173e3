package platform

import (
	"errors"
	"testing"

	"repro/internal/permissions"
)

// fixture builds a platform with an owner, a guild and its default
// channel.
func fixture(t *testing.T) (*Platform, *User, *Guild, *Channel) {
	t.Helper()
	p := New(Options{})
	t.Cleanup(p.Close)
	owner := p.CreateUser("owner")
	g, err := p.CreateGuild(owner.ID, "testguild", false)
	if err != nil {
		t.Fatal(err)
	}
	var general *Channel
	for _, ch := range g.Channels {
		general = ch
	}
	return p, owner, g, general
}

func addUser(t *testing.T, p *Platform, g *Guild, name string) *User {
	t.Helper()
	u := p.CreateUser(name)
	if err := p.JoinGuild(u.ID, g.ID); err != nil {
		t.Fatalf("join %s: %v", name, err)
	}
	return u
}

func TestCreateUserAndTag(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	u := p.CreateUser("editid")
	if u.ID == Nil {
		t.Fatal("zero ID allocated")
	}
	if u.Kind != KindNormal || u.IsBot() {
		t.Error("new account should be a normal user")
	}
	if tag := u.Tag(); len(tag) < len("editid#0") {
		t.Errorf("Tag() = %q", tag)
	}
	got, err := p.UserByID(u.ID)
	if err != nil || got.Name != "editid" {
		t.Errorf("UserByID = %v, %v", got, err)
	}
	if _, err := p.UserByID(9999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing user err = %v", err)
	}
}

func TestRegisterBotAndToken(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	owner := p.CreateUser("dev")
	bot, err := p.RegisterBot(owner.ID, "helper")
	if err != nil {
		t.Fatal(err)
	}
	if !bot.IsBot() || bot.OwnerID != owner.ID {
		t.Error("bot identity wrong")
	}
	if bot.Token == "" {
		t.Fatal("bot has no token")
	}
	got, err := p.BotByToken(bot.Token)
	if err != nil || got.ID != bot.ID {
		t.Errorf("BotByToken = %v, %v", got, err)
	}
	if _, err := p.BotByToken("bogus"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("bad token err = %v", err)
	}
	// A bot cannot own another bot.
	if _, err := p.RegisterBot(bot.ID, "nested"); !errors.Is(err, ErrNotNormalUser) {
		t.Errorf("bot-owned bot err = %v", err)
	}
	if _, err := p.RegisterBot(424242, "orphan"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing owner err = %v", err)
	}
}

func TestCreateGuildDefaults(t *testing.T) {
	p, owner, g, general := fixture(t)
	if g.OwnerID != owner.ID {
		t.Error("owner not set")
	}
	if general == nil || general.Kind != ChannelText {
		t.Fatal("default text channel missing")
	}
	ev := g.Roles[g.EveryoneRoleID()]
	if ev == nil || ev.Position != 0 {
		t.Fatal("@everyone role missing or mispositioned")
	}
	if !ev.Perms.Has(permissions.SendMessages) {
		t.Error("@everyone lacks send messages")
	}
	if ev.Perms.HasAny(permissions.Administrator | permissions.ManageGuild) {
		t.Error("@everyone must not hold dangerous bits by default")
	}
	if _, ok := g.Members[owner.ID]; !ok {
		t.Error("owner not auto-joined")
	}
	if _, err := p.Guild(123456); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing guild err = %v", err)
	}
	bot, _ := p.RegisterBot(owner.ID, "b")
	if _, err := p.CreateGuild(bot.ID, "botguild", false); !errors.Is(err, ErrNotNormalUser) {
		t.Errorf("bot-owned guild err = %v", err)
	}
}

func TestJoinGuildRules(t *testing.T) {
	p, owner, g, _ := fixture(t)
	u := p.CreateUser("alice")
	if err := p.JoinGuild(u.ID, g.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.JoinGuild(u.ID, g.ID); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("rejoin err = %v", err)
	}
	if err := p.JoinGuild(999, g.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost join err = %v", err)
	}
	if err := p.JoinGuild(u.ID, 999); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost guild err = %v", err)
	}
	bot, _ := p.RegisterBot(owner.ID, "b")
	if err := p.JoinGuild(bot.ID, g.ID); !errors.Is(err, ErrNotNormalUser) {
		t.Errorf("bots must be installed, not joined: %v", err)
	}
	priv, _ := p.CreateGuild(owner.ID, "private", true)
	if err := p.JoinGuild(u.ID, priv.ID); !errors.Is(err, ErrPrivateGuild) {
		t.Errorf("private join err = %v", err)
	}
}

func TestUnverifiedRapidJoinFlag(t *testing.T) {
	p := New(Options{UnverifiedJoinLimit: 3})
	defer p.Close()
	owner := p.CreateUser("owner")
	u := p.CreateUser("joiner")
	var guilds []*Guild
	for i := 0; i < 5; i++ {
		g, err := p.CreateGuild(owner.ID, "g", false)
		if err != nil {
			t.Fatal(err)
		}
		guilds = append(guilds, g)
	}
	for i := 0; i < 3; i++ {
		if err := p.JoinGuild(u.ID, guilds[i].ID); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := p.JoinGuild(u.ID, guilds[3].ID); !errors.Is(err, ErrVerification) {
		t.Fatalf("4th unverified join err = %v, want ErrVerification", err)
	}
	// Paper §4.2: the verification step is completed manually; after it
	// the account may continue joining.
	if err := p.VerifyUser(u.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.JoinGuild(u.ID, guilds[3].ID); err != nil {
		t.Fatalf("verified join err = %v", err)
	}
	if err := p.VerifyUser(31337); !errors.Is(err, ErrNotFound) {
		t.Errorf("verify ghost err = %v", err)
	}
}

func TestNormalGuildLimit(t *testing.T) {
	p := New(Options{NormalGuildLimit: 2, UnverifiedJoinLimit: 2})
	defer p.Close()
	owner := p.CreateUser("owner")
	u := p.CreateUser("capped")
	p.VerifyUser(u.ID)
	g1, _ := p.CreateGuild(owner.ID, "a", false)
	g2, _ := p.CreateGuild(owner.ID, "b", false)
	g3, _ := p.CreateGuild(owner.ID, "c", false)
	if err := p.JoinGuild(u.ID, g1.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.JoinGuild(u.ID, g2.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.JoinGuild(u.ID, g3.ID); !errors.Is(err, ErrGuildLimit) {
		t.Fatalf("over-limit join err = %v", err)
	}
	// Bots have no limit (paper §4.1): install the same bot everywhere.
	bot, _ := p.RegisterBot(owner.ID, "everywhere")
	for _, g := range []*Guild{g1, g2, g3} {
		if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.SendMessages|permissions.ViewChannel); err != nil {
			t.Fatalf("install into %s: %v", g.Name, err)
		}
	}
	if n := len(p.GuildsOf(bot.ID)); n != 3 {
		t.Errorf("bot in %d guilds, want 3", n)
	}
}

func TestInviteFlow(t *testing.T) {
	p, owner, _, _ := fixture(t)
	priv, _ := p.CreateGuild(owner.ID, "secret", true)
	code, err := p.CreateInvite(owner.ID, priv.ID)
	if err != nil {
		t.Fatal(err)
	}
	u := p.CreateUser("guest")
	gid, err := p.RedeemInvite(u.ID, code)
	if err != nil || gid != priv.ID {
		t.Fatalf("redeem = %v, %v", gid, err)
	}
	if _, err := p.RedeemInvite(u.ID, "nope"); !errors.Is(err, ErrInviteExpired) {
		t.Errorf("bad code err = %v", err)
	}
	// Non-member cannot mint invites; a member without the bit cannot
	// either once @everyone loses it.
	stranger := p.CreateUser("stranger")
	if _, err := p.CreateInvite(stranger.ID, priv.ID); !errors.Is(err, ErrNotMember) {
		t.Errorf("stranger invite err = %v", err)
	}
	if err := p.EditRole(owner.ID, priv.ID, priv.EveryoneRoleID(), DefaultEveryonePerms.Remove(permissions.CreateInstantInvite)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateInvite(u.ID, priv.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("no-perm invite err = %v", err)
	}
}

func TestLeaveGuild(t *testing.T) {
	p, owner, g, _ := fixture(t)
	u := addUser(t, p, g, "alice")
	if err := p.LeaveGuild(u.ID, g.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.LeaveGuild(u.ID, g.ID); !errors.Is(err, ErrNotMember) {
		t.Errorf("double leave err = %v", err)
	}
	if err := p.LeaveGuild(owner.ID, g.ID); !errors.Is(err, ErrOwnerImmune) {
		t.Errorf("owner leave err = %v", err)
	}
	if err := p.LeaveGuild(u.ID, 777); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost guild err = %v", err)
	}
}

// TestDeleteGuildOwnerOnly: only the owner may delete a guild; a
// refused delete leaves it whole, and a deleted guild, its channels
// and its memberships are gone, with a guild.delete audit entry left.
func TestDeleteGuildOwnerOnly(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "alice")
	outsider := p.CreateUser("mallory")
	for _, actor := range []ID{u.ID, outsider.ID} {
		if err := p.DeleteGuild(actor, g.ID); !errors.Is(err, ErrPermissionDenied) {
			t.Fatalf("delete by non-owner %v: err = %v, want ErrPermissionDenied", actor, err)
		}
	}
	if _, err := p.Guild(g.ID); err != nil {
		t.Fatalf("a refused delete removed the guild: %v", err)
	}
	if _, err := p.SendMessage(u.ID, general.ID, "still here"); err != nil {
		t.Fatalf("a refused delete broke the channel: %v", err)
	}

	if err := p.DeleteGuild(owner.ID, g.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Guild(g.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted guild lookup err = %v, want ErrNotFound", err)
	}
	if _, err := p.ChannelMessages(general.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted channel lookup err = %v, want ErrNotFound", err)
	}
	if gs := p.GuildsOf(u.ID); len(gs) != 0 {
		t.Errorf("member still belongs to %v", gs)
	}
	if err := p.DeleteGuild(owner.ID, g.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
	last := p.audit[len(p.audit)-1]
	if last.Action != "guild.delete" || last.GuildID != g.ID || last.ActorID != owner.ID {
		t.Errorf("last audit entry = %+v, want the owner's guild.delete", last)
	}
}

func TestInstallBotConsent(t *testing.T) {
	p, owner, g, _ := fixture(t)
	bot, _ := p.RegisterBot(owner.ID, "moder")
	req := permissions.SendMessages | permissions.ViewChannel | permissions.KickMembers

	// Installer must hold manage-server (paper: "manage guild" needed).
	pleb := addUser(t, p, g, "pleb")
	if _, err := p.InstallBot(pleb.ID, g.ID, bot.ID, req); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("pleb install err = %v", err)
	}
	role, err := p.InstallBot(owner.ID, g.ID, bot.ID, req)
	if err != nil {
		t.Fatal(err)
	}
	if !role.Managed || role.Perms != req {
		t.Errorf("managed role wrong: %+v", role)
	}
	got, err := p.Permissions(g.ID, bot.ID)
	if err != nil || !got.Has(req) {
		t.Errorf("bot perms = %s, %v", got, err)
	}
	// Reinstall is rejected; undefined bits are rejected; normal users
	// cannot be installed.
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, req); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("reinstall err = %v", err)
	}
	bot2, _ := p.RegisterBot(owner.ID, "x")
	if _, err := p.InstallBot(owner.ID, g.ID, bot2.ID, permissions.Permission(1<<60)); !errors.Is(err, ErrUndefinedPerms) {
		t.Errorf("undefined perms err = %v", err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, pleb.ID, req); !errors.Is(err, ErrNotBot) {
		t.Errorf("install human err = %v", err)
	}
}

func TestUninstallBot(t *testing.T) {
	p, owner, g, _ := fixture(t)
	bot, _ := p.RegisterBot(owner.ID, "temp")
	role, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.SendMessages|permissions.ViewChannel)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UninstallBot(owner.ID, g.ID, bot.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Members[bot.ID]; ok {
		t.Error("bot still a member after uninstall")
	}
	if _, ok := g.Roles[role.ID]; ok {
		t.Error("managed role not cleaned up")
	}
	if err := p.UninstallBot(owner.ID, g.ID, bot.ID); !errors.Is(err, ErrNotMember) {
		t.Errorf("double uninstall err = %v", err)
	}
}

func TestAdministratorBypassesOverwrites(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "admin2b")
	admin, err := p.CreateRole(owner.ID, g.ID, "admin", permissions.Administrator, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Deny everything in the channel for @everyone.
	err = p.SetOverwrite(owner.ID, general.ID, Overwrite{
		Kind: OverwriteRole, TargetID: g.EveryoneRoleID(), Deny: permissions.All,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage(u.ID, general.ID, "blocked"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("denied member could post: %v", err)
	}
	if err := p.GrantRole(owner.ID, g.ID, u.ID, admin.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage(u.ID, general.ID, "admin passes"); err != nil {
		t.Fatalf("admin blocked by overwrite: %v", err)
	}
}

func TestChannelOverwriteOrdering(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "target")
	muted, _ := p.CreateRole(owner.ID, g.ID, "muted", permissions.None, 2)
	helper, _ := p.CreateRole(owner.ID, g.ID, "helper", permissions.None, 3)
	p.GrantRole(owner.ID, g.ID, u.ID, muted.ID)
	p.GrantRole(owner.ID, g.ID, u.ID, helper.ID)

	// Role-level deny (muted) and allow (helper): allow wins within the
	// aggregated role stage, like Discord.
	p.SetOverwrite(owner.ID, general.ID, Overwrite{Kind: OverwriteRole, TargetID: muted.ID, Deny: permissions.SendMessages})
	p.SetOverwrite(owner.ID, general.ID, Overwrite{Kind: OverwriteRole, TargetID: helper.ID, Allow: permissions.SendMessages})
	if _, err := p.SendMessage(u.ID, general.ID, "role allow beats role deny"); err != nil {
		t.Fatalf("aggregated role allow lost: %v", err)
	}
	// Member-level deny beats everything before it.
	p.SetOverwrite(owner.ID, general.ID, Overwrite{Kind: OverwriteMember, TargetID: u.ID, Deny: permissions.SendMessages})
	if _, err := p.SendMessage(u.ID, general.ID, "x"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("member deny ignored: %v", err)
	}
	// Replacing the member overwrite with an allow restores access.
	p.SetOverwrite(owner.ID, general.ID, Overwrite{Kind: OverwriteMember, TargetID: u.ID, Allow: permissions.SendMessages})
	if _, err := p.SendMessage(u.ID, general.ID, "back"); err != nil {
		t.Fatalf("member allow ignored: %v", err)
	}
	perms, err := p.ChannelPermissions(general.ID, u.ID)
	if err != nil || !perms.Has(permissions.SendMessages) {
		t.Errorf("ChannelPermissions = %s, %v", perms, err)
	}
}

func TestSetOverwriteRequiresHeldPerms(t *testing.T) {
	p, owner, g, general := fixture(t)
	mod := addUser(t, p, g, "mod")
	r, _ := p.CreateRole(owner.ID, g.ID, "mod", permissions.ManageRoles|permissions.KickMembers, 4)
	p.GrantRole(owner.ID, g.ID, mod.ID, r.ID)
	// Rule ii at channel level: cannot allow a permission you lack.
	err := p.SetOverwrite(mod.ID, general.ID, Overwrite{
		Kind: OverwriteRole, TargetID: g.EveryoneRoleID(), Allow: permissions.BanMembers,
	})
	if !errors.Is(err, ErrHierarchy) {
		t.Errorf("overwrite grant of unheld perm err = %v", err)
	}
	err = p.SetOverwrite(mod.ID, general.ID, Overwrite{
		Kind: OverwriteRole, TargetID: g.EveryoneRoleID(), Allow: permissions.KickMembers,
	})
	if err != nil {
		t.Errorf("overwrite of held perm err = %v", err)
	}
	pleb := addUser(t, p, g, "pleb")
	err = p.SetOverwrite(pleb.ID, general.ID, Overwrite{Kind: OverwriteMember, TargetID: pleb.ID, Allow: permissions.SendMessages})
	if !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb overwrite err = %v", err)
	}
}
