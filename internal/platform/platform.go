// Package platform implements a Discord-like instant-messaging platform:
// users and bot accounts, guilds with role-based access control, text and
// voice channels with permission overwrites, messages with attachments,
// invites, bot installation via an OAuth-style consent step, moderation
// governed by the role hierarchy, an audit log, and an event bus that the
// gateway serves to connected bots.
//
// Faithful to the paper's §2/§4.1 threat model, the platform enforces
// permissions of the *acting account only*: when a user commands a bot,
// nothing here checks the commanding user's permissions — that check is
// entrusted to the bot's developer, which is exactly the gap the paper's
// code analysis measures.
package platform

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/permissions"
)

// DefaultEveryonePerms is the permission set granted to the implicit
// @everyone role of a new guild, mirroring Discord's defaults: members
// can converse but not administrate.
const DefaultEveryonePerms = permissions.ViewChannel |
	permissions.SendMessages | permissions.ReadMessageHistory |
	permissions.AddReactions | permissions.EmbedLinks |
	permissions.AttachFiles | permissions.Connect | permissions.Speak |
	permissions.UseVAD | permissions.ChangeNickname |
	permissions.CreateInstantInvite | permissions.UseExternalEmojis |
	permissions.SendTTSMessages | permissions.MentionEveryone

// Options configures a Platform.
type Options struct {
	// Epoch offsets the snowflake counter; platforms with distinct
	// epochs mint non-colliding IDs.
	Epoch uint64
	// NormalGuildLimit caps how many guilds a verified normal user may
	// join (Discord: 100). Bots are unlimited (paper §4.1). Zero means
	// the default of 100.
	NormalGuildLimit int
	// UnverifiedJoinLimit caps guild joins for accounts that have not
	// completed mobile verification; exceeding it returns
	// ErrVerification (paper §4.2: rapid joiners get flagged). Zero
	// means the default of 10.
	UnverifiedJoinLimit int
	// Now supplies timestamps; defaults to time.Now. Tests inject a
	// fake clock for deterministic message ordering.
	Now func() time.Time
	// Obs receives the platform's counters (messages posted, permission
	// denials); nil uses the process-default registry.
	Obs *obs.Registry
	// Journal receives a permission_denied event for every action the
	// platform refuses for missing permissions; nil disables emission.
	Journal *journal.Journal
}

// Platform is the in-memory messaging service. All methods are safe for
// concurrent use.
type Platform struct {
	mu       sync.RWMutex
	ids      *idSource
	users    map[ID]*User
	tokens   map[string]ID // bot token -> bot user ID
	guilds   map[ID]*Guild
	invites  map[string]ID       // invite code -> guild ID
	webhooks map[string]*Webhook // webhook token -> webhook
	audit    []AuditEntry

	// channels and memberOf index what would otherwise take a scan of
	// every guild: a channel by its ID, and the guilds each user
	// belongs to. They change only with Guild.Channels and
	// Guild.Members, through addChannelLocked, addMemberLocked and
	// removeMemberLocked, and when DeleteGuild drops a guild's
	// channels.
	channels map[ID]*Channel
	memberOf map[ID]map[ID]struct{} // user ID -> guild IDs

	normalGuildLimit    int
	unverifiedJoinLimit int
	now                 func() time.Time

	cMessages *obs.Counter
	cDenials  *obs.Counter
	journal   *journal.Journal

	bus *bus
}

// New creates an empty platform.
func New(opts Options) *Platform {
	if opts.NormalGuildLimit == 0 {
		opts.NormalGuildLimit = 100
	}
	if opts.UnverifiedJoinLimit == 0 {
		opts.UnverifiedJoinLimit = 10
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := obs.Or(opts.Obs)
	return &Platform{
		ids:                 newIDSource(opts.Epoch),
		users:               make(map[ID]*User),
		tokens:              make(map[string]ID),
		guilds:              make(map[ID]*Guild),
		channels:            make(map[ID]*Channel),
		memberOf:            make(map[ID]map[ID]struct{}),
		invites:             make(map[string]ID),
		normalGuildLimit:    opts.NormalGuildLimit,
		unverifiedJoinLimit: opts.UnverifiedJoinLimit,
		now:                 opts.Now,
		cMessages:           reg.Counter("platform_messages_total"),
		cDenials:            reg.Counter("platform_permission_denials_total"),
		journal:             opts.Journal,
		bus:                 newBus(),
	}
}

// SetJournal attaches (or detaches) the permission-denial event journal
// after construction; the core auditor wires it once the pipeline's
// journal exists.
func (p *Platform) SetJournal(j *journal.Journal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.journal = j
}

// ---- accounts ----

// CreateUser registers a normal (human) account.
func (p *Platform) CreateUser(name string) *User {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := &User{
		ID:            p.ids.Next(),
		Name:          name,
		Discriminator: fmt.Sprintf("%04d", uint64(p.ids.Next())%10000),
		Kind:          KindNormal,
		CreatedAt:     p.now(),
	}
	p.users[u.ID] = u
	return u
}

// VerifyUser marks an account as mobile-verified, lifting the rapid-join
// restriction.
func (p *Platform) VerifyUser(id ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	u, ok := p.users[id]
	if !ok {
		return ErrNotFound
	}
	u.Verified = true
	return nil
}

// RegisterBot creates a bot account owned by a normal user and returns
// it together with its authentication token.
func (p *Platform) RegisterBot(ownerID ID, name string) (*User, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner, ok := p.users[ownerID]
	if !ok {
		return nil, ErrNotFound
	}
	if owner.Kind != KindNormal {
		return nil, ErrNotNormalUser
	}
	tok := newToken()
	b := &User{
		ID:            p.ids.Next(),
		Name:          name,
		Discriminator: fmt.Sprintf("%04d", uint64(p.ids.Next())%10000),
		Kind:          KindBot,
		OwnerID:       ownerID,
		Token:         tok,
		Verified:      true,
		CreatedAt:     p.now(),
	}
	p.users[b.ID] = b
	p.tokens[tok] = b.ID
	return b, nil
}

func newToken() string {
	var b [18]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("platform: crypto/rand unavailable: " + err.Error())
	}
	return "bot." + hex.EncodeToString(b[:])
}

// UserByID returns a copy-safe pointer to the account. Callers must not
// mutate the returned struct.
func (p *Platform) UserByID(id ID) (*User, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	u, ok := p.users[id]
	if !ok {
		return nil, ErrNotFound
	}
	return u, nil
}

// BotByToken authenticates a bot credential.
func (p *Platform) BotByToken(token string) (*User, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.tokens[token]
	if !ok {
		return nil, ErrInvalidToken
	}
	return p.users[id], nil
}

// ---- guilds ----

// CreateGuild creates a guild owned by ownerID, with an @everyone role
// at position 0 and a default "general" text channel. The owner joins
// automatically and the guild does not count against join limits.
func (p *Platform) CreateGuild(ownerID ID, name string, private bool) (*Guild, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner, ok := p.users[ownerID]
	if !ok {
		return nil, ErrNotFound
	}
	if owner.Kind != KindNormal {
		return nil, ErrNotNormalUser
	}
	g := &Guild{
		ID:       p.ids.Next(),
		Name:     name,
		OwnerID:  ownerID,
		Private:  private,
		Roles:    make(map[ID]*Role),
		Channels: make(map[ID]*Channel),
		Members:  make(map[ID]*Member),
		Banned:   make(map[ID]bool),
	}
	everyone := &Role{
		ID:       p.ids.Next(),
		GuildID:  g.ID,
		Name:     "@everyone",
		Position: 0,
		Perms:    DefaultEveryonePerms,
	}
	g.Roles[everyone.ID] = everyone
	g.everyoneRole = everyone.ID
	p.guilds[g.ID] = g
	p.addChannelLocked(g, &Channel{ID: p.ids.Next(), GuildID: g.ID, Name: "general", Kind: ChannelText})
	p.addMemberLocked(g, &Member{UserID: ownerID, JoinedAt: p.now()})
	p.auditLocked(g.ID, ownerID, "guild.create", g.ID.String(), name)
	return g, nil
}

// Guild returns the live guild structure. The platform lock does not
// protect callers that retain it; prefer the query helpers for reads
// outside tests.
func (p *Platform) Guild(id ID) (*Guild, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[id]
	if !ok {
		return nil, ErrNotFound
	}
	return g, nil
}

// DeleteGuild removes a guild with everything that hangs off it: its
// channels and their messages, its memberships, the invite codes and
// webhooks that point into it. Only the owner may delete a guild. The
// audit log keeps the guild's entries, closed by a guild.delete entry,
// but AuditLog answers ErrNotFound for a deleted guild like any other
// lookup by its ID.
func (p *Platform) DeleteGuild(actorID, guildID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if g.OwnerID != actorID {
		return ErrPermissionDenied
	}
	for id := range g.Channels {
		delete(p.channels, id)
	}
	for uid := range g.Members {
		p.removeMemberLocked(g, uid)
	}
	for code, gid := range p.invites {
		if gid == guildID {
			delete(p.invites, code)
		}
	}
	for tok, wh := range p.webhooks {
		if wh.GuildID == guildID {
			delete(p.webhooks, tok)
		}
	}
	delete(p.guilds, guildID)
	p.auditLocked(guildID, actorID, "guild.delete", guildID.String(), g.Name)
	return nil
}

// GuildsOf lists the IDs of every guild the user belongs to, sorted.
func (p *Platform) GuildsOf(userID ID) []ID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.guildsOfLocked(userID)
}

func (p *Platform) guildsOfLocked(userID ID) []ID {
	var out []ID
	for id := range p.memberOf[userID] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// addChannelLocked adds ch to g and to the channel index.
func (p *Platform) addChannelLocked(g *Guild, ch *Channel) {
	g.Channels[ch.ID] = ch
	p.channels[ch.ID] = ch
}

// addMemberLocked adds m to g and to the membership index.
func (p *Platform) addMemberLocked(g *Guild, m *Member) {
	g.Members[m.UserID] = m
	gs := p.memberOf[m.UserID]
	if gs == nil {
		gs = make(map[ID]struct{})
		p.memberOf[m.UserID] = gs
	}
	gs[g.ID] = struct{}{}
}

// removeMemberLocked removes the user from g and from the membership
// index.
func (p *Platform) removeMemberLocked(g *Guild, userID ID) {
	delete(g.Members, userID)
	if gs := p.memberOf[userID]; gs != nil {
		delete(gs, g.ID)
		if len(gs) == 0 {
			delete(p.memberOf, userID)
		}
	}
}

// JoinGuild adds a user to a public guild, enforcing bans, verification
// flags, and the normal-user guild limit. Bots cannot self-join; they
// are installed (paper §4.1).
func (p *Platform) JoinGuild(userID, guildID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if g.Private {
		return ErrPrivateGuild
	}
	return p.admitLocked(g, userID)
}

func (p *Platform) admitLocked(g *Guild, userID ID) error {
	u, ok := p.users[userID]
	if !ok {
		return ErrNotFound
	}
	if u.Kind == KindBot {
		return ErrNotNormalUser
	}
	if g.Banned[userID] {
		return ErrBanned
	}
	if _, already := g.Members[userID]; already {
		return ErrAlreadyMember
	}
	n := len(p.memberOf[userID])
	if !u.Verified && n >= p.unverifiedJoinLimit {
		return ErrVerification
	}
	if n >= p.normalGuildLimit {
		return ErrGuildLimit
	}
	p.addMemberLocked(g, &Member{UserID: userID, JoinedAt: p.now()})
	p.publishLocked(Event{Type: EventGuildMemberAdd, GuildID: g.ID, UserID: userID, At: p.now()})
	return nil
}

// CreateInvite mints an invite code for a guild. The actor needs the
// create-invite permission.
func (p *Platform) CreateInvite(actorID, guildID ID) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return "", ErrNotFound
	}
	if err := p.requireLocked(g, actorID, permissions.CreateInstantInvite); err != nil {
		return "", err
	}
	code := newToken()[:12]
	p.invites[code] = guildID
	p.auditLocked(guildID, actorID, "invite.create", code, "")
	return code, nil
}

// RedeemInvite joins the user to the invited guild, private or not.
func (p *Platform) RedeemInvite(userID ID, code string) (ID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	gid, ok := p.invites[code]
	if !ok {
		return Nil, ErrInviteExpired
	}
	g := p.guilds[gid]
	if g == nil {
		return Nil, ErrInviteExpired
	}
	if err := p.admitLocked(g, userID); err != nil {
		return Nil, err
	}
	return gid, nil
}

// LeaveGuild removes the member. The owner cannot leave their guild.
func (p *Platform) LeaveGuild(userID, guildID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if g.OwnerID == userID {
		return ErrOwnerImmune
	}
	if _, ok := g.Members[userID]; !ok {
		return ErrNotMember
	}
	p.removeMemberLocked(g, userID)
	p.publishLocked(Event{Type: EventGuildMemberRemove, GuildID: guildID, UserID: userID, At: p.now()})
	return nil
}

// ---- bot installation (OAuth-style consent) ----

// InstallBot installs a bot into a guild with the requested permission
// set, modelling the OAuth consent screen of Figure 2: the installer
// must hold manage-server in the guild (paper §4.1), the requested set
// must decode to defined bits, and the grant is materialised as a
// managed role dedicated to the bot, positioned just above @everyone.
func (p *Platform) InstallBot(installerID, guildID, botID ID, requested permissions.Permission) (*Role, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	bot, ok := p.users[botID]
	if !ok {
		return nil, ErrNotFound
	}
	if !bot.IsBot() {
		return nil, ErrNotBot
	}
	if !requested.Defined() {
		return nil, ErrUndefinedPerms
	}
	if err := p.requireLocked(g, installerID, permissions.ManageGuild); err != nil {
		return nil, err
	}
	if g.Banned[botID] {
		return nil, ErrBanned
	}
	if _, already := g.Members[botID]; already {
		return nil, ErrAlreadyMember
	}
	role := &Role{
		ID:       p.ids.Next(),
		GuildID:  guildID,
		Name:     "bot:" + bot.Name,
		Position: 1,
		Perms:    requested,
		Managed:  true,
	}
	// Shift existing roles up so the managed role slots in at 1.
	for _, r := range g.Roles {
		if r.Position >= 1 {
			r.Position++
		}
	}
	g.Roles[role.ID] = role
	p.addMemberLocked(g, &Member{UserID: botID, RoleIDs: []ID{role.ID}, JoinedAt: p.now()})
	p.auditLocked(guildID, installerID, "bot.install", bot.Tag(), requested.String())
	p.publishLocked(Event{Type: EventGuildMemberAdd, GuildID: guildID, UserID: botID, At: p.now()})
	return role, nil
}

// UninstallBot removes a bot and its managed role from the guild.
func (p *Platform) UninstallBot(actorID, guildID, botID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if err := p.requireLocked(g, actorID, permissions.ManageGuild); err != nil {
		return err
	}
	m, ok := g.Members[botID]
	if !ok {
		return ErrNotMember
	}
	for _, rid := range m.RoleIDs {
		if r := g.Roles[rid]; r != nil && r.Managed {
			delete(g.Roles, rid)
		}
	}
	p.removeMemberLocked(g, botID)
	p.auditLocked(guildID, actorID, "bot.uninstall", botID.String(), "")
	p.publishLocked(Event{Type: EventGuildMemberRemove, GuildID: guildID, UserID: botID, At: p.now()})
	return nil
}

// ---- audit ----

func (p *Platform) auditLocked(guildID, actorID ID, action, target, detail string) {
	p.audit = append(p.audit, AuditEntry{
		At: p.now(), GuildID: guildID, ActorID: actorID,
		Action: action, Target: target, Detail: detail,
	})
}

// AuditLog returns a copy of the audit entries for a guild, in order.
// Viewing it requires the view-audit-log permission unless actorID is
// Nil (trusted internal access for the honeypot's forensics).
func (p *Platform) AuditLog(actorID, guildID ID) ([]AuditEntry, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	if actorID != Nil {
		if err := p.requireLocked(g, actorID, permissions.ViewAuditLog); err != nil {
			return nil, err
		}
	}
	var out []AuditEntry
	for _, e := range p.audit {
		if e.GuildID == guildID {
			out = append(out, e)
		}
	}
	return out, nil
}
