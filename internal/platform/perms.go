package platform

import (
	"math"

	"repro/internal/obs/journal"
	"repro/internal/permissions"
)

// memberHighestRoleLocked returns the position of the member's highest
// role. The guild owner outranks everything.
func memberHighestRoleLocked(g *Guild, userID ID) permissions.RolePosition {
	if g.OwnerID == userID {
		return permissions.RolePosition(math.MaxInt32)
	}
	m, ok := g.Members[userID]
	if !ok {
		return -1
	}
	best := permissions.RolePosition(0) // implicit @everyone
	for _, rid := range m.RoleIDs {
		if r := g.Roles[rid]; r != nil && r.Position > best {
			best = r.Position
		}
	}
	return best
}

// basePermsLocked computes the guild-level permission set of a member:
// the union of @everyone and every held role, with the administrator
// bit (or guild ownership) expanding to everything.
func basePermsLocked(g *Guild, userID ID) (permissions.Permission, error) {
	if g.OwnerID == userID {
		return permissions.All, nil
	}
	m, ok := g.Members[userID]
	if !ok {
		return permissions.None, ErrNotMember
	}
	perms := g.Roles[g.everyoneRole].Perms
	for _, rid := range m.RoleIDs {
		if r := g.Roles[rid]; r != nil {
			perms |= r.Perms
		}
	}
	if perms.IsAdmin() {
		return permissions.All, nil
	}
	return perms, nil
}

// channelPermsLocked applies channel overwrites on top of the base set,
// in Discord's documented order: @everyone overwrite, aggregated role
// overwrites (all denies then all allows), then the member overwrite.
// Administrators and the owner bypass overwrites entirely (paper §4.2:
// "the administrator permission ... bypasses channel permission
// overwrites").
func channelPermsLocked(g *Guild, ch *Channel, userID ID) (permissions.Permission, error) {
	base, err := basePermsLocked(g, userID)
	if err != nil {
		return permissions.None, err
	}
	if base == permissions.All {
		return base, nil
	}
	m := g.Members[userID]
	held := make(map[ID]bool, len(m.RoleIDs)+1)
	held[g.everyoneRole] = true
	for _, rid := range m.RoleIDs {
		held[rid] = true
	}

	perms := base
	// 1. @everyone overwrite.
	for _, ow := range ch.Overwrites {
		if ow.Kind == OverwriteRole && ow.TargetID == g.everyoneRole {
			perms = perms.Remove(ow.Deny).Add(ow.Allow)
		}
	}
	// 2. Held-role overwrites: all denies first, then all allows.
	var deny, allow permissions.Permission
	for _, ow := range ch.Overwrites {
		if ow.Kind == OverwriteRole && ow.TargetID != g.everyoneRole && held[ow.TargetID] {
			deny |= ow.Deny
			allow |= ow.Allow
		}
	}
	perms = perms.Remove(deny).Add(allow)
	// 3. Member overwrite.
	for _, ow := range ch.Overwrites {
		if ow.Kind == OverwriteMember && ow.TargetID == userID {
			perms = perms.Remove(ow.Deny).Add(ow.Allow)
		}
	}
	return perms, nil
}

// Permissions returns the effective guild-level permission set of a
// member.
func (p *Platform) Permissions(guildID, userID ID) (permissions.Permission, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return permissions.None, ErrNotFound
	}
	return basePermsLocked(g, userID)
}

// ChannelPermissions returns the effective permission set of a member
// within one channel, after overwrites.
func (p *Platform) ChannelPermissions(channelID, userID ID) (permissions.Permission, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return permissions.None, err
	}
	return channelPermsLocked(g, ch, userID)
}

// HighestRole returns the member's highest role position, with the
// owner reported as the maximum position.
func (p *Platform) HighestRole(guildID, userID ID) (permissions.RolePosition, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return -1, ErrNotFound
	}
	if _, ok := g.Members[userID]; !ok && g.OwnerID != userID {
		return -1, ErrNotMember
	}
	return memberHighestRoleLocked(g, userID), nil
}

// requireLocked verifies the actor is a member holding need at guild
// level.
func (p *Platform) requireLocked(g *Guild, actorID ID, need permissions.Permission) error {
	perms, err := basePermsLocked(g, actorID)
	if err != nil {
		return err
	}
	if !perms.Has(need) {
		p.denyLocked(g, actorID, need, "")
		return ErrPermissionDenied
	}
	return nil
}

// requireChannelLocked verifies the actor holds need within a channel.
func (p *Platform) requireChannelLocked(g *Guild, ch *Channel, actorID ID, need permissions.Permission) error {
	perms, err := channelPermsLocked(g, ch, actorID)
	if err != nil {
		return err
	}
	if !perms.Has(need) {
		p.denyLocked(g, actorID, need, ch.Name)
		return ErrPermissionDenied
	}
	return nil
}

// denyLocked counts a permission denial and journals it with enough
// context to attribute the refused action: who, where, which bits.
func (p *Platform) denyLocked(g *Guild, actorID ID, need permissions.Permission, channel string) {
	p.cDenials.Inc()
	if p.journal == nil {
		return
	}
	actor := ""
	if u := p.users[actorID]; u != nil {
		actor = u.Name
	}
	fields := map[string]any{
		"guild": g.Name,
		"actor": actor,
		"need":  need.Names(),
	}
	if channel != "" {
		fields["channel"] = channel
	}
	p.journal.Emit(journal.Event{
		Kind:      journal.KindPermissionDenied,
		Component: "platform",
		Fields:    fields,
	})
}

func (p *Platform) channelLocked(channelID ID) (*Channel, *Guild, error) {
	ch, ok := p.channels[channelID]
	if !ok {
		return nil, nil, ErrNotFound
	}
	return ch, p.guilds[ch.GuildID], nil
}

func (p *Platform) actorLocked(g *Guild, actorID ID) permissions.Actor {
	perms, _ := basePermsLocked(g, actorID)
	return permissions.Actor{
		HighestRole: memberHighestRoleLocked(g, actorID),
		Perms:       perms,
	}
}
