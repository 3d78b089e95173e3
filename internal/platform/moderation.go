package platform

import "repro/internal/permissions"

// moderationTargetLocked validates the common preconditions of rule-iv
// actions and returns the target's membership record.
func (p *Platform) moderationTargetLocked(g *Guild, actorID, targetID ID, action permissions.ModerationAction) (*Member, error) {
	if actorID == targetID {
		return nil, ErrSelfModeration
	}
	if g.OwnerID == targetID {
		return nil, ErrOwnerImmune
	}
	m, ok := g.Members[targetID]
	if !ok {
		return nil, ErrNotMember
	}
	actor := p.actorLocked(g, actorID)
	if !actor.Perms.Effective().Has(actionPerm(action)) {
		return nil, ErrPermissionDenied
	}
	if !permissions.CanModerate(actor, action, memberHighestRoleLocked(g, targetID)) {
		return nil, ErrHierarchy
	}
	return m, nil
}

func actionPerm(a permissions.ModerationAction) permissions.Permission {
	switch a {
	case permissions.ActionKick:
		return permissions.KickMembers
	case permissions.ActionBan:
		return permissions.BanMembers
	default:
		return permissions.ManageNicknames
	}
}

// KickMember removes a member from the guild (hierarchy rule iv).
func (p *Platform) KickMember(actorID, guildID, targetID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if _, err := p.moderationTargetLocked(g, actorID, targetID, permissions.ActionKick); err != nil {
		return err
	}
	p.removeMemberLocked(g, targetID)
	p.auditLocked(guildID, actorID, "member.kick", targetID.String(), "")
	p.publishLocked(Event{Type: EventGuildMemberRemove, GuildID: guildID, UserID: targetID, At: p.now()})
	return nil
}

// BanMember removes a member and blocks rejoining (hierarchy rule iv).
func (p *Platform) BanMember(actorID, guildID, targetID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if g.Banned[targetID] {
		return ErrAlreadyBanned
	}
	if _, err := p.moderationTargetLocked(g, actorID, targetID, permissions.ActionBan); err != nil {
		return err
	}
	p.removeMemberLocked(g, targetID)
	g.Banned[targetID] = true
	p.auditLocked(guildID, actorID, "member.ban", targetID.String(), "")
	p.publishLocked(Event{Type: EventGuildBanAdd, GuildID: guildID, UserID: targetID, At: p.now()})
	return nil
}

// UnbanMember lifts a ban. Requires ban-members.
func (p *Platform) UnbanMember(actorID, guildID, targetID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if err := p.requireLocked(g, actorID, permissions.BanMembers); err != nil {
		return err
	}
	if !g.Banned[targetID] {
		return ErrNotFound
	}
	delete(g.Banned, targetID)
	p.auditLocked(guildID, actorID, "member.unban", targetID.String(), "")
	return nil
}

// EditNickname changes a member's guild nickname (hierarchy rule iv).
// Members may change their own nickname with change-nickname instead.
func (p *Platform) EditNickname(actorID, guildID, targetID ID, nick string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	if actorID == targetID {
		m, ok := g.Members[targetID]
		if !ok {
			return ErrNotMember
		}
		if err := p.requireLocked(g, actorID, permissions.ChangeNickname); err != nil {
			return err
		}
		m.Nick = nick
		return nil
	}
	m, err := p.moderationTargetLocked(g, actorID, targetID, permissions.ActionEditNickname)
	if err != nil {
		return err
	}
	m.Nick = nick
	p.auditLocked(guildID, actorID, "member.nick", targetID.String(), nick)
	return nil
}
