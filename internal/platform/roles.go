package platform

import "repro/internal/permissions"

// CreateChannel adds a channel to the guild. Requires manage-channels.
func (p *Platform) CreateChannel(actorID, guildID ID, name string, kind ChannelKind) (*Channel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	if err := p.requireLocked(g, actorID, permissions.ManageChannels); err != nil {
		return nil, err
	}
	ch := &Channel{ID: p.ids.Next(), GuildID: guildID, Name: name, Kind: kind}
	p.addChannelLocked(g, ch)
	p.auditLocked(guildID, actorID, "channel.create", name, kind.String())
	return ch, nil
}

// SetOverwrite installs or replaces a permission overwrite on a channel.
// Requires manage-roles, and rule ii applies: the actor can only allow
// permissions it holds itself.
func (p *Platform) SetOverwrite(actorID, channelID ID, ow Overwrite) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, g, err := p.channelLocked(channelID)
	if err != nil {
		return err
	}
	actor := p.actorLocked(g, actorID)
	if !actor.Perms.Effective().Has(permissions.ManageRoles) {
		return ErrPermissionDenied
	}
	if !actor.Perms.Effective().Has(ow.Allow) {
		return ErrHierarchy
	}
	for i := range ch.Overwrites {
		if ch.Overwrites[i].Kind == ow.Kind && ch.Overwrites[i].TargetID == ow.TargetID {
			ch.Overwrites[i] = ow
			p.auditLocked(g.ID, actorID, "overwrite.update", ch.Name, ow.Allow.String())
			return nil
		}
	}
	ch.Overwrites = append(ch.Overwrites, ow)
	p.auditLocked(g.ID, actorID, "overwrite.create", ch.Name, ow.Allow.String())
	return nil
}

// CreateRole adds a role below the actor's highest role. Rule ii: the
// role may only carry permissions the actor holds.
func (p *Platform) CreateRole(actorID, guildID ID, name string, perms permissions.Permission, pos permissions.RolePosition) (*Role, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return nil, ErrNotFound
	}
	if !perms.Defined() {
		return nil, ErrUndefinedPerms
	}
	actor := p.actorLocked(g, actorID)
	if !permissions.CanEditRole(actor, pos, perms) {
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return nil, ErrPermissionDenied
		}
		return nil, ErrHierarchy
	}
	if pos <= 0 {
		return nil, ErrHierarchy // cannot create at or below @everyone
	}
	r := &Role{ID: p.ids.Next(), GuildID: guildID, Name: name, Position: pos, Perms: perms}
	g.Roles[r.ID] = r
	p.auditLocked(guildID, actorID, "role.create", name, perms.String())
	return r, nil
}

// EditRole changes a role's permission set (rule ii).
func (p *Platform) EditRole(actorID, guildID, roleID ID, perms permissions.Permission) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	r, ok := g.Roles[roleID]
	if !ok {
		return ErrNotFound
	}
	if r.Managed {
		return ErrRoleManaged
	}
	if !perms.Defined() {
		return ErrUndefinedPerms
	}
	actor := p.actorLocked(g, actorID)
	if roleID == g.everyoneRole {
		// @everyone sits at position 0, below every real role, so any
		// manage-roles holder may edit it, subject to rule ii.
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return ErrPermissionDenied
		}
		if !actor.Perms.Effective().Has(perms) {
			return ErrHierarchy
		}
	} else if !permissions.CanEditRole(actor, r.Position, perms) {
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return ErrPermissionDenied
		}
		return ErrHierarchy
	}
	r.Perms = perms
	p.auditLocked(guildID, actorID, "role.edit", r.Name, perms.String())
	p.publishLocked(Event{Type: EventRoleUpdate, GuildID: guildID, At: p.now()})
	return nil
}

// MoveRole changes a role's position (rule iii).
func (p *Platform) MoveRole(actorID, guildID, roleID ID, pos permissions.RolePosition) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	r, ok := g.Roles[roleID]
	if !ok {
		return ErrNotFound
	}
	if roleID == g.everyoneRole {
		return ErrEveryoneImmutable
	}
	actor := p.actorLocked(g, actorID)
	if !permissions.CanSortRole(actor, r.Position) {
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return ErrPermissionDenied
		}
		return ErrHierarchy
	}
	if pos <= 0 || pos >= actor.HighestRole {
		return ErrHierarchy
	}
	r.Position = pos
	p.auditLocked(guildID, actorID, "role.move", r.Name, "")
	p.publishLocked(Event{Type: EventRoleUpdate, GuildID: guildID, At: p.now()})
	return nil
}

// GrantRole assigns an existing role to a member (rule i).
func (p *Platform) GrantRole(actorID, guildID, targetID, roleID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	r, ok := g.Roles[roleID]
	if !ok {
		return ErrNotFound
	}
	m, ok := g.Members[targetID]
	if !ok {
		return ErrNotMember
	}
	actor := p.actorLocked(g, actorID)
	if !permissions.CanGrantRole(actor, r.Position) {
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return ErrPermissionDenied
		}
		return ErrHierarchy
	}
	for _, rid := range m.RoleIDs {
		if rid == roleID {
			return nil // idempotent
		}
	}
	m.RoleIDs = append(m.RoleIDs, roleID)
	p.auditLocked(guildID, actorID, "role.grant", targetID.String(), r.Name)
	p.publishLocked(Event{Type: EventRoleUpdate, GuildID: guildID, UserID: targetID, At: p.now()})
	return nil
}

// RevokeRole removes a role from a member (governed like rule i).
func (p *Platform) RevokeRole(actorID, guildID, targetID, roleID ID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.guilds[guildID]
	if !ok {
		return ErrNotFound
	}
	r, ok := g.Roles[roleID]
	if !ok {
		return ErrNotFound
	}
	m, ok := g.Members[targetID]
	if !ok {
		return ErrNotMember
	}
	actor := p.actorLocked(g, actorID)
	if !permissions.CanGrantRole(actor, r.Position) {
		if !actor.Perms.Effective().Has(permissions.ManageRoles) {
			return ErrPermissionDenied
		}
		return ErrHierarchy
	}
	for i, rid := range m.RoleIDs {
		if rid == roleID {
			m.RoleIDs = append(m.RoleIDs[:i], m.RoleIDs[i+1:]...)
			break
		}
	}
	p.auditLocked(guildID, actorID, "role.revoke", targetID.String(), r.Name)
	return nil
}
