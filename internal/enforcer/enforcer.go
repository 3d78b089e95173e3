// Package enforcer implements the runtime policy enforcer that Discord
// lacks. The paper's §6 contrasts Discord with Slack and MS Teams,
// whose app model uses "a two-level access control system consisting of
// the OAuth protocol and a runtime policy enforcer": beyond the install
// grant, the platform itself checks at runtime that a bot's privileged
// action is justified by the interaction that triggered it.
//
// Installed on the gateway (gateway.Server.SetInterceptor), the
// Enforcer attributes each privileged bot action to the most recent
// human interaction in the guild and denies the action when that user
// does not hold the required permission — closing the permission
// re-delegation attack (§5) at the platform layer instead of trusting
// 20,915 third-party developers to close it themselves.
package enforcer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/platform"
)

// Errors returned to bots whose actions the enforcer blocks.
var (
	// ErrNoInteraction means the bot acted with no recent human
	// interaction to attribute the action to.
	ErrNoInteraction = errors.New("enforcer: privileged action without a triggering interaction")
	// ErrReDelegation means the triggering user lacks the permission
	// the action requires.
	ErrReDelegation = errors.New("enforcer: triggering user lacks the required permission")
)

// privileged maps gateway methods to the permission their *triggering
// user* must hold under the Slack/Teams model.
var privileged = map[string]permissions.Permission{
	gateway.MethodKick:         permissions.KickMembers,
	gateway.MethodBan:          permissions.BanMembers,
	gateway.MethodEditNickname: permissions.ManageNicknames,
}

// interaction records the latest human message per guild.
type interaction struct {
	userID platform.ID
	at     time.Time
}

// Stats counts enforcement outcomes.
type Stats struct {
	Allowed          int
	DeniedNoContext  int
	DeniedRedelegate int
}

// Enforcer is the runtime policy layer.
type Enforcer struct {
	p      *platform.Platform
	window time.Duration
	now    func() time.Time

	mu    sync.Mutex
	last  map[platform.ID]interaction // guild -> latest human interaction
	stats Stats

	sub *platform.Subscription
}

// Options tunes an Enforcer.
type Options struct {
	// Window is how long an interaction authorizes follow-up actions
	// (default 30s). Slack interaction payloads are similarly
	// short-lived.
	Window time.Duration
	// Now injects a clock for tests.
	Now func() time.Time
}

// New creates an enforcer and begins tracking interactions on the
// platform's event bus. Call Close when done.
func New(p *platform.Platform, opts Options) *Enforcer {
	if opts.Window <= 0 {
		opts.Window = 30 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	e := &Enforcer{
		p:      p,
		window: opts.Window,
		now:    opts.Now,
		last:   make(map[platform.ID]interaction),
	}
	e.sub = p.Subscribe(e.track)
	return e
}

// Close stops interaction tracking.
func (e *Enforcer) Close() {
	e.p.Unsubscribe(e.sub)
}

// track is the enforcer's platform subscription callback: it records
// each human message as its guild's latest interaction.
func (e *Enforcer) track(ev platform.Event) {
	if ev.Type != platform.EventMessageCreate {
		return
	}
	u, err := e.p.UserByID(ev.UserID)
	if err != nil || u.IsBot() {
		return // only human interactions authorize actions
	}
	e.mu.Lock()
	e.last[ev.GuildID] = interaction{userID: ev.UserID, at: ev.At}
	e.mu.Unlock()
}

// Stats returns a copy of the counters.
func (e *Enforcer) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ErrForgedInteraction means the bot cited an interaction that does not
// exist, belongs to another bot, or happened in a different guild.
var ErrForgedInteraction = errors.New("enforcer: cited interaction is invalid for this bot")

// Intercept is the gateway hook: install with
// gw.SetInterceptor(enf.Intercept).
//
// Attribution is exact when the bot cites the slash-command interaction
// that requested the action (args["interaction_id"], the modern
// interactions model): the enforcer verifies the interaction targets
// this bot in this guild and checks THAT user's permissions. Without a
// citation it falls back to the latest-human-interaction heuristic the
// prefix-command world allows.
func (e *Enforcer) Intercept(bot *platform.User, method string, args map[string]any) error {
	need, isPrivileged := privileged[method]
	if !isPrivileged {
		return nil // reads and sends pass through
	}
	guildID := parseID(args, "guild_id")

	var triggerUser platform.ID
	if inID := parseID(args, "interaction_id"); inID != platform.Nil {
		in, err := e.p.InteractionByID(guildID, inID)
		if err != nil || in.BotID != bot.ID || e.now().Sub(in.At) > e.window {
			e.count(func(s *Stats) { s.DeniedNoContext++ })
			return fmt.Errorf("%w (method %s)", ErrForgedInteraction, method)
		}
		triggerUser = in.UserID
	} else {
		e.mu.Lock()
		trigger, ok := e.last[guildID]
		e.mu.Unlock()
		if !ok || e.now().Sub(trigger.at) > e.window {
			e.count(func(s *Stats) { s.DeniedNoContext++ })
			return fmt.Errorf("%w (method %s)", ErrNoInteraction, method)
		}
		triggerUser = trigger.userID
	}
	perms, err := e.p.Permissions(guildID, triggerUser)
	if err != nil || !perms.Effective().Has(need) {
		e.count(func(s *Stats) { s.DeniedRedelegate++ })
		return fmt.Errorf("%w: user %s needs %s", ErrReDelegation, triggerUser, need)
	}
	e.count(func(s *Stats) { s.Allowed++ })
	return nil
}

func (e *Enforcer) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

func parseID(args map[string]any, key string) platform.ID {
	s, _ := args[key].(string)
	id, err := platform.ParseID(s)
	if err != nil {
		return platform.Nil
	}
	return id
}
