package honeypot

import (
	"context"
	"fmt"
	"time"

	"repro/internal/botsdk"
)

// SharedVerdict is the outcome of a shared-guild run: triggers exist
// but cannot be attributed to a single bot.
type SharedVerdict struct {
	GuildTag string
	// Triggered reports whether any token fired.
	Triggered bool
	// SuspectNames lists every bot present in the guild — with shared
	// deployment, all of them are suspects. The size of this set is
	// the attribution ambiguity the paper's per-bot isolation removes.
	SuspectNames []string
}

// RunShared installs every subject into ONE guild and plants one token
// set — the ablation of the paper's isolation design choice ("we test
// each chatbot in an independent and isolated messaging environment").
// When a trigger fires here, the experimenter learns only that SOME bot
// snooped.
func RunShared(env Env, cfg Config, subs []Subject) (*SharedVerdict, error) {
	return RunSharedContext(context.Background(), env, cfg, subs)
}

// RunSharedContext is RunShared with cancellation: the trigger-watch
// loop aborts as soon as ctx is done. The guild is deleted when the run
// returns.
func RunSharedContext(ctx context.Context, env Env, cfg Config, subs []Subject) (*SharedVerdict, error) {
	cfg = cfg.withDefaults()
	p := env.Platform
	guildTag := "hp-shared"
	hg, err := newHoneyGuild(env, cfg, "operator-shared", guildTag)
	if err != nil {
		return nil, err
	}
	// Deferred first, so it runs after every session closed.
	defer hg.close()

	v := &SharedVerdict{GuildTag: guildTag}
	var sessions []*botsdk.Session
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	var runners []BotRunner
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	for _, sub := range subs {
		bot, err := p.RegisterBot(hg.operator.ID, sub.Name)
		if err != nil {
			return nil, err
		}
		if _, err := p.InstallBot(hg.operator.ID, hg.guild.ID, bot.ID, sub.Perms); err != nil {
			return nil, fmt.Errorf("honeypot: shared install %s: %w", sub.Name, err)
		}
		sess, err := botsdk.Dial(env.Gateway, bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sess)
		runner := sub.Runner
		if runner == nil {
			runner = IdleBot{}
		}
		runner.Start(sess, BotEnv{MailRelay: env.Canary.BaseURL(), Prefix: sub.Prefix})
		runners = append(runners, runner)
		v.SuspectNames = append(v.SuspectNames, sub.Name)
	}

	if err := hg.feed(env.Feed, cfg.FeedMessages); err != nil {
		return nil, err
	}
	tokens := env.Minter.MintSet(guildTag)
	if err := plantTokens(p, env, hg.users, hg.general.ID, tokens); err != nil {
		return nil, err
	}

	if err := watchTriggers(ctx, env, guildTag, len(tokens), cfg); err != nil {
		return nil, err
	}
	v.Triggered = len(env.Canary.TriggersFor(guildTag)) > 0
	return v, nil
}
