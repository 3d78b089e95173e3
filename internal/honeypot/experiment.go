package honeypot

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/botsdk"
	"repro/internal/canary"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/permissions"
	"repro/internal/platform"
	"repro/internal/scraper"
)

// Config tunes one honeypot experiment, defaulting to the paper's
// setup: 5 virtual users, 25 conversational messages, all four token
// kinds, each bot in its own isolated private guild named after it.
type Config struct {
	Personas     int // virtual users per guild (paper: 5)
	FeedMessages int // conversational messages (paper: 25)
	// Settle is how long to watch for triggers once the bot has
	// handled the planted command; the wait for that is also capped
	// at Settle.
	Settle    time.Duration
	PollEvery time.Duration
	// Solver "solves the reCAPTCHA" required to add a bot to a guild
	// (§4.2); nil skips the step.
	Solver scraper.Solver
}

// withDefaults fills the zero fields every experiment needs.
func (cfg Config) withDefaults() Config {
	if cfg.Personas <= 0 {
		cfg.Personas = 5
	}
	if cfg.FeedMessages <= 0 {
		cfg.FeedMessages = 25
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 10 * time.Millisecond
	}
	return cfg
}

// DefaultConfig returns the paper's parameters with test-friendly
// timing.
func DefaultConfig() Config {
	return Config{
		Personas:     5,
		FeedMessages: 25,
		Settle:       750 * time.Millisecond,
		PollEvery:    10 * time.Millisecond,
	}
}

// Subject is one bot under test. Runner is process state, not
// evidence: it is excluded from serialized verdicts, so a verdict
// restored from a checkpoint carries a nil Runner.
type Subject struct {
	ListingID int
	Name      string
	Perms     permissions.Permission
	Prefix    string
	Runner    BotRunner `json:"-"`
}

// Verdict is the outcome of one experiment.
type Verdict struct {
	Subject   Subject
	GuildTag  string
	Triggered bool
	// Triggers lists the recorded canary hits for this guild.
	Triggers []canary.Trigger
	// TriggeredKinds is the distinct token kinds tripped.
	TriggeredKinds []canary.Kind
	// BotMessages are messages the bot account posted that are not
	// responses to commands — the "wtf is this bro" giveaway channel.
	BotMessages []string
	// Responded reports whether the bot answered the planted command
	// (liveness signal).
	Responded bool
	// WebhookPersistence is true when the audit log shows the bot
	// creating a webhook — an exfiltration endpoint that would outlive
	// the bot's own installation.
	WebhookPersistence bool
}

// Env bundles the infrastructure an experiment runs against.
type Env struct {
	Platform *platform.Platform
	Gateway  string // gateway dial address
	Canary   *canary.Service
	Minter   *canary.Minter
	Feed     *corpus.Generator
	// Obs receives experiment counters and the settle-wait histogram;
	// nil uses the process-default registry.
	Obs *obs.Registry
}

// honeyGuild is the guild an experiment plays out in: an operator's
// private guild, its general channel, and the personas who joined it
// by invite. The isolated and the shared experiment build it alike,
// with the same platform calls in the same order.
type honeyGuild struct {
	p        *platform.Platform
	operator *platform.User
	guild    *platform.Guild
	general  *platform.Channel
	personas []corpus.Persona
	users    []*platform.User
}

// newHoneyGuild creates the operator, its private guild named guildTag
// and the personas' memberships. The caller deletes the guild with
// close; when newHoneyGuild fails it has already deleted any guild it
// created.
func newHoneyGuild(env Env, cfg Config, operator, guildTag string) (*honeyGuild, error) {
	p := env.Platform
	op := p.CreateUser(operator)
	p.VerifyUser(op.ID)
	guild, err := p.CreateGuild(op.ID, guildTag, true)
	if err != nil {
		return nil, fmt.Errorf("honeypot: create guild: %w", err)
	}
	hg := &honeyGuild{p: p, operator: op, guild: guild, personas: env.Feed.Personas(cfg.Personas)}
	for _, ch := range guild.Channels {
		hg.general = ch
	}
	if err := hg.join(); err != nil {
		hg.close()
		return nil, err
	}
	return hg, nil
}

// join lets the personas in by invite; their mobile verification is
// "completed manually" by the experimenter (§4.2), modelled as
// VerifyUser.
func (hg *honeyGuild) join() error {
	invite, err := hg.p.CreateInvite(hg.operator.ID, hg.guild.ID)
	if err != nil {
		return fmt.Errorf("honeypot: invite: %w", err)
	}
	for _, per := range hg.personas {
		u := hg.p.CreateUser(per.Username)
		hg.p.VerifyUser(u.ID)
		if _, err := hg.p.RedeemInvite(u.ID, invite); err != nil {
			return fmt.Errorf("honeypot: persona join: %w", err)
		}
		hg.users = append(hg.users, u)
	}
	return nil
}

// feed posts a believable conversation (§3): n alternating persona
// messages.
func (hg *honeyGuild) feed(gen *corpus.Generator, n int) error {
	byName := make(map[string]*platform.User, len(hg.users))
	for i, per := range hg.personas {
		byName[per.Username] = hg.users[i]
	}
	for _, ex := range gen.Conversation(hg.personas, n) {
		if _, err := hg.p.SendMessage(byName[ex.Author.Username].ID, hg.general.ID, ex.Text); err != nil {
			return fmt.Errorf("honeypot: feed: %w", err)
		}
	}
	return nil
}

// close deletes the guild, its channels and its memberships.
func (hg *honeyGuild) close() { hg.p.DeleteGuild(hg.operator.ID, hg.guild.ID) }

// Run executes one isolated honeypot experiment for a subject,
// following §4.2: create a private guild named after the chatbot, add
// personas, install the bot (solving the captcha), post a believable
// conversation, plant the four tokens, and watch for triggers. The
// guild is deleted when the experiment returns.
func Run(env Env, cfg Config, sub Subject) (*Verdict, error) {
	return RunContext(context.Background(), env, cfg, sub)
}

// RunContext is Run with cancellation: the command wait, the
// trigger-watch settle loop and the install-captcha solve abort as soon
// as ctx is done.
func RunContext(ctx context.Context, env Env, cfg Config, sub Subject) (*Verdict, error) {
	cfg = cfg.withDefaults()
	reg := obs.Or(env.Obs)
	reg.Counter("honeypot_experiments_started_total").Inc()
	p := env.Platform

	guildTag := "hp-" + sub.Name
	ctx = journal.WithExperiment(journal.WithBot(ctx, sub.ListingID, sub.Name), guildTag)
	journal.Emit(ctx, "honeypot", journal.KindExperimentStarted, map[string]any{
		"personas": cfg.Personas,
		"perms":    sub.Perms.Value(),
		"prefix":   sub.Prefix,
	})
	hg, err := newHoneyGuild(env, cfg, "operator-"+sub.Name, guildTag)
	if err != nil {
		return nil, err
	}
	// Tear the guild down when the experiment returns, failed or not:
	// deferred first, this runs after the session closes and after
	// verdictFor has read the channel and the audit log, so a platform
	// that outlives the campaign keeps none of its guilds.
	defer hg.close()

	// "To add a chatbot to the guild, we need to solve a Google
	// reCAPTCHA" — paid out to the solving service.
	if cfg.Solver != nil {
		endSolve := trace.StartOpDetail(ctx, "captcha_solve", sub.Name)
		_, err := cfg.Solver.Solve(ctx, installChallenge(sub.Name))
		endSolve()
		if err != nil {
			return nil, fmt.Errorf("honeypot: install captcha: %w", err)
		}
	}
	bot, err := p.RegisterBot(hg.operator.ID, sub.Name)
	if err != nil {
		return nil, fmt.Errorf("honeypot: register bot: %w", err)
	}
	if _, err := p.InstallBot(hg.operator.ID, hg.guild.ID, bot.ID, sub.Perms); err != nil {
		return nil, fmt.Errorf("honeypot: install bot: %w", err)
	}

	sess, err := botsdk.Dial(env.Gateway, bot.Token, botsdk.Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("honeypot: connect bot: %w", err)
	}
	defer sess.Close()
	runner := sub.Runner
	if runner == nil {
		runner = IdleBot{}
	}
	runner.Start(sess, BotEnv{MailRelay: env.Canary.BaseURL(), Prefix: sub.Prefix})
	defer runner.Stop()
	handled := watchHandled(sess)

	if err := hg.feed(env.Feed, cfg.FeedMessages); err != nil {
		return nil, err
	}

	// Plant the four canary tokens.
	tokens := env.Minter.MintSet(guildTag)
	if err := plantTokens(p, env, hg.users, hg.general.ID, tokens); err != nil {
		return nil, err
	}

	// A command message so responder-style bots show liveness.
	prefix := sub.Prefix
	if prefix == "" {
		prefix = "!"
	}
	cmd, err := p.SendMessage(hg.users[0].ID, hg.general.ID, prefix+"help")
	if err != nil {
		return nil, fmt.Errorf("honeypot: command: %w", err)
	}
	// Open the settle window only once the bot has handled the command,
	// so a stalled process cannot close it before the bot even saw the
	// command. A dropped frame or closed session must not hang the
	// experiment, so wait at most one more Settle.
	if err := handled.wait(ctx, cmd.ID.String(), cfg.Settle); err != nil {
		return nil, err
	}

	// Watch for triggers until every kind fired or the settle window
	// elapses.
	settleStart := time.Now()
	endSettle := trace.StartOpDetail(ctx, "honeypot_settle", guildTag)
	err = watchTriggers(ctx, env, guildTag, len(tokens), cfg)
	endSettle()
	if err != nil {
		return nil, err
	}
	reg.Histogram("honeypot_settle_seconds").Observe(time.Since(settleStart))
	reg.Counter("honeypot_experiments_completed_total").Inc()

	// Stop waits for the replies, canary hits and giveaways the bot
	// started inside the window, so the verdict records all of them.
	runner.Stop()
	v, err := verdictFor(p, env, sub, guildTag, hg.guild.ID, hg.general.ID, bot.ID)
	if err != nil {
		return nil, err
	}
	kinds := make([]string, 0, len(v.TriggeredKinds))
	for _, k := range v.TriggeredKinds {
		kinds = append(kinds, k.String())
	}
	journal.Emit(ctx, "honeypot", journal.KindExperimentSettled, map[string]any{
		"triggered":       v.Triggered,
		"trigger_count":   len(v.Triggers),
		"triggered_kinds": kinds,
		"responded":       v.Responded,
		"webhook_persist": v.WebhookPersistence,
	})
	return v, nil
}

// handledWatch learns when a bot has handled a message. Registered
// after the bot's own handlers, its handler runs after theirs on the
// session's read loop, so seeing a message there means the bot has
// reacted to it.
type handledWatch struct {
	mu   sync.Mutex
	seen map[string]bool
	want string
	hit  chan struct{}
}

func watchHandled(sess *botsdk.Session) *handledWatch {
	w := &handledWatch{seen: make(map[string]bool), hit: make(chan struct{}, 1)}
	sess.OnMessage(func(_ *botsdk.Session, m *botsdk.Message) {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.seen[m.ID] = true
		if m.ID == w.want {
			select {
			case w.hit <- struct{}{}:
			default:
			}
		}
	})
	return w
}

// wait blocks until the bot has handled message id, limit elapsed, or
// ctx was cancelled.
func (w *handledWatch) wait(ctx context.Context, id string, limit time.Duration) error {
	w.mu.Lock()
	w.want = id
	done := w.seen[id]
	w.mu.Unlock()
	if done {
		return nil
	}
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-w.hit:
	case <-t.C:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// watchTriggers polls the canary service until every planted token
// fired, the settle window elapsed, or ctx was cancelled.
func watchTriggers(ctx context.Context, env Env, guildTag string, want int, cfg Config) error {
	deadline := time.NewTimer(cfg.Settle)
	defer deadline.Stop()
	tick := time.NewTicker(cfg.PollEvery)
	defer tick.Stop()
	for {
		if len(env.Canary.TriggersFor(guildTag)) >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return nil
		case <-tick.C:
		}
	}
}

// plantTokens posts the URL and email as chat and the documents as
// attachments, as §4.2 describes.
func plantTokens(p *platform.Platform, env Env, users []*platform.User, channelID platform.ID, tokens []canary.Token) error {
	poster := func(i int) platform.ID { return users[i%len(users)].ID }
	for i, tok := range tokens {
		switch tok.Kind {
		case canary.KindURL:
			if _, err := p.SendMessage(poster(i), channelID,
				"found this, worth a read: "+tok.TriggerURL); err != nil {
				return fmt.Errorf("honeypot: plant url: %w", err)
			}
		case canary.KindEmail:
			if _, err := p.SendMessage(poster(i), channelID,
				"dm me or mail "+tok.Address+" about the meetup"); err != nil {
				return fmt.Errorf("honeypot: plant email: %w", err)
			}
		case canary.KindWord:
			doc, err := canary.WordDocument(tok, "Team notes — salaries Q3 (do not share)")
			if err != nil {
				return err
			}
			if _, err := p.SendMessage(poster(i), channelID, "notes from the call",
				platform.Attachment{Filename: "notes.docx", ContentType: canary.WordMIME, Data: doc}); err != nil {
				return fmt.Errorf("honeypot: plant docx: %w", err)
			}
		case canary.KindPDF:
			pdf, err := canary.PDFDocument(tok, "Invoice 0042 — confidential")
			if err != nil {
				return err
			}
			if _, err := p.SendMessage(poster(i), channelID, "invoice attached",
				platform.Attachment{Filename: "invoice.pdf", ContentType: canary.PDFMIME, Data: pdf}); err != nil {
				return fmt.Errorf("honeypot: plant pdf: %w", err)
			}
		}
	}
	return nil
}

// verdictFor assembles the outcome after the settle window.
func verdictFor(p *platform.Platform, env Env, sub Subject, guildTag string, gID, channelID, botID platform.ID) (*Verdict, error) {
	v := &Verdict{Subject: sub, GuildTag: guildTag}
	v.Triggers = env.Canary.TriggersFor(guildTag)
	v.Triggered = len(v.Triggers) > 0
	seen := make(map[canary.Kind]bool)
	for _, trg := range v.Triggers {
		if !seen[trg.Kind] {
			seen[trg.Kind] = true
			v.TriggeredKinds = append(v.TriggeredKinds, trg.Kind)
		}
	}
	msgs, err := p.ChannelMessages(channelID)
	if err != nil {
		return nil, fmt.Errorf("honeypot: forensics read: %w", err)
	}
	for _, m := range msgs {
		if m.AuthorID != botID {
			continue
		}
		if strings.HasPrefix(m.Content, "commands: ") || strings.Contains(m.Content, "reporting for duty") {
			v.Responded = true
			continue
		}
		v.BotMessages = append(v.BotMessages, m.Content)
	}
	// Audit-log forensics: did the bot mint a persistence webhook?
	if entries, err := p.AuditLog(platform.Nil, gID); err == nil {
		for _, e := range entries {
			if e.Action == "webhook.create" && e.ActorID == botID {
				v.WebhookPersistence = true
			}
		}
	}
	return v, nil
}

func installChallenge(name string) string {
	return fmt.Sprintf("what is %d plus %d", 20+len(name)%10, 22)
}
