package honeypot

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/botsdk"
	"repro/internal/canary"
	"repro/internal/corpus"
	"repro/internal/gateway"
	"repro/internal/permissions"
	"repro/internal/platform"
	"repro/internal/scraper"
	"repro/internal/synth"
)

// newEnv stands up the full honeypot infrastructure: platform, gateway,
// canary service, corpus feed.
func newEnv(t *testing.T) Env {
	t.Helper()
	p := platform.New(platform.Options{})
	gw, err := gateway.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := canary.NewService("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Close()
		svc.Close()
		p.Close()
	})
	return Env{
		Platform: p,
		Gateway:  gw.Addr(),
		Canary:   svc,
		Minter:   svc.NewMinter("canary.test", canary.SequentialIDs("hp")),
		Feed:     corpus.New(1234),
	}
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Settle = 1500 * time.Millisecond
	return cfg
}

const snoopPerms = permissions.ViewChannel | permissions.ReadMessageHistory |
	permissions.SendMessages | permissions.AttachFiles

func TestSnoopBotTriggersTokens(t *testing.T) {
	env := newEnv(t)
	v, err := Run(env, testCfg(), Subject{
		ListingID: 1, Name: "Melonian", Perms: snoopPerms, Prefix: "!",
		Runner: &SnoopBot{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Triggered {
		t.Fatal("snoop bot tripped no tokens")
	}
	kinds := make(map[canary.Kind]bool)
	for _, k := range v.TriggeredKinds {
		kinds[k] = true
	}
	// The paper's observed triggers were the word document and the URL;
	// our snoop also mails the address and opens the PDF.
	for _, want := range []canary.Kind{canary.KindURL, canary.KindWord, canary.KindPDF, canary.KindEmail} {
		if !kinds[want] {
			t.Errorf("kind %s not triggered; got %v", want, v.TriggeredKinds)
		}
	}
	// The human-operator giveaway message must be visible in forensics.
	found := false
	for _, m := range v.BotMessages {
		if strings.Contains(m, "wtf is this bro") {
			found = true
		}
	}
	if !found {
		t.Errorf("giveaway message missing; bot messages = %v", v.BotMessages)
	}
	if v.GuildTag != "hp-Melonian" {
		t.Errorf("guild tag = %q", v.GuildTag)
	}
}

func TestSnoopWebhookPersistenceDetected(t *testing.T) {
	env := newEnv(t)
	cfg := testCfg()
	// Granted manage-webhooks: the persistence attempt succeeds and the
	// audit log catches it.
	v, err := Run(env, cfg, Subject{
		ListingID: 10, Name: "Persistent",
		Perms:  snoopPerms | permissions.ManageWebhooks,
		Runner: &SnoopBot{AttemptPersistence: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.WebhookPersistence {
		t.Error("webhook persistence not detected in the audit log")
	}
	// Without the grant, the attempt fails and leaves no webhook.
	cfg.Settle = 400 * time.Millisecond
	v2, err := Run(env, cfg, Subject{
		ListingID: 11, Name: "Thwarted",
		Perms:  snoopPerms, // no manage-webhooks
		Runner: &SnoopBot{AttemptPersistence: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v2.WebhookPersistence {
		t.Error("persistence reported despite missing manage-webhooks")
	}
}

func TestBenignBotsStayClean(t *testing.T) {
	env := newEnv(t)
	cfg := testCfg()
	cfg.Settle = 400 * time.Millisecond

	idle, err := Run(env, cfg, Subject{ListingID: 2, Name: "Idler", Perms: snoopPerms, Runner: IdleBot{}})
	if err != nil {
		t.Fatal(err)
	}
	if idle.Triggered {
		t.Errorf("idle bot triggered: %+v", idle.Triggers)
	}
	if idle.Responded {
		t.Error("idle bot should not respond to commands")
	}

	resp, err := Run(env, cfg, Subject{ListingID: 3, Name: "Helper", Perms: snoopPerms, Prefix: "!", Runner: &ResponderBot{}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Triggered {
		t.Errorf("responder bot triggered: %+v", resp.Triggers)
	}
	if !resp.Responded {
		t.Error("responder bot did not answer the planted command")
	}
	if len(resp.BotMessages) != 0 {
		t.Errorf("responder posted unexpected messages: %v", resp.BotMessages)
	}
}

func TestExperimentIsolation(t *testing.T) {
	// Two experiments in the same env: the snoop's triggers must be
	// attributed only to its own guild.
	env := newEnv(t)
	cfg := testCfg()
	if _, err := Run(env, cfg, Subject{ListingID: 4, Name: "Snoopy", Perms: snoopPerms, Runner: &SnoopBot{}}); err != nil {
		t.Fatal(err)
	}
	cfg.Settle = 300 * time.Millisecond
	clean, err := Run(env, cfg, Subject{ListingID: 5, Name: "Cleany", Perms: snoopPerms, Runner: IdleBot{}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Triggered {
		t.Errorf("isolation breach: clean bot blamed for %v", clean.Triggers)
	}
	if len(env.Canary.TriggersFor("hp-Snoopy")) == 0 {
		t.Error("snoop triggers lost")
	}
}

func TestInstallCaptchaSolved(t *testing.T) {
	env := newEnv(t)
	solver := &scraper.TwoCaptchaSim{CostPerSolve: 299}
	cfg := testCfg()
	cfg.Settle = 200 * time.Millisecond
	cfg.Solver = solver
	if _, err := Run(env, cfg, Subject{ListingID: 6, Name: "Gated", Perms: snoopPerms, Runner: IdleBot{}}); err != nil {
		t.Fatal(err)
	}
	if solver.Solved() != 1 {
		t.Errorf("install captcha solves = %d, want 1", solver.Solved())
	}
}

func TestCampaignFindsTheOneMaliciousBot(t *testing.T) {
	env := newEnv(t)
	eco := synth.Generate(synth.Config{Seed: 77, NumBots: 300})
	cfg := CampaignConfig{SampleSize: 40, Experiment: testCfg()}
	cfg.Experiment.Settle = 400 * time.Millisecond
	res, err := campaign(context.Background(), env, eco, cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 40 {
		t.Fatalf("tested %d bots", res.Tested)
	}
	if len(res.Triggered) != 1 {
		names := []string{}
		for _, v := range res.Triggered {
			names = append(names, v.Subject.Name)
		}
		t.Fatalf("triggered bots = %v, want exactly [Melonian]", names)
	}
	if res.Triggered[0].Subject.Name != "Melonian" {
		t.Errorf("triggered bot = %s", res.Triggered[0].Subject.Name)
	}
	if msgs := res.GiveawayMessages["Melonian"]; len(msgs) == 0 {
		t.Error("giveaway messages not collected")
	}
	kinds := res.KindsTriggered()
	if kinds[canary.KindWord] != 1 || kinds[canary.KindURL] != 1 {
		t.Errorf("kinds triggered = %v", kinds)
	}
	// Sample diversity is reported, mirroring §4.2's justification.
	d := res.Diversity
	if d.GuildCountMax <= d.GuildCountMin {
		t.Errorf("guild count spread degenerate: %d..%d", d.GuildCountMin, d.GuildCountMax)
	}
	if d.VotesMax <= d.VotesMin {
		t.Errorf("vote spread degenerate: %d..%d", d.VotesMin, d.VotesMax)
	}
	if len(d.TagCoverage) < 3 {
		t.Errorf("tag coverage = %v", d.TagCoverage)
	}
}

func TestSelectMostVoted(t *testing.T) {
	eco := synth.Generate(synth.Config{Seed: 3, NumBots: 200})
	top := SelectMostVoted(eco.Bots, 50)
	if len(top) != 50 {
		t.Fatalf("sample size = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Votes < top[i].Votes {
			t.Fatal("sample not sorted by votes")
		}
	}
	for _, b := range top {
		if b.InviteHealth != 0 {
			t.Fatalf("invalid-invite bot %s in sample", b.Name)
		}
	}
	// Melonian must make the cut (paper tested it).
	found := false
	for _, b := range top {
		if b.Name == "Melonian" {
			found = true
		}
	}
	if !found {
		t.Error("Melonian missing from the most-voted sample")
	}
}

func TestRunnerForBehavior(t *testing.T) {
	if _, ok := RunnerForBehavior(synth.BehaviorSnoop).(*SnoopBot); !ok {
		t.Error("snoop behavior mapping wrong")
	}
	if _, ok := RunnerForBehavior(synth.BehaviorResponder).(*ResponderBot); !ok {
		t.Error("responder behavior mapping wrong")
	}
	if _, ok := RunnerForBehavior(synth.BehaviorIdle).(IdleBot); !ok {
		t.Error("idle behavior mapping wrong")
	}
}

// lateResponder is a responder whose command handler takes delay
// before the bot's reply goes out.
type lateResponder struct {
	ResponderBot
	delay time.Duration
}

func (b *lateResponder) Start(sess *botsdk.Session, env BotEnv) {
	sess.OnMessage(func(_ *botsdk.Session, m *botsdk.Message) {
		if m.Content == env.Prefix+"help" {
			time.Sleep(b.delay)
		}
	})
	b.ResponderBot.Start(sess, env)
}

// TestLateCommandHandlerStillResponds: the settle window opens only once
// the bot has handled the command, so a bot that takes longer than
// Settle to react still has its reply recorded.
func TestLateCommandHandlerStillResponds(t *testing.T) {
	env := newEnv(t)
	cfg := testCfg()
	cfg.Settle = 200 * time.Millisecond
	v, err := Run(env, cfg, Subject{
		ListingID: 12, Name: "Sluggish", Perms: snoopPerms, Prefix: "!",
		Runner: &lateResponder{delay: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Responded {
		t.Error("a responder whose handler took 1.5x Settle was recorded as silent")
	}
}

// TestResponderAnswersBackToBackCommands: ResponderBot replies off the
// session's read loop, so its first reply does not hold the loop until
// RequestTimeout and the second command is answered promptly too.
func TestResponderAnswersBackToBackCommands(t *testing.T) {
	env := newEnv(t)
	p := env.Platform
	owner := p.CreateUser("owner")
	p.VerifyUser(owner.ID)
	guild, err := p.CreateGuild(owner.ID, "hp-backtoback", true)
	if err != nil {
		t.Fatal(err)
	}
	var general *platform.Channel
	for _, ch := range guild.Channels {
		general = ch
	}
	bot, err := p.RegisterBot(owner.ID, "Helper")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, guild.ID, bot.ID, snoopPerms); err != nil {
		t.Fatal(err)
	}
	const timeout = 2 * time.Second
	sess, err := botsdk.Dial(env.Gateway, bot.Token, botsdk.Options{RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r := &ResponderBot{}
	r.Start(sess, BotEnv{Prefix: "!"})
	defer r.Stop()

	for _, cmd := range []string{"!help", "!info"} {
		if _, err := p.SendMessage(owner.ID, general.ID, cmd); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(timeout / 2)
	for {
		msgs, err := p.ChannelMessages(general.ID)
		if err != nil {
			t.Fatal(err)
		}
		replies := 0
		for _, m := range msgs {
			if m.AuthorID == bot.ID {
				replies++
			}
		}
		if replies == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 commands answered within %v (RequestTimeout %v)", replies, timeout/2, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
