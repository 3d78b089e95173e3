package platform

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/permissions"
)

func TestWebhookLifecycle(t *testing.T) {
	p, owner, g, general := fixture(t)
	wh, err := p.CreateWebhook(owner.ID, general.ID, "announcer")
	if err != nil {
		t.Fatal(err)
	}
	if wh.Token == "" || wh.ChannelID != general.ID {
		t.Fatalf("webhook = %+v", wh)
	}
	msg, err := p.ExecuteWebhook(wh.Token, "Totally A Human", "big news")
	if err != nil {
		t.Fatal(err)
	}
	if msg.AuthorID != wh.ID {
		t.Errorf("author = %s, want webhook identity %s", msg.AuthorID, wh.ID)
	}
	if !strings.Contains(msg.Content, "Totally A Human") {
		t.Errorf("display name lost: %q", msg.Content)
	}
	hooks, err := p.WebhooksOf(owner.ID, g.ID)
	if err != nil || len(hooks) != 1 {
		t.Fatalf("webhooks = %v, %v", hooks, err)
	}
	if err := p.DeleteWebhook(owner.ID, wh.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteWebhook(wh.Token, "", "late"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("execute after delete err = %v", err)
	}
	if err := p.DeleteWebhook(owner.ID, wh.Token); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestWebhookPermissionGates(t *testing.T) {
	p, owner, g, general := fixture(t)
	pleb := addUser(t, p, g, "pleb")
	if _, err := p.CreateWebhook(pleb.ID, general.ID, "x"); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb create err = %v", err)
	}
	voice, _ := p.CreateChannel(owner.ID, g.ID, "v", ChannelVoice)
	if _, err := p.CreateWebhook(owner.ID, voice.ID, "x"); !errors.Is(err, ErrWrongChannelKind) {
		t.Errorf("voice webhook err = %v", err)
	}
	wh, _ := p.CreateWebhook(owner.ID, general.ID, "keeper")
	if err := p.DeleteWebhook(pleb.ID, wh.Token); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb delete err = %v", err)
	}
	if _, err := p.WebhooksOf(pleb.ID, g.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb list err = %v", err)
	}
	if _, err := p.ExecuteWebhook(wh.Token, "", ""); !errors.Is(err, ErrEmptyContent) {
		t.Errorf("empty execute err = %v", err)
	}
}

func TestWebhookLaunderingScenario(t *testing.T) {
	// The threat: a bot with manage-webhooks mints a webhook, and the
	// token keeps working even after the bot itself is uninstalled —
	// persistence beyond the consent the installer granted.
	p, owner, g, general := fixture(t)
	bot, _ := p.RegisterBot(owner.ID, "launderer")
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID,
		permissions.ViewChannel|permissions.ManageWebhooks); err != nil {
		t.Fatal(err)
	}
	wh, err := p.CreateWebhook(bot.ID, general.ID, "innocent-news")
	if err != nil {
		t.Fatal(err)
	}
	// The bot is uninstalled; its grant is gone…
	if err := p.UninstallBot(owner.ID, g.ID, bot.ID); err != nil {
		t.Fatal(err)
	}
	// …but the webhook token still posts, with a fabricated identity.
	msg, err := p.ExecuteWebhook(wh.Token, "Alice from HR", "please open payroll.docx")
	if err != nil {
		t.Fatalf("laundered post failed: %v", err)
	}
	if msg.AuthorID == bot.ID {
		t.Error("message should not carry the bot's account identity")
	}
	// Forensics: the audit log still attributes webhook creation.
	entries, _ := p.AuditLog(Nil, g.ID)
	found := false
	for _, e := range entries {
		if e.Action == "webhook.create" && e.ActorID == bot.ID {
			found = true
		}
	}
	if !found {
		t.Error("webhook.create not attributed to the bot in the audit log")
	}
}

func TestWebhookEventsDispatched(t *testing.T) {
	p, owner, _, general := fixture(t)
	events := subscribeChan(t, p, 8, func(e Event) bool { return e.Type == EventWebhookUpdate })
	wh, err := p.CreateWebhook(owner.ID, general.ID, "evt")
	if err != nil {
		t.Fatal(err)
	}
	p.Flush()
	select {
	case e := <-events:
		if e.ChannelID != general.ID {
			t.Errorf("event = %+v", e)
		}
	default:
		t.Fatal("no webhook event")
	}
	_ = wh
}
