package platform

import (
	"errors"
	"testing"

	"repro/internal/permissions"
)

func interactionFixture(t *testing.T) (*Platform, *User, *Guild, *Channel, *User) {
	t.Helper()
	p, owner, g, general := fixture(t)
	bot, err := p.RegisterBot(owner.ID, "slashbot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallBot(owner.ID, g.ID, bot.ID, permissions.ViewChannel|permissions.SendMessages); err != nil {
		t.Fatal(err)
	}
	return p, owner, g, general, bot
}

func TestInteractionLifecycle(t *testing.T) {
	p, owner, g, general, bot := interactionFixture(t)
	in, err := p.Interact(owner.ID, bot.ID, general.ID, "kick", "@victim")
	if err != nil {
		t.Fatal(err)
	}
	if in.UserID != owner.ID || in.BotID != bot.ID || in.Command != "kick" {
		t.Errorf("interaction = %+v", in)
	}
	got, err := p.InteractionByID(g.ID, in.ID)
	if err != nil || got.Args != "@victim" {
		t.Errorf("lookup = %+v, %v", got, err)
	}
	msg, err := p.RespondInteraction(bot.ID, g.ID, in.ID, "done")
	if err != nil {
		t.Fatal(err)
	}
	if msg.AuthorID != bot.ID || msg.ChannelID != general.ID {
		t.Errorf("reply = %+v", msg)
	}
	// Single response only.
	if _, err := p.RespondInteraction(bot.ID, g.ID, in.ID, "again"); !errors.Is(err, ErrAlreadyResponded) {
		t.Errorf("double respond err = %v", err)
	}
}

func TestInteractionValidation(t *testing.T) {
	p, owner, g, general, bot := interactionFixture(t)
	human := addUser(t, p, g, "human")

	if _, err := p.Interact(owner.ID, human.ID, general.ID, "x", ""); !errors.Is(err, ErrNotBot) {
		t.Errorf("interact with human err = %v", err)
	}
	stranger := p.CreateUser("stranger")
	if _, err := p.Interact(stranger.ID, bot.ID, general.ID, "x", ""); !errors.Is(err, ErrNotMember) {
		t.Errorf("stranger interact err = %v", err)
	}
	voice, _ := p.CreateChannel(owner.ID, g.ID, "v", ChannelVoice)
	if _, err := p.Interact(owner.ID, bot.ID, voice.ID, "x", ""); !errors.Is(err, ErrWrongChannelKind) {
		t.Errorf("voice interact err = %v", err)
	}
	otherBot, _ := p.RegisterBot(owner.ID, "other")
	p.InstallBot(owner.ID, g.ID, otherBot.ID, permissions.ViewChannel)
	in, err := p.Interact(owner.ID, bot.ID, general.ID, "x", "")
	if err != nil {
		t.Fatal(err)
	}
	// Only the targeted bot may respond.
	if _, err := p.RespondInteraction(otherBot.ID, g.ID, in.ID, "hijack"); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("foreign respond err = %v", err)
	}
	if _, err := p.RespondInteraction(bot.ID, g.ID, in.ID, ""); !errors.Is(err, ErrEmptyContent) {
		t.Errorf("empty respond err = %v", err)
	}
	if _, err := p.InteractionByID(g.ID, 99999); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost interaction err = %v", err)
	}
}

func TestInteractionReplyBypassesSendOverwrites(t *testing.T) {
	p, owner, g, general, bot := interactionFixture(t)
	// Deny the bot send-messages in the channel; interaction replies
	// still land (the user invited the response).
	if err := p.SetOverwrite(owner.ID, general.ID, Overwrite{
		Kind: OverwriteMember, TargetID: bot.ID, Deny: permissions.SendMessages,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage(bot.ID, general.ID, "direct"); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("direct send should be denied: %v", err)
	}
	in, err := p.Interact(owner.ID, bot.ID, general.ID, "ping", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RespondInteraction(bot.ID, g.ID, in.ID, "pong"); err != nil {
		t.Fatalf("interaction reply blocked by overwrite: %v", err)
	}
}

func TestInteractionEventTargeting(t *testing.T) {
	p, owner, g, general, bot := interactionFixture(t)
	events := subscribeChan(t, p, 8, func(e Event) bool { return e.Type == EventInteractionCreate })
	in, err := p.Interact(owner.ID, bot.ID, general.ID, "help", "")
	if err != nil {
		t.Fatal(err)
	}
	p.Flush()
	select {
	case e := <-events:
		if e.Interaction == nil || e.Interaction.ID != in.ID || e.UserID != owner.ID {
			t.Errorf("event = %+v", e)
		}
		_ = g
	default:
		t.Fatal("no interaction event dispatched")
	}
}
