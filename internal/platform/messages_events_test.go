package platform

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/permissions"
)

func TestSendMessageAndHistory(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "alice")
	for i := 0; i < 5; i++ {
		if _, err := p.SendMessage(u.ID, general.ID, fmt.Sprintf("msg %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := p.History(owner.ID, general.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[0].Content != "msg 2" || msgs[2].Content != "msg 4" {
		t.Errorf("history window wrong: %v", msgs)
	}
	all, _ := p.History(owner.ID, general.ID, 0)
	if len(all) != 5 {
		t.Errorf("full history = %d msgs", len(all))
	}
	if _, err := p.SendMessage(u.ID, general.ID, ""); !errors.Is(err, ErrEmptyContent) {
		t.Errorf("empty message err = %v", err)
	}
	if _, err := p.SendMessage(u.ID, 999, "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost channel err = %v", err)
	}
	stranger := p.CreateUser("stranger")
	if _, err := p.SendMessage(stranger.ID, general.ID, "hi"); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member send err = %v", err)
	}
}

func TestVoiceChannelRejectsText(t *testing.T) {
	p, owner, g, _ := fixture(t)
	voice, err := p.CreateChannel(owner.ID, g.ID, "lounge", ChannelVoice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SendMessage(owner.ID, voice.ID, "hello?"); !errors.Is(err, ErrWrongChannelKind) {
		t.Errorf("text in voice err = %v", err)
	}
	if _, err := p.History(owner.ID, voice.ID, 1); !errors.Is(err, ErrWrongChannelKind) {
		t.Errorf("history in voice err = %v", err)
	}
}

func TestCreateChannelRequiresPermission(t *testing.T) {
	p, _, g, _ := fixture(t)
	pleb := addUser(t, p, g, "pleb")
	if _, err := p.CreateChannel(pleb.ID, g.ID, "mine", ChannelText); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb channel create err = %v", err)
	}
	if _, err := p.CreateChannel(pleb.ID, 999, "x", ChannelText); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost guild err = %v", err)
	}
}

func TestHistoryRequiresReadHistory(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "limited")
	p.SendMessage(owner.ID, general.ID, "secret backlog")
	err := p.SetOverwrite(owner.ID, general.ID, Overwrite{
		Kind: OverwriteMember, TargetID: u.ID, Deny: permissions.ReadMessageHistory,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.History(u.ID, general.ID, 10); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("history without read-message-history err = %v", err)
	}
	// Still able to post.
	if _, err := p.SendMessage(u.ID, general.ID, "live"); err != nil {
		t.Errorf("send blocked: %v", err)
	}
}

func TestAttachments(t *testing.T) {
	p, owner, g, general := fixture(t)
	u := addUser(t, p, g, "uploader")
	doc := Attachment{Filename: "report.docx", ContentType: "application/vnd.openxmlformats-officedocument.wordprocessingml.document", Data: []byte("PK...")}
	msg, err := p.SendMessage(u.ID, general.ID, "see attached", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Attachments) != 1 || msg.Attachments[0].ID == Nil {
		t.Fatalf("attachment not stored: %+v", msg.Attachments)
	}
	got, err := p.Attachment(owner.ID, general.ID, msg.ID, msg.Attachments[0].ID)
	if err != nil || got.Filename != "report.docx" {
		t.Fatalf("fetch attachment = %v, %v", got, err)
	}
	if _, err := p.Attachment(owner.ID, general.ID, msg.ID, 424242); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost attachment err = %v", err)
	}
	// Deny attach-files and retry.
	p.SetOverwrite(owner.ID, general.ID, Overwrite{Kind: OverwriteMember, TargetID: u.ID, Deny: permissions.AttachFiles})
	if _, err := p.SendMessage(u.ID, general.ID, "again", doc); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("attach without permission err = %v", err)
	}
}

func TestDeleteMessage(t *testing.T) {
	p, owner, g, general := fixture(t)
	author := addUser(t, p, g, "author")
	other := addUser(t, p, g, "other")
	msg, _ := p.SendMessage(author.ID, general.ID, "oops")
	if err := p.DeleteMessage(other.ID, general.ID, msg.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("foreign delete without manage-messages err = %v", err)
	}
	if err := p.DeleteMessage(author.ID, general.ID, msg.ID); err != nil {
		t.Fatalf("own delete: %v", err)
	}
	if err := p.DeleteMessage(author.ID, general.ID, msg.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	msg2, _ := p.SendMessage(author.ID, general.ID, "modme")
	if err := p.DeleteMessage(owner.ID, general.ID, msg2.ID); err != nil {
		t.Errorf("owner (admin) delete: %v", err)
	}
}

// subscribeChan adapts a callback subscription to a channel for tests:
// events that pass filter (nil passes all) land on the returned
// channel, buffered to buffer. The callback must not block, so an event
// that finds the buffer full fails the test instead of waiting.
func subscribeChan(t *testing.T, p *Platform, buffer int, filter func(Event) bool) <-chan Event {
	t.Helper()
	ch := make(chan Event, buffer)
	sub := p.Subscribe(func(e Event) {
		if filter != nil && !filter(e) {
			return
		}
		select {
		case ch <- e:
		default:
			t.Errorf("test subscriber buffer (%d) overflowed at %+v", buffer, e)
		}
	})
	t.Cleanup(func() { p.Unsubscribe(sub) })
	return ch
}

func TestEventDelivery(t *testing.T) {
	p, owner, g, general := fixture(t)
	events := subscribeChan(t, p, 16, func(e Event) bool { return e.Type == EventMessageCreate })
	u := addUser(t, p, g, "talker")
	if _, err := p.SendMessage(u.ID, general.ID, "hello events"); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-events:
		if e.Type != EventMessageCreate || e.Message == nil || e.Message.Content != "hello events" {
			t.Errorf("unexpected event %+v", e)
		}
		if e.GuildID != g.ID || e.ChannelID != general.ID || e.UserID != u.ID {
			t.Errorf("event routing fields wrong: %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
	// Filter means the member-add from addUser was not delivered.
	p.Flush()
	select {
	case e := <-events:
		t.Errorf("unexpected extra event: %+v", e)
	default:
	}
	_ = owner
}

// TestNoCallbackAfterUnsubscribe holds a callback in flight, calls
// Unsubscribe beside it, and requires that Unsubscribe waits for that
// call to return and that no later event reaches the callback. A second
// Unsubscribe must return at once.
func TestNoCallbackAfterUnsubscribe(t *testing.T) {
	p, owner, _, general := fixture(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var unsubscribed atomic.Bool
	var calls, late atomic.Int64
	sub := p.Subscribe(func(e Event) {
		if e.Type != EventMessageCreate {
			return
		}
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		if unsubscribed.Load() {
			late.Add(1)
		}
	})
	if _, err := p.SendMessage(owner.ID, general.ID, "first"); err != nil {
		t.Fatal(err)
	}
	<-entered
	unsubDone := make(chan struct{})
	go func() {
		p.Unsubscribe(sub)
		unsubscribed.Store(true)
		close(unsubDone)
	}()
	select {
	case <-unsubDone:
		t.Fatal("Unsubscribe returned while a callback was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-unsubDone

	for i := 0; i < 10; i++ {
		if _, err := p.SendMessage(owner.ID, general.ID, "after"); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	if n := late.Load(); n != 0 {
		t.Errorf("%d callbacks ran after Unsubscribe returned", n)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}

	second := make(chan struct{})
	go func() {
		p.Unsubscribe(sub)
		close(second)
	}()
	select {
	case <-second:
	case <-time.After(time.Second):
		t.Fatal("second Unsubscribe blocked")
	}
}

func TestAuditLogAccess(t *testing.T) {
	p, owner, g, _ := fixture(t)
	bot, _ := p.RegisterBot(owner.ID, "b")
	p.InstallBot(owner.ID, g.ID, bot.ID, permissions.SendMessages|permissions.ViewChannel)
	entries, err := p.AuditLog(owner.ID, g.ID)
	if err != nil {
		t.Fatal(err)
	}
	var sawInstall bool
	for _, e := range entries {
		if e.Action == "bot.install" {
			sawInstall = true
		}
	}
	if !sawInstall {
		t.Error("bot.install not audited")
	}
	pleb := addUser(t, p, g, "pleb")
	if _, err := p.AuditLog(pleb.ID, g.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("pleb audit access err = %v", err)
	}
	// Nil actor = trusted internal access for honeypot forensics.
	if _, err := p.AuditLog(Nil, g.ID); err != nil {
		t.Errorf("internal audit access err = %v", err)
	}
}

func TestConcurrentMessagingSafety(t *testing.T) {
	p, _, g, general := fixture(t)
	var users []*User
	for i := 0; i < 8; i++ {
		users = append(users, addUser(t, p, g, fmt.Sprintf("u%d", i)))
	}
	var wg sync.WaitGroup
	for _, u := range users {
		wg.Add(1)
		go func(u *User) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.SendMessage(u.ID, general.ID, "concurrent"); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	msgs, err := p.History(users[0].ID, general.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8*50 {
		t.Errorf("got %d messages, want %d", len(msgs), 8*50)
	}
	seen := make(map[ID]bool, len(msgs))
	for _, m := range msgs {
		if seen[m.ID] {
			t.Fatalf("duplicate message ID %s", m.ID)
		}
		seen[m.ID] = true
	}
}

func TestDeterministicClock(t *testing.T) {
	base := time.Date(2022, 10, 25, 9, 0, 0, 0, time.UTC) // IMC '22 day one
	var tick int
	p := New(Options{Now: func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}})
	defer p.Close()
	owner := p.CreateUser("owner")
	g, _ := p.CreateGuild(owner.ID, "g", false)
	var ch *Channel
	for _, c := range g.Channels {
		ch = c
	}
	m1, _ := p.SendMessage(owner.ID, ch.ID, "first")
	m2, _ := p.SendMessage(owner.ID, ch.ID, "second")
	if !m1.Timestamp.Before(m2.Timestamp) {
		t.Error("timestamps not monotone under injected clock")
	}
	if m1.Timestamp.Year() != 2022 {
		t.Error("injected clock ignored")
	}
}
