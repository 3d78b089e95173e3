package platform

import (
	"errors"
	"testing"

	"repro/internal/permissions"
)

func voiceFixture(t *testing.T) (*Platform, *User, *Guild, *Channel) {
	t.Helper()
	p, owner, g, _ := fixture(t)
	lounge, err := p.CreateChannel(owner.ID, g.ID, "lounge", ChannelVoice)
	if err != nil {
		t.Fatal(err)
	}
	return p, owner, g, lounge
}

func TestJoinLeaveVoice(t *testing.T) {
	p, owner, g, lounge := voiceFixture(t)
	u := addUser(t, p, g, "talker")
	if err := p.JoinVoice(u.ID, lounge.ID); err != nil {
		t.Fatal(err)
	}
	states, err := p.VoiceStates(owner.ID, g.ID)
	if err != nil || len(states) != 1 {
		t.Fatalf("states = %v, %v", states, err)
	}
	if states[0].UserID != u.ID || states[0].ChannelID != lounge.ID {
		t.Errorf("state = %+v", states[0])
	}
	if err := p.LeaveVoice(u.ID, g.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.LeaveVoice(u.ID, g.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double leave err = %v", err)
	}
	states, _ = p.VoiceStates(owner.ID, g.ID)
	if len(states) != 0 {
		t.Errorf("states after leave = %v", states)
	}
}

func TestJoinVoiceChecksKindAndPerms(t *testing.T) {
	p, owner, g, lounge := voiceFixture(t)
	u := addUser(t, p, g, "muted-out")
	var text *Channel
	for _, ch := range g.Channels {
		if ch.Kind == ChannelText {
			text = ch
		}
	}
	if err := p.JoinVoice(u.ID, text.ID); !errors.Is(err, ErrWrongChannelKind) {
		t.Errorf("join text channel err = %v", err)
	}
	// Deny connect on the lounge for this member.
	if err := p.SetOverwrite(owner.ID, lounge.ID, Overwrite{
		Kind: OverwriteMember, TargetID: u.ID, Deny: permissions.Connect,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.JoinVoice(u.ID, lounge.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("denied connect err = %v", err)
	}
	stranger := p.CreateUser("stranger")
	if err := p.JoinVoice(stranger.ID, lounge.ID); !errors.Is(err, ErrNotMember) {
		t.Errorf("stranger join err = %v", err)
	}
	if err := p.JoinVoice(u.ID, 999); !errors.Is(err, ErrNotFound) {
		t.Errorf("ghost channel err = %v", err)
	}
}

func TestVoiceMoveBetweenChannels(t *testing.T) {
	p, owner, g, lounge := voiceFixture(t)
	stage, _ := p.CreateChannel(owner.ID, g.ID, "stage", ChannelVoice)
	u := addUser(t, p, g, "mover")
	p.JoinVoice(u.ID, lounge.ID)
	if err := p.JoinVoice(u.ID, stage.ID); err != nil {
		t.Fatal(err)
	}
	states, _ := p.VoiceStates(owner.ID, g.ID)
	if len(states) != 1 || states[0].ChannelID != stage.ID {
		t.Errorf("move produced states %v", states)
	}
}

func TestVoiceMuteDeafenHierarchyExempt(t *testing.T) {
	p, owner, g, lounge := voiceFixture(t)
	mod := addUser(t, p, g, "mod")
	target := addUser(t, p, g, "target")
	// Give the mod mute/deafen via a LOW role and the target a HIGHER
	// role: rule v says these permissions ignore the hierarchy.
	modRole, _ := p.CreateRole(owner.ID, g.ID, "voicemod", permissions.MuteMembers|permissions.DeafenMembers, 2)
	highRole, _ := p.CreateRole(owner.ID, g.ID, "vip", permissions.None, 8)
	p.GrantRole(owner.ID, g.ID, mod.ID, modRole.ID)
	p.GrantRole(owner.ID, g.ID, target.ID, highRole.ID)
	if err := p.JoinVoice(target.ID, lounge.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.SetVoiceMute(mod.ID, g.ID, target.ID, true); err != nil {
		t.Fatalf("hierarchy-exempt mute failed: %v", err)
	}
	if err := p.SetVoiceDeafen(mod.ID, g.ID, target.ID, true); err != nil {
		t.Fatalf("hierarchy-exempt deafen failed: %v", err)
	}
	states, _ := p.VoiceStates(owner.ID, g.ID)
	if !states[0].Muted || !states[0].Deafened {
		t.Errorf("flags not applied: %+v", states[0])
	}
	// Unmute path.
	if err := p.SetVoiceMute(mod.ID, g.ID, target.ID, false); err != nil {
		t.Fatal(err)
	}
	states, _ = p.VoiceStates(owner.ID, g.ID)
	if states[0].Muted {
		t.Error("unmute not applied")
	}
	// Without the permission, the action is denied.
	pleb := addUser(t, p, g, "pleb")
	if err := p.SetVoiceMute(pleb.ID, g.ID, target.ID, true); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("permless mute err = %v", err)
	}
	// Target not in voice -> not found.
	if err := p.SetVoiceMute(mod.ID, g.ID, pleb.ID, true); !errors.Is(err, ErrNotFound) {
		t.Errorf("mute non-voice member err = %v", err)
	}
}

func TestVoiceStateEventsDispatched(t *testing.T) {
	p, _, g, lounge := voiceFixture(t)
	events := subscribeChan(t, p, 16, func(e Event) bool { return e.Type == EventVoiceStateUpdate })
	u := addUser(t, p, g, "streamer")
	if err := p.JoinVoice(u.ID, lounge.ID); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	select {
	case e := <-events:
		if e.UserID != u.ID || e.ChannelID != lounge.ID {
			t.Errorf("event = %+v", e)
		}
	default:
		t.Fatal("no voice event dispatched")
	}
}

func TestVoiceMetadataRequiresViewChannel(t *testing.T) {
	p, owner, g, lounge := voiceFixture(t)
	u := addUser(t, p, g, "snooper")
	p.JoinVoice(owner.ID, lounge.ID)
	// Strip view-channel from this member.
	everyone := g.EveryoneRoleID()
	if err := p.EditRole(owner.ID, g.ID, everyone, DefaultEveryonePerms.Remove(permissions.ViewChannel)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.VoiceStates(u.ID, g.ID); !errors.Is(err, ErrPermissionDenied) {
		t.Errorf("voice metadata without view-channel err = %v", err)
	}
}
