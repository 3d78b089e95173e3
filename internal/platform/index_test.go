package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/permissions"
)

// TestIndexesMatchScan drives random sequences of guild creation and
// deletion, joins, invite redemptions, leaves, kicks, bans, bot
// installs and uninstalls, and channel and webhook creation. After
// every step, GuildsOf and the channel lookup must agree with a scan of
// every guild, and no invite or webhook may point at a deleted guild.
func TestIndexesMatchScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runIndexSequence(t, seed, 500)
		})
	}
}

func runIndexSequence(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	p := New(Options{})
	defer p.Close()

	var owners, users, bots []ID
	var guilds []*Guild
	invites := map[ID]string{}
	for i := 0; i < 3; i++ {
		o := p.CreateUser(fmt.Sprintf("owner%d", i))
		p.VerifyUser(o.ID)
		owners = append(owners, o.ID)
		b, err := p.RegisterBot(o.ID, fmt.Sprintf("bot%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bots = append(bots, b.ID)
	}
	pick := func(ids []ID) ID { return ids[rng.Intn(len(ids))] }
	randGuild := func() *Guild { return guilds[rng.Intn(len(guilds))] }
	randMember := func(g *Guild) ID {
		p.mu.RLock()
		defer p.mu.RUnlock()
		ids := make([]ID, 0, len(g.Members))
		for id := range g.Members {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids[rng.Intn(len(ids))]
	}
	randChannel := func(g *Guild) ID {
		p.mu.RLock()
		defer p.mu.RUnlock()
		ids := make([]ID, 0, len(g.Channels))
		for id := range g.Channels {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids[rng.Intn(len(ids))]
	}

	for step := 0; step < steps; step++ {
		if len(guilds) == 0 || rng.Intn(12) == 0 {
			g, err := p.CreateGuild(pick(owners), fmt.Sprintf("g%d", step), rng.Intn(3) == 0)
			if err != nil {
				t.Fatal(err)
			}
			guilds = append(guilds, g)
			inv, err := p.CreateInvite(g.OwnerID, g.ID)
			if err != nil {
				t.Fatal(err)
			}
			invites[g.ID] = inv
			continue
		}
		g := randGuild()
		switch rng.Intn(11) {
		case 0: // a new account, verified or not
			u := p.CreateUser(fmt.Sprintf("u%d", step))
			if rng.Intn(2) == 0 {
				p.VerifyUser(u.ID)
			}
			users = append(users, u.ID)
		case 1:
			if len(users) > 0 {
				p.JoinGuild(pick(users), g.ID)
			}
		case 2:
			if len(users) > 0 {
				p.RedeemInvite(pick(users), invites[g.ID])
			}
		case 3:
			p.LeaveGuild(randMember(g), g.ID)
		case 4:
			p.KickMember(g.OwnerID, g.ID, randMember(g))
		case 5:
			p.BanMember(g.OwnerID, g.ID, randMember(g))
		case 6:
			p.InstallBot(g.OwnerID, g.ID, pick(bots), permissions.SendMessages|permissions.ViewChannel)
		case 7:
			p.UninstallBot(g.OwnerID, g.ID, pick(bots))
		case 8:
			p.CreateChannel(g.OwnerID, g.ID, fmt.Sprintf("c%d", step), ChannelKind(rng.Intn(2)))
		case 9:
			p.CreateWebhook(g.OwnerID, randChannel(g), fmt.Sprintf("w%d", step))
		case 10:
			if rng.Intn(2) == 0 {
				if err := p.DeleteGuild(g.OwnerID, g.ID); err != nil {
					t.Fatalf("step %d: DeleteGuild: %v", step, err)
				}
				for i := range guilds {
					if guilds[i] == g {
						guilds = append(guilds[:i], guilds[i+1:]...)
						break
					}
				}
				delete(invites, g.ID)
			}
		}
		checkIndexes(t, p, step)
		if t.Failed() {
			return
		}
	}
}

// checkIndexes compares the indexes with a scan of every guild.
func checkIndexes(t *testing.T, p *Platform, step int) {
	t.Helper()
	p.mu.RLock()
	wantGuilds := map[ID][]ID{}
	var channels []*Channel
	for _, g := range p.guilds {
		for uid := range g.Members {
			wantGuilds[uid] = append(wantGuilds[uid], g.ID)
		}
		for _, ch := range g.Channels {
			channels = append(channels, ch)
		}
	}
	users := make([]ID, 0, len(p.users))
	for uid := range p.users {
		users = append(users, uid)
	}
	indexed, members := len(p.channels), len(p.memberOf)
	for code, gid := range p.invites {
		if p.guilds[gid] == nil {
			t.Errorf("step %d: invite %s points at deleted guild %v", step, code, gid)
		}
	}
	for _, wh := range p.webhooks {
		if _, _, err := p.channelLocked(wh.ChannelID); p.guilds[wh.GuildID] == nil || err != nil {
			t.Errorf("step %d: webhook %v outlives its guild %v or channel %v", step, wh.ID, wh.GuildID, wh.ChannelID)
		}
	}
	p.mu.RUnlock()

	for _, uid := range users {
		want := wantGuilds[uid]
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := p.GuildsOf(uid); !reflect.DeepEqual(got, want) {
			t.Errorf("step %d: GuildsOf(%v) = %v, a scan finds %v", step, uid, got, want)
		}
	}
	if members != len(wantGuilds) {
		t.Errorf("step %d: membership index holds %d users, %d belong to a guild", step, members, len(wantGuilds))
	}
	if indexed != len(channels) {
		t.Errorf("step %d: channel index holds %d channels, the guilds %d", step, indexed, len(channels))
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, ch := range channels {
		got, g, err := p.channelLocked(ch.ID)
		if err != nil || got != ch || g == nil || g.Channels[ch.ID] != ch {
			t.Errorf("step %d: channel %v looked up as %v in guild %v (%v)", step, ch.ID, got, g, err)
		}
	}
	if _, _, err := p.channelLocked(p.ids.Next()); !errors.Is(err, ErrNotFound) {
		t.Errorf("step %d: unknown channel: %v, want ErrNotFound", step, err)
	}
}

// BenchmarkPlatformLookups times a message send and an invite
// redemption on a platform holding 50 and 5,000 guilds, as a
// long-lived platform accumulates one campaign's guilds after another.
// Neither should cost more on the larger platform. A redemption op
// also leaves the guild, so the same account can redeem again.
func BenchmarkPlatformLookups(b *testing.B) {
	for _, n := range []int{50, 5000} {
		p := New(Options{})
		owner := p.CreateUser("owner")
		p.VerifyUser(owner.ID)
		var g *Guild
		for i := 0; i < n; i++ {
			var err error
			if g, err = p.CreateGuild(owner.ID, fmt.Sprintf("g%d", i), true); err != nil {
				b.Fatal(err)
			}
		}
		var channel ID
		for id := range g.Channels {
			channel = id
		}
		inv, err := p.CreateInvite(owner.ID, g.ID)
		if err != nil {
			b.Fatal(err)
		}
		joiner := p.CreateUser("joiner")
		p.VerifyUser(joiner.ID)

		b.Run(fmt.Sprintf("SendMessage/guilds=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.SendMessage(owner.ID, channel, "hello"); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 1023 { // keep the channel's history small
					p.mu.Lock()
					g.Channels[channel].Messages = nil
					p.mu.Unlock()
				}
			}
		})
		b.Run(fmt.Sprintf("RedeemInvite/guilds=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.RedeemInvite(joiner.ID, inv); err != nil {
					b.Fatal(err)
				}
				if err := p.LeaveGuild(joiner.ID, g.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
		p.Close()
	}
}
