package platform

import (
	"sync"
	"time"
)

// EventType labels platform events delivered over the gateway.
type EventType string

// Event types.
const (
	EventMessageCreate     EventType = "MESSAGE_CREATE"
	EventGuildMemberAdd    EventType = "GUILD_MEMBER_ADD"
	EventGuildMemberRemove EventType = "GUILD_MEMBER_REMOVE"
	EventGuildBanAdd       EventType = "GUILD_BAN_ADD"
	EventRoleUpdate        EventType = "GUILD_ROLE_UPDATE"
)

// eventFlush is an internal marker used by Flush; never delivered to
// subscribers.
const eventFlush EventType = "__FLUSH__"

// Event is a platform occurrence. Message is set for MESSAGE_CREATE.
type Event struct {
	Type        EventType
	GuildID     ID
	ChannelID   ID
	UserID      ID
	Message     *Message
	Interaction *Interaction
	At          time.Time

	flush chan struct{}
}

// Subscription is one registered event callback. The bus's dispatcher
// goroutine calls fn for each event, in publish order, under the
// subscription's lock, so no call runs after Unsubscribe returns.
type Subscription struct {
	fn func(Event)

	mu     sync.Mutex
	closed bool
}

func (s *Subscription) deliver(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.fn(e)
	}
}

// bus fans platform events out to subscribers. Delivery happens on a
// dedicated dispatcher goroutine so that publishing — which occurs while
// the platform write-lock is held — never invokes subscriber callbacks
// that might re-enter the platform (and self-deadlock on the RWMutex).
type bus struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Event
	stopped bool
	// subs is never written after it is stored: Subscribe and
	// Unsubscribe replace it, so run reads it without copying.
	subs []*Subscription
}

func newBus() *bus {
	b := &bus{}
	b.cond = sync.NewCond(&b.mu)
	go b.run()
	return b
}

// run drains the queue in order, delivering outside any platform lock.
func (b *bus) run() {
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.stopped {
			b.cond.Wait()
		}
		if b.stopped && len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		batch, subs := b.queue, b.subs
		b.queue = nil
		b.mu.Unlock()
		for _, e := range batch {
			if e.Type == eventFlush {
				close(e.flush)
				continue
			}
			for _, s := range subs {
				s.deliver(e)
			}
		}
	}
}

func (b *bus) stop() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Signal()
	b.mu.Unlock()
}

// Subscribe registers fn for every event the dispatcher delivers from
// now on. The dispatcher goroutine makes the calls one at a time, so fn
// must not block: a callback that waits stalls delivery to every
// subscriber. For the same reason fn must not call Flush, nor
// Unsubscribe its own subscription.
func (p *Platform) Subscribe(fn func(Event)) *Subscription {
	p.bus.mu.Lock()
	defer p.bus.mu.Unlock()
	s := &Subscription{fn: fn}
	subs := p.bus.subs
	p.bus.subs = append(subs[:len(subs):len(subs)], s)
	return s
}

// Unsubscribe removes the subscription. Once it returns, fn is never
// called again; a call in flight finishes first. A second Unsubscribe
// is harmless.
func (p *Platform) Unsubscribe(s *Subscription) {
	p.bus.mu.Lock()
	subs := make([]*Subscription, 0, len(p.bus.subs))
	for _, o := range p.bus.subs {
		if o != s {
			subs = append(subs, o)
		}
	}
	p.bus.subs = subs
	p.bus.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// publishLocked enqueues an event for asynchronous fan-out. Callers
// hold p.mu; enqueueing never blocks and never runs subscriber code.
func (p *Platform) publishLocked(e Event) {
	p.bus.mu.Lock()
	if !p.bus.stopped {
		p.bus.queue = append(p.bus.queue, e)
		p.bus.cond.Signal()
	}
	p.bus.mu.Unlock()
}

// Close stops the event dispatcher. Pending events are still delivered;
// subsequent publishes are dropped.
func (p *Platform) Close() {
	p.bus.stop()
}

// Flush blocks until every event published before the call has been
// passed to every subscriber's callback and the callback has returned —
// useful in tests and examples. A gateway session's callback only
// queues the event, so Flush does not wait for it to reach the socket.
func (p *Platform) Flush() {
	done := make(chan struct{})
	p.bus.mu.Lock()
	if p.bus.stopped {
		p.bus.mu.Unlock()
		close(done)
		<-done
		return
	}
	p.bus.queue = append(p.bus.queue, Event{Type: eventFlush, flush: done})
	p.bus.cond.Signal()
	p.bus.mu.Unlock()
	<-done
}
