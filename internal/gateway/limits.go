package gateway

import (
	"fmt"
	"sync"
	"time"
)

// SlowConsumerPolicy names what the gateway does when a session's
// bounded event queue is full — the three classic answers to a reader
// that cannot keep up with its fan-in.
type SlowConsumerPolicy int

const (
	// SlowBlock keeps the queued events and drops the newest one,
	// counting the loss. A client that stops reading is closed once a
	// socket write outlasts Limits.WriteTimeout.
	SlowBlock SlowConsumerPolicy = iota
	// SlowDropOldest evicts the oldest queued event to make room,
	// counting the loss — the behaviour of a real-time feed where fresh
	// events beat stale ones.
	SlowDropOldest
	// SlowDisconnect drops the whole session the moment its queue
	// overflows — the strictest policy, trading connection churn for
	// zero per-session buffering debt.
	SlowDisconnect
)

// String names the policy as accepted by ParseSlowConsumerPolicy.
func (p SlowConsumerPolicy) String() string {
	switch p {
	case SlowDropOldest:
		return "drop-oldest"
	case SlowDisconnect:
		return "disconnect"
	default:
		return "block"
	}
}

// ParseSlowConsumerPolicy parses a policy name (block, drop-oldest,
// disconnect).
func ParseSlowConsumerPolicy(s string) (SlowConsumerPolicy, error) {
	switch s {
	case "", "block":
		return SlowBlock, nil
	case "drop-oldest":
		return SlowDropOldest, nil
	case "disconnect":
		return SlowDisconnect, nil
	default:
		return SlowBlock, fmt.Errorf("gateway: unknown slow-consumer policy %q (have block, drop-oldest, disconnect)", s)
	}
}

// Limits is the gateway's traffic-plane configuration: admission
// control, per-tenant throttling, backpressure, and liveness. The zero
// value means "no admission limits" with sane backpressure defaults —
// identical to the pre-limits gateway except that writes can no longer
// block forever.
type Limits struct {
	// MaxSessions caps concurrently admitted connections (including
	// ones still in the identify handshake). Connections beyond the cap
	// are refused with an OpError "shedding" frame. 0 = unlimited.
	MaxSessions int
	// IdentifyRPS / IdentifyBurst throttle the identify handshake rate
	// across the whole listener — the knob that keeps a reconnect storm
	// from starving established sessions. 0 = unlimited.
	IdentifyRPS   float64
	IdentifyBurst int
	// TenantRPS / TenantBurst bound the aggregate request rate of all
	// sessions owned by one bot owner (the tenant), layered on top of
	// the per-session bucket set with SetRateLimit. 0 = unlimited.
	TenantRPS   float64
	TenantBurst int
	// TenantIdentifyRPS / TenantIdentifyBurst throttle identify
	// handshakes per tenant, so one owner's reconnect storm sheds with
	// reason "tenant_rate" instead of consuming the listener-wide
	// identify budget. 0 = unlimited.
	TenantIdentifyRPS   float64
	TenantIdentifyBurst int
	// SendQueue bounds each session's event queue, the one buffer
	// between the platform and the session's socket writer
	// (default 512).
	SendQueue int
	// SlowConsumer picks what happens when a session's event queue is
	// full (default SlowBlock).
	SlowConsumer SlowConsumerPolicy
	// WriteTimeout is the deadline applied to every socket write and to
	// a control frame's enqueue (default 5s). A session that cannot
	// absorb a frame within it is disconnected instead of wedging the
	// server.
	WriteTimeout time.Duration
	// HeartbeatTimeout, when positive, is the read deadline for each
	// frame: a session that sends nothing (heartbeat or otherwise) for
	// this long is closed as heartbeat_timeout — the server-side half of
	// the heartbeat contract. 0 disables reaping.
	HeartbeatTimeout time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.SendQueue <= 0 {
		l.SendQueue = 512
	}
	if l.WriteTimeout <= 0 {
		l.WriteTimeout = 5 * time.Second
	}
	if l.IdentifyBurst <= 0 {
		l.IdentifyBurst = 8
	}
	if l.TenantBurst <= 0 {
		l.TenantBurst = 16
	}
	if l.TenantIdentifyBurst <= 0 {
		l.TenantIdentifyBurst = 4
	}
	return l
}

// bucket is a mutex-guarded token bucket shared by the per-session,
// per-tenant, and identify throttles.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take consumes one token at the given refill rate, returning the
// suggested wait when the bucket is empty. A non-positive rps always
// admits.
func (b *bucket) take(rps, burst float64) (time.Duration, bool) {
	if rps <= 0 {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens += now.Sub(b.last).Seconds() * rps
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		deficit := 1 - b.tokens
		return time.Duration(deficit / rps * float64(time.Second)), true
	}
	b.tokens--
	return 0, false
}
