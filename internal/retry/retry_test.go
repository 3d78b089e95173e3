package retry

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Seed:        7,
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want MaxAttempts=4", calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return Permanent(errBoom)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("permanent error must not be reported as exhaustion: %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"7", 7 * time.Second, true},
		{"-3", 0, false},
		{"soon", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}

	// HTTP-date form: a date ~2s out parses to roughly that wait.
	future := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	got, ok := ParseRetryAfter(future)
	if !ok || got <= 0 || got > 3*time.Second {
		t.Fatalf("ParseRetryAfter(http-date) = (%v, %v), want ~2s", got, ok)
	}
	// A past date clamps to zero rather than going negative.
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	got, ok = ParseRetryAfter(past)
	if !ok || got != 0 {
		t.Fatalf("ParseRetryAfter(past http-date) = (%v, %v), want (0, true)", got, ok)
	}
}

func TestRetryAfterHonoredAndCapped(t *testing.T) {
	p := fastPolicy()
	p.RetryAfterCap = 30 * time.Millisecond
	p.Jitter = 0
	p.MaxAttempts = 2

	start := time.Now()
	err := Do(context.Background(), p, func(context.Context) error {
		return After(errBoom, 20*time.Millisecond)
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("elapsed %v: Retry-After hint of 20ms not honored", elapsed)
	}

	// A huge hint is clamped to RetryAfterCap, not slept in full.
	start = time.Now()
	err = Do(context.Background(), p, func(context.Context) error {
		return After(errBoom, time.Hour)
	})
	elapsed = time.Since(start)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("elapsed %v: hour-long Retry-After was not capped", elapsed)
	}
}

func TestContextCancellationMidBackoff(t *testing.T) {
	p := fastPolicy()
	p.BaseDelay = 5 * time.Second // force a long backoff we cancel out of
	p.MaxAttempts = 3

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Do(ctx, p, func(context.Context) error { return errBoom })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancellation did not interrupt backoff (took %v)", time.Since(start))
	}
}

func TestContextErrorFromFnNotRetried(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return context.DeadlineExceeded
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (context errors are terminal)", calls)
	}
}

func TestDeterministicJitter(t *testing.T) {
	p := Policy{
		MaxAttempts: 8,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.4,
		Seed:        42,
	}
	a := PreviewDelays(p, 6)
	b := PreviewDelays(p, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Jitter stays within the symmetric band around the nominal delay.
	nominal := []time.Duration{10, 20, 40, 80, 100, 100}
	for i, d := range a {
		n := nominal[i] * time.Millisecond
		lo := time.Duration(float64(n) * 0.8)
		hi := time.Duration(float64(n) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("delay[%d] = %v outside jitter band [%v, %v]", i, d, lo, hi)
		}
	}
	// A different seed should (for this seed pair) give a different schedule.
	p2 := p
	p2.Seed = 43
	c := PreviewDelays(p2, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestZeroJitterExactSchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2}
	got := PreviewDelays(p, 4)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFirstTrySuccessDoesNotAllocate pins the lazy jitter rng: a Do
// whose first attempt succeeds never seeds one.
func TestFirstTrySuccessDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	p := Policy{MaxAttempts: 61, Jitter: 0.25, Seed: 42}
	ok := func(context.Context) error { return nil }
	if n := testing.AllocsPerRun(100, func() { Do(ctx, p, ok) }); n != 0 {
		t.Errorf("Do allocs = %v, want 0", n)
	}
}

// TestJitterScheduleUnchanged pins one jittered schedule to the values
// an rng seeded before the first attempt produced, so seeding it at
// the first retry cannot shift any draw.
func TestJitterScheduleUnchanged(t *testing.T) {
	p := Policy{
		BaseDelay:  10 * time.Millisecond,
		MaxDelay:   100 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.4,
		Seed:       42,
	}
	want := []time.Duration{9492113, 16528003, 41665501, 70682198, 81752738, 95327731}
	got := PreviewDelays(p, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
