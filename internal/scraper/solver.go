// Package scraper implements the paper's data-collection stage (§3): a
// crawler over the chatbot listing site that extracts every bot's
// attributes, survives the site's anti-scraping measures — rate limits,
// captcha challenges, flaky elements, slow redirects — and emits one
// record per bot, including the decoded permission set from the invite
// consent page and the privacy policy text from the bot's website.
package scraper

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Solver answers captcha challenges. The paper used the paid 2Captcha
// service "due to its affordability and quick solving time".
type Solver interface {
	// Solve returns the answer text for a challenge prompt. Its waits
	// (network round-trips, simulated solving latency) abort as soon as
	// ctx is done.
	Solve(ctx context.Context, challenge string) (string, error)
}

// ErrUnsolvable is returned when a solver cannot parse the challenge.
var ErrUnsolvable = errors.New("scraper: unsolvable captcha challenge")

// TwoCaptchaSim simulates a paid solving service: it parses the
// arithmetic prompt, waits a configurable latency (their "quick solving
// time"), and accrues per-solve cost so experiments can report spend.
type TwoCaptchaSim struct {
	// Latency per solve; defaults to 0 for tests.
	Latency time.Duration
	// CostPerSolve in millicents (2Captcha charges ~$2.99/1000).
	CostPerSolve int

	mu     sync.Mutex
	solved int
	cost   int
}

var challengePattern = regexp.MustCompile(`what is (\d+) plus (\d+)`)

// Solve implements Solver: the simulated solving latency aborts as soon
// as ctx is cancelled.
func (s *TwoCaptchaSim) Solve(ctx context.Context, challenge string) (string, error) {
	m := challengePattern.FindStringSubmatch(challenge)
	if m == nil {
		return "", ErrUnsolvable
	}
	if err := obs.SleepContext(ctx, s.Latency); err != nil {
		return "", err
	}
	a, _ := strconv.Atoi(m[1])
	b, _ := strconv.Atoi(m[2])
	s.mu.Lock()
	s.solved++
	s.cost += s.CostPerSolve
	s.mu.Unlock()
	return strconv.Itoa(a + b), nil
}

// Solved returns how many challenges were answered.
func (s *TwoCaptchaSim) Solved() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solved
}

// Cost returns the accrued spend in millicents.
func (s *TwoCaptchaSim) Cost() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

// FailingSolver always errors — used to test crawler behaviour when the
// solving service is down.
type FailingSolver struct{}

// Solve implements Solver; a cancelled ctx wins over the outage.
func (FailingSolver) Solve(ctx context.Context, _ string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("scraper: solver unavailable")
}
