package scraper

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/htmlparse"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/retry"
)

// Client is a captcha-capable HTTP fetcher for one target site. It
// backs off when the site throttles it (§3: "we limit the rate at which
// we generate our requests"), mimics a browser user agent, and reacts
// to challenge pages by calling the solver and retrying. Each fetch makes
// at most fetchAttempts tries, of which at most transportRetries may
// retry a transport fault. Every wait is cancellation-aware: pass a
// context via the *Context methods to abort a crawl mid-backoff.
//
// The client speaks plain HTTP/1.1 over its own pool of keep-alive
// connections. Each request is one synchronous exchange on the
// fetching goroutine, which writes the request, reads the response and
// follows redirects itself; no goroutine runs per connection or per
// request. CloseIdleConnections releases the pool.
type Client struct {
	base    *url.URL
	timeout time.Duration
	conns   connPool
	solver  Solver
	session string

	mu    sync.Mutex
	pass  string
	stats Stats

	// observability
	cRequests    *obs.Counter
	cThrottle    *obs.Counter
	cCaptchas    *obs.Counter
	cTimeouts    *obs.Counter
	cRetries     *obs.Counter
	cTransient   *obs.Counter
	cQuarantined *obs.Counter
	hFetch       *obs.Histogram
}

// ClientConfig configures a Client — the one-struct replacement for the
// old four-positional-argument constructor.
type ClientConfig struct {
	// BaseURL is the site root every relative ref resolves against.
	BaseURL string
	// Timeout bounds each fetch; zero means no client-side deadline.
	Timeout time.Duration
	// Solver answers captcha challenges; nil fails on captchas.
	Solver Solver
	// Obs receives the client's counters and fetch-latency histogram;
	// nil uses the process-default registry.
	Obs *obs.Registry
}

// Stats counts crawler-side events, the operational numbers a
// measurement paper reports.
type Stats struct {
	Requests       int
	Throttled      int
	CaptchasSolved int
	Timeouts       int
	Retries        int
	// TransientRetries counts retries of transport-level faults (5xx,
	// resets, truncated bodies) — the degradation the chaos harness
	// injects.
	TransientRetries int
}

// ErrTimeout marks a fetch that exceeded the client deadline — the
// scraper's TimeoutException.
var ErrTimeout = errors.New("scraper: request timed out")

// ErrGone marks 404/410 responses.
var ErrGone = errors.New("scraper: resource gone")

// ErrUnavailable marks a fetch abandoned because transient transport
// faults (5xx, resets, truncated bodies) exhausted their retries — an
// infrastructure failure, not a property of the resource.
var ErrUnavailable = errors.New("scraper: endpoint unavailable after retries")

// errStaleChallenge marks a captcha answer for a challenge another
// worker already cleared; the request is simply retried.
var errStaleChallenge = errors.New("scraper: stale captcha challenge")

// isInfraErr reports whether err is an infrastructure failure — the
// endpoint could not be reached within the retry policy — as opposed
// to a definitive response about the resource (gone, forbidden, slow).
func isInfraErr(err error) bool {
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, retry.ErrExhausted)
}

// maxIdleConnsPerHost caps how many idle connections the client's pool
// keeps per host. The sharded executor runs one fetcher per shard
// against a single listing host, so up to 64 concurrent fetchers each
// find an idle connection; a connection returned to a full pool is
// closed.
const maxIdleConnsPerHost = 64

// Per-fetch retry limits. A fetch makes at most fetchAttempts tries in
// all, throttled and captcha-challenged ones included; at most
// transportRetries of its retries may answer a transient transport
// fault (5xx, reset, truncated body) before it fails as ErrUnavailable.
const (
	fetchAttempts    = 61
	transportRetries = 3
)

// NewClient builds a client from a ClientConfig.
func NewClient(cfg ClientConfig) (*Client, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("scraper: bad base url: %w", err)
	}
	reg := obs.Or(cfg.Obs)
	return &Client{
		base:         u,
		timeout:      cfg.Timeout,
		solver:       cfg.Solver,
		session:      fmt.Sprintf("s%d", time.Now().UnixNano()),
		cRequests:    reg.Counter("scraper_requests_total"),
		cThrottle:    reg.Counter("scraper_throttled_total"),
		cCaptchas:    reg.Counter("scraper_captcha_solves_total"),
		cTimeouts:    reg.Counter("scraper_timeouts_total"),
		cRetries:     reg.Counter("scraper_retries_total"),
		cTransient:   reg.Counter("scraper_transient_retries_total"),
		cQuarantined: reg.Counter("scraper_bots_quarantined_total"),
		hFetch:       reg.Histogram("scraper_fetch_seconds"),
	}, nil
}

// Stats returns a copy of the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// GetContext fetches a path (or absolute URL) and parses the response
// body as HTML, transparently solving captchas and backing off on rate
// limits.
func (c *Client) GetContext(ctx context.Context, ref string) (*htmlparse.Node, error) {
	body, err := c.GetRawContext(ctx, ref)
	if err != nil {
		return nil, err
	}
	return htmlparse.Parse(body), nil
}

// Retryable-failure classes GetRawContext distinguishes. Throttling
// (429) is the site pacing us and may use every one of the fetch's
// attempts; transient transport faults (5xx, resets, truncated bodies)
// are network weather and get a small per-fetch allowance; captcha
// challenges are handled by the solver and merely repeat the request.
var errThrottled = errors.New("scraper: throttled (429)")

// transientError tags a retryable transport-level failure.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// captchaChallenge carries a challenge page back to the retry loop.
type captchaChallenge struct{ node *htmlparse.Node }

func (e *captchaChallenge) Error() string { return "scraper: captcha challenge" }

// fetchPolicy is the client's shared backoff shape: exponential from
// 40ms to 800ms with ±12.5% jitter, seeded per-ref so schedules are
// reproducible. Retry-After hints are honored but clamped — the
// synthetic site asks for a full second, which no polite-but-busy
// crawler grants in full.
func fetchPolicy(ref string) retry.Policy {
	h := fnv.New64a()
	io.WriteString(h, ref)
	return retry.Policy{
		MaxAttempts:   fetchAttempts,
		BaseDelay:     40 * time.Millisecond,
		MaxDelay:      800 * time.Millisecond,
		Multiplier:    2,
		Jitter:        0.25,
		Seed:          int64(h.Sum64()),
		RetryAfterCap: 120 * time.Millisecond,
	}
}

// GetRawContext is GetRaw with cancellation: every retry backoff and
// the request itself abort as soon as ctx is done. Retries run through
// internal/retry — jittered exponential backoff with Retry-After
// honoring — within fetchAttempts tries, of which transient transport
// faults may retry at most transportRetries.
func (c *Client) GetRawContext(ctx context.Context, ref string) (string, error) {
	transientLeft := transportRetries
	attempts := 0
	var body string
	err := retry.Do(ctx, fetchPolicy(ref), func(ctx context.Context) error {
		attempts++
		opName := "page_fetch"
		if attempts > 1 {
			opName = "retry_attempt"
		}
		endOp := trace.StartOpDetail(ctx, opName, ref)
		out, err := c.fetchOnce(ctx, ref)
		endOp()
		if err == nil {
			body = out
			return nil
		}
		var ch *captchaChallenge
		if errors.As(err, &ch) {
			endSolve := trace.StartOpDetail(ctx, "captcha_solve", ref)
			serr := c.solveCaptcha(ctx, ch.node)
			endSolve()
			if serr != nil && !errors.Is(serr, errStaleChallenge) {
				// A stale challenge just means another worker cleared
				// the gate — anything else is fatal for this fetch.
				return retry.Permanent(serr)
			}
			return err // retry the request with the fresh pass
		}
		var te *transientError
		if errors.As(err, &te) {
			if transientLeft <= 0 {
				return retry.Permanent(fmt.Errorf("%w: %s: %v", ErrUnavailable, ref, te.err))
			}
			transientLeft--
			c.count(func(s *Stats) { s.TransientRetries++ })
			c.cTransient.Inc()
		}
		return err
	})
	if err != nil {
		return "", err
	}
	journal.Emit(ctx, "scraper", journal.KindPageFetched, map[string]any{
		"ref":      ref,
		"status":   http.StatusOK,
		"bytes":    len(body),
		"attempts": attempts,
	})
	return body, nil
}

// fetchOnce performs a single request and classifies the outcome:
// nil on a 200, a captchaChallenge on a challenge page, errThrottled
// (with its Retry-After hint) on 429, a transientError on 5xx or
// non-timeout transport failures, and a permanent error otherwise.
func (c *Client) fetchOnce(ctx context.Context, ref string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	u, err := url.Parse(ref)
	if err != nil {
		return "", retry.Permanent(fmt.Errorf("scraper: bad ref %q: %w", ref, err))
	}
	req := request{method: http.MethodGet, url: c.base.ResolveReference(u)}
	c.mu.Lock()
	c.stats.Requests++
	req.pass, c.pass = c.pass, ""
	c.mu.Unlock()
	c.cRequests.Inc()

	fetchStart := time.Now()
	resp, body, err := c.do(ctx, req)
	if resp != nil {
		c.hFetch.Observe(time.Since(fetchStart))
	}
	if err != nil {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if isTimeout(err) {
			c.count(func(s *Stats) { s.Timeouts++ })
			c.cTimeouts.Inc()
			return "", retry.Permanent(fmt.Errorf("%w: %s", ErrTimeout, ref))
		}
		if resp == nil {
			return "", &transientError{fmt.Errorf("scraper: get %s: %w", ref, err)}
		}
		// A body that dies mid-read (truncation, reset) is transient.
		return "", &transientError{fmt.Errorf("scraper: read %s: %w", ref, err)}
	}

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		c.count(func(s *Stats) { s.Throttled++ })
		c.cThrottle.Inc()
		hint, _ := retry.ParseRetryAfter(resp.Header.Get("Retry-After"))
		return "", retry.After(fmt.Errorf("%w: %s", errThrottled, ref), hint)
	case resp.StatusCode == http.StatusForbidden:
		doc := htmlparse.Parse(string(body))
		if ch := doc.ByID("captcha"); ch != nil {
			return "", &captchaChallenge{node: ch}
		}
		return "", retry.Permanent(fmt.Errorf("scraper: forbidden: %s", ref))
	case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone:
		return "", retry.Permanent(fmt.Errorf("%w: %s (%d)", ErrGone, ref, resp.StatusCode))
	case resp.StatusCode == http.StatusBadRequest:
		return "", retry.Permanent(fmt.Errorf("%w: %s (400)", ErrGone, ref))
	case resp.StatusCode >= 500:
		return "", &transientError{fmt.Errorf("scraper: %s: server error %d", ref, resp.StatusCode)}
	case resp.StatusCode != http.StatusOK:
		return "", retry.Permanent(fmt.Errorf("scraper: %s: unexpected status %d", ref, resp.StatusCode))
	}
	return string(body), nil
}

func (c *Client) solveCaptcha(ctx context.Context, ch *htmlparse.Node) error {
	if c.solver == nil {
		return fmt.Errorf("scraper: captcha encountered with no solver configured")
	}
	challengeID, _ := ch.Attr("data-challenge-id")
	prompt := ""
	if p := ch.SelectFirst("p.challenge-text"); p != nil {
		prompt = p.Text()
	}
	answer, err := c.solver.Solve(ctx, prompt)
	if err != nil {
		return fmt.Errorf("scraper: solve captcha: %w", err)
	}
	form := url.Values{"challenge_id": {challengeID}, "answer": {answer}}
	resp, body, err := c.do(ctx, request{
		method: http.MethodPost,
		url:    c.base.ResolveReference(&url.URL{Path: "/captcha"}),
		form:   form.Encode(),
	})
	if resp == nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("scraper: post captcha: %w", err)
	}
	// The status decides, even when the body died mid-read.
	if resp.StatusCode == http.StatusForbidden {
		// The answer was right for a challenge that no longer exists —
		// typical when concurrent workers race one gate.
		return errStaleChallenge
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraper: captcha rejected (%d)", resp.StatusCode)
	}
	doc := htmlparse.Parse(string(body))
	passNode := doc.ByID("captcha-pass")
	if passNode == nil {
		return fmt.Errorf("scraper: captcha response missing pass token")
	}
	pass, _ := passNode.Attr("data-pass")
	if !validHeaderValue(pass) {
		return fmt.Errorf("scraper: captcha pass token %q is not a header value", pass)
	}
	c.mu.Lock()
	c.pass = pass
	c.stats.CaptchasSolved++
	c.mu.Unlock()
	c.cCaptchas.Inc()
	journal.Emit(ctx, "scraper", journal.KindCaptchaSolved, map[string]any{
		"challenge_id": challengeID,
	})
	return nil
}

func (c *Client) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// countRetry records one page retry in both stat systems.
func (c *Client) countRetry() {
	c.count(func(s *Stats) { s.Retries++ })
	c.cRetries.Inc()
}

func isTimeout(err error) bool {
	var ne interface{ Timeout() bool }
	return errors.As(err, &ne) && ne.Timeout()
}

// validHeaderValue reports whether v holds no control byte but tab, so
// that it cannot end or add a header line.
func validHeaderValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if b := v[i]; b < ' ' && b != '\t' || b == 0x7f {
			return false
		}
	}
	return true
}
