package listing

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AntiScrape configures the countermeasures the listing server deploys,
// mirroring §3's list: request rate limits, captchas, and unstable page
// structure.
type AntiScrape struct {
	// RequestsPerSecond is the per-client sustained budget; 0 disables
	// rate limiting.
	RequestsPerSecond float64
	// Burst is the token-bucket depth (default 10 when limiting).
	Burst int
	// CaptchaEvery issues a captcha challenge to a client after every N
	// successful requests; 0 disables captchas.
	CaptchaEvery int
	// FlakyEvery makes every Nth detail-page render omit its
	// permissions block, modelling "elements unexpectedly becoming
	// unavailable" (NoSuchElementException); 0 disables.
	FlakyEvery int
	// SlowRedirectDelay is how long InviteSlow install pages stall
	// before redirecting (default 3s).
	SlowRedirectDelay time.Duration
}

// captchaChallenge is an arithmetic puzzle; solving it grants a pass
// token. Trivially machine-solvable — so is the economics of 2Captcha.
type captchaChallenge struct {
	id     string
	a, b   int
	answer int
}

// clientState tracks one client's bucket and captcha standing.
type clientState struct {
	tokens     float64
	lastRefill time.Time
	served     int
	challenge  *captchaChallenge
	passes     map[string]bool
}

// guard enforces AntiScrape per client key (remote IP).
type guard struct {
	cfg AntiScrape

	mu      sync.Mutex
	clients map[string]*clientState
	rng     *rand.Rand
	nextID  int
	now     func() time.Time
}

func newGuard(cfg AntiScrape, now func() time.Time) *guard {
	if now == nil {
		now = time.Now
	}
	if cfg.Burst == 0 {
		cfg.Burst = 10
	}
	if cfg.SlowRedirectDelay == 0 {
		cfg.SlowRedirectDelay = 3 * time.Second
	}
	return &guard{
		cfg:     cfg,
		clients: make(map[string]*clientState),
		rng:     rand.New(rand.NewSource(99)),
		now:     now,
	}
}

func (g *guard) state(key string) *clientState {
	st, ok := g.clients[key]
	if !ok {
		st = &clientState{tokens: float64(g.cfg.Burst), lastRefill: g.now(), passes: make(map[string]bool)}
		g.clients[key] = st
	}
	return st
}

// verdict of an admission check.
type verdict int

const (
	admit verdict = iota
	throttled
	challenged
)

// admitRequest applies rate limiting and captcha policy for one request.
// A request carrying a valid pass token skips the captcha check once.
func (g *guard) admitRequest(key, pass string) (verdict, *captchaChallenge) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state(key)

	if g.cfg.RequestsPerSecond > 0 {
		now := g.now()
		elapsed := now.Sub(st.lastRefill).Seconds()
		st.lastRefill = now
		st.tokens += elapsed * g.cfg.RequestsPerSecond
		if st.tokens > float64(g.cfg.Burst) {
			st.tokens = float64(g.cfg.Burst)
		}
		if st.tokens < 1 {
			return throttled, nil
		}
		st.tokens--
	}

	if st.challenge != nil {
		if pass != "" && st.passes[pass] {
			delete(st.passes, pass)
			st.challenge = nil
		} else {
			return challenged, st.challenge
		}
	}

	st.served++
	if g.cfg.CaptchaEvery > 0 && st.served%g.cfg.CaptchaEvery == 0 {
		g.nextID++
		ch := &captchaChallenge{
			id: fmt.Sprintf("ch%06d", g.nextID),
			a:  g.rng.Intn(90) + 10,
			b:  g.rng.Intn(90) + 10,
		}
		ch.answer = ch.a + ch.b
		st.challenge = ch
	}
	return admit, nil
}

// solve checks a captcha answer and, if correct, mints a pass token.
func (g *guard) solve(key, challengeID string, answer int) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state(key)
	if st.challenge == nil || st.challenge.id != challengeID || st.challenge.answer != answer {
		return "", false
	}
	g.nextID++
	pass := fmt.Sprintf("pass%06d", g.nextID)
	st.passes[pass] = true
	return pass, true
}

func clientKey(r *http.Request) string {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	// Scrapers may present a session header so tests can simulate
	// distinct clients from one address.
	if sid := r.Header.Get("X-Session"); sid != "" {
		return host + "/" + sid
	}
	return host
}

// renderCaptcha writes the challenge page.
func renderCaptcha(w http.ResponseWriter, ch *captchaChallenge) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusForbidden)
	fmt.Fprintf(w, `<html><body>
<div id="captcha" data-challenge-id="%s">
  <p class="challenge-text">Prove you are human: what is %d plus %d?</p>
  <form action="/captcha" method="POST">
    <input type="hidden" name="challenge_id" value="%s">
    <input type="text" name="answer">
  </form>
</div></body></html>`, ch.id, ch.a, ch.b, ch.id)
}

// parseChallenge extracts the operands from a rendered challenge page —
// exported-for-scraper logic lives in the scraper's solver; here only
// the server-side form handler needs parsing helpers.
func parseAnswer(s string) (int, bool) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	return v, err == nil
}
