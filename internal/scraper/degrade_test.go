package scraper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// detailPage renders a minimal bot detail page, optionally without the
// invite anchor.
func detailPage(id int, withInvite bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><body><div id="bot-detail" data-bot-id="%d">
<h1 class="bot-name">bot-%d</h1><p class="description">d</p>
<span class="guild-count">1</span><span class="vote-count">1</span>
<span class="prefix">!</span>`, id, id)
	if withInvite {
		fmt.Fprintf(&b, `<a class="invite" href="/oauth/authorize?bot_id=%d&amp;permissions=1">Invite</a>`, id)
	}
	b.WriteString(`</div></body></html>`)
	return b.String()
}

func listingPage(ids ...int) string {
	var b strings.Builder
	b.WriteString(`<html><body><ul>`)
	for _, id := range ids {
		fmt.Fprintf(&b, `<li class="bot-card" data-bot-id="%d">bot-%d</li>`, id, id)
	}
	b.WriteString(`</ul></body></html>`)
	return b.String()
}

// TestIncompleteWhenInviteNeverRenders is the regression test for the
// silent permission-less record: a detail page whose invite element is
// missing on every render must yield a record marked Incomplete after
// retries are exhausted, not a clean-looking invalid record.
func TestIncompleteWhenInviteNeverRenders(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/bot/") {
			io.WriteString(w, detailPage(7, false))
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	rec, err := ScrapeBotContext(context.Background(), c, 7, 2)
	if err != nil {
		t.Fatalf("ScrapeBotContext: %v", err)
	}
	if !rec.Incomplete {
		t.Fatal("record not marked Incomplete though the invite never rendered")
	}
	if rec.InvalidReason != InvalidMissingLink {
		t.Fatalf("InvalidReason = %q, want %q", rec.InvalidReason, InvalidMissingLink)
	}
	if c.Stats().Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (every retry consumed)", c.Stats().Retries)
	}

	// Control: with the invite present, the record is complete.
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(7, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv2.Close()
	c2 := newTestClient(t, srv2.URL, nil)
	rec2, err := ScrapeBotContext(context.Background(), c2, 7, 2)
	if err != nil {
		t.Fatalf("ScrapeBotContext: %v", err)
	}
	if rec2.Incomplete {
		t.Fatal("complete record wrongly marked Incomplete")
	}
	if !rec2.PermsValid {
		t.Fatal("control record should have valid permissions")
	}
}

// TestCrawlQuarantinesFailingBot: one bot's detail endpoint is a
// permanent 503 storm. The lenient crawl must return every other
// record and quarantine exactly that bot; the strict crawl must abort.
func TestCrawlQuarantinesFailingBot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bots"):
			io.WriteString(w, listingPage(1, 2, 3))
		case r.URL.Path == "/bot/2":
			http.Error(w, "storm", http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(99, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	recs, quarantined, _, err := crawl(context.Background(), c, Config{Retries: 1}, 2)
	if err != nil {
		t.Fatalf("lenient crawl errored: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if len(quarantined) != 1 || quarantined[2] == nil {
		t.Fatalf("quarantined = %v, want bot 2 only", quarantined)
	}
	if !errors.Is(quarantined[2], ErrUnavailable) {
		t.Fatalf("quarantine error = %v, want ErrUnavailable", quarantined[2])
	}

	// Strict mode restores the historical abort-on-first-failure.
	c2 := newTestClient(t, srv.URL, nil)
	if _, err := crawlStrict(c2, Config{Retries: 1}, 2); err == nil {
		t.Fatal("strict crawl should abort on the failing bot")
	}
}

// TestPartialListingSurvives: pagination dies on page 2; the lenient
// crawl still scrapes everything page 1 discovered and reports ListErr.
func TestPartialListingSurvives(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/bots"):
			if r.URL.Query().Get("page") == "1" {
				io.WriteString(w, listingPage(1, 2)+`<a id="next-page" href="/bots?page=2">Next</a>`)
				return
			}
			http.Error(w, "storm", http.StatusServiceUnavailable)
		case strings.HasPrefix(r.URL.Path, "/bot/"):
			io.WriteString(w, detailPage(1, true))
		case r.URL.Path == "/oauth/authorize":
			io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	recs, _, listErr, err := crawl(context.Background(), c, Config{Retries: 1}, 2)
	if err != nil {
		t.Fatalf("lenient crawl errored: %v", err)
	}
	if listErr == nil {
		t.Fatal("listErr not set for a dead page 2")
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want the 2 bots page 1 listed", len(recs))
	}

	// Strict mode propagates the pagination failure.
	c2 := newTestClient(t, srv.URL, nil)
	if _, err := crawlStrict(c2, Config{Retries: 1}, 2); err == nil {
		t.Fatal("strict crawl should fail on a dead listing page")
	}
}

// TestCrawlCancellationStillAborts: lenient mode never swallows
// context cancellation.
func TestCrawlCancellationStillAborts(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/bots") {
			io.WriteString(w, listingPage(1, 2, 3))
			return
		}
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, _, err := crawl(ctx, c, Config{Retries: 1}, 2)
	if err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
}

// TestStalledPageIsRepeated: the first fetch of a detail, site or policy
// page stalls past the client timeout. The site delays only invite
// redirects, so the scraper repeats the fetch once instead of
// quarantining the bot or reading the policy link as dead.
func TestStalledPageIsRepeated(t *testing.T) {
	for _, stalled := range []string{"/bot/7", "/site/7", "/policy/7"} {
		t.Run(strings.TrimPrefix(stalled, "/"), func(t *testing.T) {
			var stalledOnce atomic.Bool
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == stalled && !stalledOnce.Swap(true) {
					<-r.Context().Done() // the client gives up first
					return
				}
				switch r.URL.Path {
				case "/bot/7":
					io.WriteString(w, strings.Replace(detailPage(7, true),
						"</div>", `<a class="website" href="/site/7">site</a></div>`, 1))
				case "/oauth/authorize":
					io.WriteString(w, `<html><body><div id="consent"><span id="perm-value">1</span></div></body></html>`)
				case "/site/7":
					io.WriteString(w, `<html><body><a id="privacy-link" href="/policy/7">Privacy</a></body></html>`)
				case "/policy/7":
					io.WriteString(w, `<html><body><div id="privacy-policy"><pre>We store your messages.</pre></div></body></html>`)
				default:
					http.NotFound(w, r)
				}
			}))
			defer srv.Close()

			c := newTestClient(t, srv.URL, nil)
			rec, err := ScrapeBotContext(context.Background(), c, 7, 2)
			if err != nil {
				t.Fatalf("ScrapeBotContext: %v", err)
			}
			if rec.Incomplete || !rec.PermsValid {
				t.Fatalf("record incomplete=%v perms valid=%v, want a complete valid record", rec.Incomplete, rec.PermsValid)
			}
			if !rec.PolicyLinkFound || rec.PolicyLinkDead || rec.PolicyText == "" {
				t.Fatalf("policy found=%v dead=%v text=%q, want a live policy", rec.PolicyLinkFound, rec.PolicyLinkDead, rec.PolicyText)
			}
			if st := c.Stats(); st.Timeouts != 1 || st.Retries != 1 {
				t.Fatalf("Timeouts %d, Retries %d; want 1 and 1", st.Timeouts, st.Retries)
			}
		})
	}
}

// TestStalledListingPageIsRepeated: the first fetch of listing page 2
// stalls past the client timeout. The site never delays listing pages,
// so pagination repeats the fetch once instead of ending with a partial
// listing.
func TestStalledListingPageIsRepeated(t *testing.T) {
	var stalledOnce atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("page") {
		case "1":
			io.WriteString(w, listingPage(1, 2)+`<a id="next-page" href="/bots?page=2">Next</a>`)
		case "2":
			if !stalledOnce.Swap(true) {
				<-r.Context().Done() // the client gives up first
				return
			}
			io.WriteString(w, listingPage(3, 4))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	ids, err := ListBotIDsContext(context.Background(), c)
	if err != nil {
		t.Fatalf("ListBotIDsContext: %v (listed %v)", err, ids)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("listed %v, want %v", ids, want)
	}
	if st := c.Stats(); st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("Timeouts %d, Retries %d; want 1 and 1", st.Timeouts, st.Retries)
	}
}
