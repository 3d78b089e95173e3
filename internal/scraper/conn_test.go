package scraper

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/listing"
	"repro/internal/obs"
)

// TestSlowRedirectFollowedWithinTimeout pins the invite redirect. A
// slow invite answers with a 302 to the consent page once the site's
// SlowRedirectDelay has passed. Within the client timeout the crawl
// follows it and reads the bot's permissions; past the timeout the
// invite reads as slow-redirect-timeout.
func TestSlowRedirectFollowedWithinTimeout(t *testing.T) {
	for _, tc := range []struct {
		name           string
		delay, timeout time.Duration
		want           InvalidReason
	}{
		{"within", 50 * time.Millisecond, 2 * time.Second, InvalidNone},
		{"past", 2 * time.Second, 200 * time.Millisecond, InvalidTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, eco := startSite(t, 120, listing.AntiScrape{SlowRedirectDelay: tc.delay})
			var slow *listing.Bot
			for _, b := range eco.Bots {
				if b.InviteHealth == listing.InviteSlow {
					slow = b
					break
				}
			}
			if slow == nil {
				t.Fatal("seed lacks a slow-invite bot")
			}
			c, err := NewClient(ClientConfig{BaseURL: srv.BaseURL(), Timeout: tc.timeout})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := ScrapeBotContext(context.Background(), c, slow.ID, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rec.InvalidReason != tc.want {
				t.Fatalf("reason = %q, want %q", rec.InvalidReason, tc.want)
			}
			wantTimeouts := 0
			if tc.want == InvalidNone {
				if !rec.PermsValid || rec.Perms != slow.Perms {
					t.Fatalf("perms = %v %s, want the consent page's %s", rec.PermsValid, rec.Perms, slow.Perms)
				}
			} else {
				wantTimeouts = 1
				if rec.PermsValid {
					t.Fatal("perms read valid past the timeout")
				}
			}
			if got := c.Stats().Timeouts; got != wantTimeouts {
				t.Fatalf("Timeouts = %d, want %d", got, wantTimeouts)
			}
		})
	}
}

// TestRedirectLoopStopsAfterTenRedirects: a page that redirects to
// itself ends each fetch attempt at its tenth redirect, as
// http.Client's default policy does, and the fetch fails as
// ErrUnavailable once its transport retries are spent.
func TestRedirectLoopStopsAfterTenRedirects(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Redirect(w, r, "/loop", http.StatusFound)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	_, err := c.GetRawContext(context.Background(), "/loop")
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "stopped after 10 redirects") {
		t.Fatalf("err = %v, want ErrUnavailable after 10 redirects", err)
	}
	if got, want := hits.Load(), int64(10*(1+transportRetries)); got != want {
		t.Fatalf("server saw %d requests, want %d", got, want)
	}
	if st := c.Stats(); st.Requests != 1+transportRetries || st.TransientRetries != transportRetries {
		t.Fatalf("Requests %d, TransientRetries %d; want %d and %d",
			st.Requests, st.TransientRetries, 1+transportRetries, transportRetries)
	}
}

// TestCaptchaPassWithLineBreakIsRefused: the pass token comes from the
// site's HTML and goes into a request header. One holding a line break
// fails the captcha solve instead of adding a header to the next
// request.
func TestCaptchaPassWithLineBreakIsRefused(t *testing.T) {
	var injected atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Injected") != "" {
			injected.Store(true)
		}
		if r.URL.Path == "/captcha" {
			io.WriteString(w, `<html><body><span id="captcha-pass" data-pass="p1&#13;&#10;X-Injected: 1"></span></body></html>`)
			return
		}
		w.WriteHeader(http.StatusForbidden)
		io.WriteString(w, `<html><body><div id="captcha" data-challenge-id="c1"><p class="challenge-text">what is 1 plus 2?</p></div></body></html>`)
	}))
	defer srv.Close()

	c := newTestClient(t, srv.URL, &TwoCaptchaSim{})
	_, err := c.GetRawContext(context.Background(), "/bot/1")
	if err == nil || !strings.Contains(err.Error(), "not a header value") {
		t.Fatalf("err = %v, want the pass token refused", err)
	}
	if injected.Load() {
		t.Fatal("the pass token added a header to a request")
	}
}

// TestServerClosedIdleConnIsRedialled: the server closes the client's
// idle connection between two fetches. The second fetch sends its
// request again on a new connection without counting a retry.
func TestServerClosedIdleConnIsRedialled(t *testing.T) {
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `<html><body><p>ok</p></body></html>`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	for i := 1; i <= 2; i++ {
		if _, err := c.GetRawContext(context.Background(), "/page"); err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if i == 1 {
			srv.CloseClientConnections()
		}
	}
	if st := c.Stats(); st.Requests != 2 || st.TransientRetries != 0 {
		t.Fatalf("Requests %d, TransientRetries %d; want 2 and 0", st.Requests, st.TransientRetries)
	}
	if n := opened.Load(); n != 2 {
		t.Fatalf("server saw %d connections, want 2", n)
	}
}

// TestCloseIdleConnectionsClosesEveryConn: once the fetches are done,
// CloseIdleConnections closes every connection the client opened, so
// the server sees each one reach http.StateClosed.
func TestCloseIdleConnectionsClosesEveryConn(t *testing.T) {
	var mu sync.Mutex
	states := make(map[net.Conn]http.ConnState)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond) // overlap the fetchers' requests
		io.WriteString(w, `<html><body><p>ok</p></body></html>`)
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		states[c] = s
		mu.Unlock()
	}
	srv.Start()
	defer srv.Close()

	c := newTestClient(t, srv.URL, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.GetRawContext(context.Background(), "/page"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		open := 0
		for _, s := range states {
			if s != http.StateClosed {
				open++
			}
		}
		seen := len(states)
		mu.Unlock()
		if open == 0 {
			t.Logf("%d connections, all closed", seen)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections not closed 5s after CloseIdleConnections", open, seen)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchResponseSeeds seeds both fetch fuzz targets: a 200 with a
// Content-Length, a chunked 200, a 302 to itself, a truncated body, a
// 429 with Retry-After and a garbage status line.
var fetchResponseSeeds = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 26\r\n\r\n<html><p>detail</p></html>",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\n<html>\r\n7\r\n</html>\r\n0\r\n\r\n",
	"HTTP/1.1 302 Found\r\nLocation: /page\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n<html><p>trunc",
	"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 12\r\n\r\nrate limited",
	"HTTP/1.1 2x0 0K\r\n\r\n",
}

// oneShotClient starts a raw listener that accepts one connection, reads
// one request, writes response, and closes the connection and itself,
// so a retry finds nothing listening. It returns a client for the
// listener under a 200 ms timeout; the test's cleanup closes the
// listener and waits for its goroutine.
func oneShotClient(t *testing.T, response []byte) *Client {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
			conn.Write(response)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-served
	})

	c, err := NewClient(ClientConfig{
		BaseURL: "http://" + ln.Addr().String(),
		Timeout: 200 * time.Millisecond,
		Obs:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.CloseIdleConnections)
	return c
}

// checkFetch runs fetch and fails the test unless it returns within
// 5 s and, when input is a well-formed 200 with a Content-Length,
// returns exactly that body.
func checkFetch(t *testing.T, input []byte, fetch func() (string, error)) {
	type result struct {
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		body, err := fetch()
		done <- result{body, err}
	}()
	limit := time.NewTimer(5 * time.Second)
	defer limit.Stop()
	var res result
	select {
	case res = <-done:
	case <-limit.C:
		t.Fatal("the fetch did not return within 5s")
	}
	if want, ok := contentLengthBody(input); ok && (res.err != nil || res.body != want) {
		t.Fatalf("a 200 with a Content-Length returned %q, %v; want %q", res.body, res.err, want)
	}
}

// FuzzFetchResponse feeds arbitrary bytes to a fetch as the server's
// response, on oneShotClient's one-shot listener. Whatever the input,
// GetRawContext must return within 5 s without panicking, and a
// well-formed 200 with a Content-Length must return exactly its body.
// A failed attempt sits out the retry loop's backoff, so this target
// runs a few inputs per second; FuzzFetchOnce spends its time on one
// attempt.
func FuzzFetchResponse(f *testing.F) {
	for _, seed := range fetchResponseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		c := oneShotClient(t, input)
		checkFetch(t, input, func() (string, error) { return c.GetRawContext(context.Background(), "/page") })
	})
}

// FuzzFetchOnce feeds arbitrary bytes to one crawl attempt,
// (*Client).fetchOnce, on the same one-shot listener: the exchange,
// the status classification and the HTML parse of a 403 page, with no
// retry and so no backoff. It holds the attempt to FuzzFetchResponse's
// two checks.
func FuzzFetchOnce(f *testing.F) {
	for _, seed := range fetchResponseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		c := oneShotClient(t, input)
		checkFetch(t, input, func() (string, error) { return c.fetchOnce(context.Background(), "/page") })
	})
}

// contentLengthBody returns the body of input when input starts with a
// well-formed 200 response whose Content-Length the body fills.
func contentLengthBody(input []byte) (string, bool) {
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(input)), nil)
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength < 0 || len(resp.TransferEncoding) > 0 {
		return "", false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false
	}
	return string(body), true
}
