package faults

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	})
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, string(b), err
}

func TestLedgerDeterminism(t *testing.T) {
	prof := Profile{
		Name:    "test",
		Default: Rates{ServerError: 0.2, ConnReset: 0.1, TruncatedBody: 0.1},
	}
	run := func() string {
		inj := New(prof, 99, Options{Obs: obs.NewRegistry()})
		for n := 0; n < 50; n++ {
			inj.httpDecide("GET", "/bots?page=1", "/bots")
			inj.httpDecide("GET", "/bot/7", "/bot/7")
			inj.EventFault("melonian")
		}
		var buf bytes.Buffer
		if err := inj.WriteLedger(&buf); err != nil {
			t.Fatalf("WriteLedger: %v", err)
		}
		return buf.String()
	}
	// EventFault with zero gateway rates must not consume decisions.
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed+profile produced different ledgers:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("20%+ rates over 100 requests fired no faults — decision logic broken")
	}

	// A different seed must (for this pair) give a different schedule.
	inj2 := New(prof, 100, Options{Obs: obs.NewRegistry()})
	for n := 0; n < 50; n++ {
		inj2.httpDecide("GET", "/bots?page=1", "/bots")
		inj2.httpDecide("GET", "/bot/7", "/bot/7")
	}
	var buf2 bytes.Buffer
	inj2.WriteLedger(&buf2)
	if buf2.String() == a {
		t.Fatal("different seeds produced identical ledgers")
	}
}

func TestMiddlewareServerError(t *testing.T) {
	// Rate 1.0 → every request takes the fault.
	inj := New(Profile{Default: Rates{ServerError: 1}}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("hello")))
	defer srv.Close()

	resp, body, err := get(t, srv.Client(), srv.URL+"/page")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "server_error") {
		t.Fatalf("body = %q", body)
	}
	if inj.Count() != 1 {
		t.Fatalf("Count = %d, want 1", inj.Count())
	}
}

func TestMiddlewareConnReset(t *testing.T) {
	inj := New(Profile{Default: Rates{ConnReset: 1}}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("hello")))
	defer srv.Close()

	_, _, err := get(t, srv.Client(), srv.URL+"/page")
	if err == nil {
		t.Fatal("expected a transport error from the injected reset")
	}
}

func TestMiddlewareTruncatedBody(t *testing.T) {
	inj := New(Profile{Default: Rates{TruncatedBody: 1}}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler(strings.Repeat("x", 4096))))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/page")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (truncation hits the body, not the status)", resp.StatusCode)
	}
	_, err = io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("reading a truncated body should fail")
	}
}

func TestMiddlewareLatencyStillServes(t *testing.T) {
	inj := New(Profile{Default: Rates{Latency: 1}, ExtraLatency: 10 * time.Millisecond}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("hello")))
	defer srv.Close()

	start := time.Now()
	resp, body, err := get(t, srv.Client(), srv.URL+"/page")
	if err != nil || resp.StatusCode != http.StatusOK || body != "hello" {
		t.Fatalf("latency fault must still serve: %v %v %q", err, resp, body)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("no added latency observed")
	}
}

func TestMiddlewareExemptPaths(t *testing.T) {
	inj := New(Profile{Default: Rates{ServerError: 1}}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("ok")))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/debug/pprof/", "/captcha?x=1"} {
		resp, body, err := get(t, srv.Client(), srv.URL+path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || body != "ok" {
			t.Fatalf("exempt path %s was faulted: %d %q", path, resp.StatusCode, body)
		}
	}
	if inj.Count() != 0 {
		t.Fatalf("exempt traffic was recorded: Count = %d", inj.Count())
	}
}

func TestStallRespectsClientTimeout(t *testing.T) {
	inj := New(Profile{Default: Rates{Stall: 1}, StallFor: 5 * time.Second}, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("hello")))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/page", nil)
	start := time.Now()
	_, err := srv.Client().Do(req)
	if err == nil {
		t.Fatal("expected a timeout against a stalled endpoint")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("stall ignored the client's context (took %v)", time.Since(start))
	}
}

func TestPerEndpointOverrides(t *testing.T) {
	prof := Profile{
		Default:     Rates{},
		PerEndpoint: map[string]Rates{"/bot/": {ServerError: 1}},
	}
	inj := New(prof, 1, Options{Obs: obs.NewRegistry()})
	srv := httptest.NewServer(inj.Middleware(okHandler("ok")))
	defer srv.Close()

	resp, _, err := get(t, srv.Client(), srv.URL+"/bots?page=0")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("default-rate path faulted: %v %v", err, resp)
	}
	resp, _, err = get(t, srv.Client(), srv.URL+"/bot/3")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("per-endpoint override not applied: status = %d", resp.StatusCode)
	}
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range Names() {
		p, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile %q carries name %q", name, p.Name)
		}
		if total := p.Default.total(); total > 1 {
			t.Fatalf("profile %q rates sum to %v > 1", name, total)
		}
	}
	if _, err := Named("hurricane"); err == nil {
		t.Fatal("unknown profile must error")
	}
	none, _ := Named("none")
	inj := New(none, 1, Options{Obs: obs.NewRegistry()})
	for n := 0; n < 200; n++ {
		if k, _ := inj.httpDecide("GET", "/bots", "/bots"); k != "" {
			t.Fatalf("none profile fired %s", k)
		}
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var inj *Injector
	h := inj.Middleware(okHandler("ok"))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, body, err := get(t, srv.Client(), srv.URL+"/p")
	if err != nil || resp.StatusCode != 200 || body != "ok" {
		t.Fatalf("nil middleware altered behavior: %v %v %q", err, resp, body)
	}
	if drop, disc := inj.EventFault("x"); drop || disc {
		t.Fatal("nil EventFault fired")
	}
	if inj.Count() != 0 || inj.Log() != nil {
		t.Fatal("nil injector has state")
	}
}

func TestGatewayEventFaults(t *testing.T) {
	inj := New(Profile{GatewayDropFrame: 0.5, GatewayDisconnect: 0.25}, 7, Options{Obs: obs.NewRegistry()})
	drops, disconnects := 0, 0
	for n := 0; n < 400; n++ {
		drop, disc := inj.EventFault("bot-a")
		if drop {
			drops++
		}
		if disc {
			disconnects++
		}
		if drop && disc {
			t.Fatal("one frame drew two faults")
		}
	}
	if drops < 100 || drops > 300 {
		t.Fatalf("drop rate off: %d/400 at p=0.5", drops)
	}
	if disconnects < 40 || disconnects > 180 {
		t.Fatalf("disconnect rate off: %d/400 at p=0.25", disconnects)
	}
	if inj.Count() != drops+disconnects {
		t.Fatalf("ledger size %d != fired %d", inj.Count(), drops+disconnects)
	}
}
