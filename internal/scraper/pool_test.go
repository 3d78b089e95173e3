package scraper

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientReusesConnectionsAcrossFetchers pins the client's keep-alive
// pool: 24 concurrent fetchers against one host, as the sharded
// executor runs them, must not open a connection per fetch.
func TestClientReusesConnectionsAcrossFetchers(t *testing.T) {
	const fetchers, fetches = 24, 50
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`<html><body><h1 class="bot-name">x</h1></body></html>`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, fetchers)
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < fetches; j++ {
				if _, err := c.GetContext(context.Background(), "/bot/1"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := opened.Load()
	t.Logf("%d connections opened", n)
	if n > 2*fetchers {
		t.Errorf("%d fetchers opened %d connections for %d fetches, want at most %d",
			fetchers, n, fetchers*fetches, 2*fetchers)
	}
}
