package scraper

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestClientConfigWiring pins what the deleted positional constructor's
// parity test used to: every ClientConfig field lands on the client,
// defaults apply, and malformed input is rejected — so callers migrated
// off NewClientLegacy keep identical behaviour.
func TestClientConfigWiring(t *testing.T) {
	solver := &TwoCaptchaSim{CostPerSolve: 299}
	const (
		base    = "http://listing.test:8080"
		timeout = 750 * time.Millisecond
	)

	c, err := NewClient(ClientConfig{
		BaseURL: base,
		Timeout: timeout,
		Solver:  solver,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	if got := c.base.String(); got != base {
		t.Errorf("base URL = %q, want %q", got, base)
	}
	if got := c.timeout; got != timeout {
		t.Errorf("http timeout = %v, want %v", got, timeout)
	}
	if c.solver != Solver(solver) {
		t.Errorf("solver not passed through: %v", c.solver)
	}

	// Omitting Obs routes metrics to the default registry: two clients
	// built that way must share the very same counter handles.
	c2, err := NewClient(ClientConfig{BaseURL: base})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if c.cRequests != c2.cRequests {
		t.Error("request counters differ — default-registry clients should share counters")
	}
	if c.hFetch != c2.hFetch {
		t.Error("fetch histograms differ — default-registry clients should share histograms")
	}

	// An explicit registry isolates the counters.
	reg := obs.NewRegistry()
	c3, err := NewClient(ClientConfig{BaseURL: base, Obs: reg})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if c3.cRequests == c.cRequests {
		t.Error("explicit-registry client shares counters with the default registry")
	}

	if _, err := NewClient(ClientConfig{BaseURL: "http://bad url\x7f"}); err == nil {
		t.Error("constructor accepted a malformed base URL")
	}
}
