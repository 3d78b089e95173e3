package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

func parkUntil(release chan struct{}) { <-release }

// TestLeftoversNamesCreator leaks a goroutine on purpose and requires
// leftovers to report it by the frame that started it, then to report
// nothing once it has exited.
func TestLeftoversNamesCreator(t *testing.T) {
	before := make(map[string]bool)
	for _, g := range goroutines() {
		before[g.id] = true
	}
	release := make(chan struct{})
	go parkUntil(release)

	left := leftovers(before, 50*time.Millisecond)
	if len(left) != 1 {
		t.Fatalf("leftovers = %+v, want the one parked goroutine", left)
	}
	if by := left[0].createdBy; !strings.Contains(by, "TestLeftoversNamesCreator") || !strings.Contains(by, "leakcheck_test.go:") {
		t.Errorf("created by %q, want this test's frame and file", by)
	}

	close(release)
	if left := leftovers(before, time.Second); len(left) != 0 {
		t.Errorf("leftovers after release = %+v, want none", left)
	}
}
