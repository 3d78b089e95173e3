package leakcheck

import (
	"flag"
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

// TestFuzzingRunIsNotChecked: Main skips the check when the flag that
// go test -fuzz sets is set, and only then.
func TestFuzzingRunIsNotChecked(t *testing.T) {
	defer flag.Set("test.fuzz", flag.Lookup("test.fuzz").Value.String())
	for _, pattern := range []string{"", "^FuzzX$"} {
		if err := flag.Set("test.fuzz", pattern); err != nil {
			t.Fatal(err)
		}
		if got, want := fuzzing(), pattern != ""; got != want {
			t.Errorf("fuzzing() = %v with -test.fuzz=%q, want %v", got, pattern, want)
		}
	}
}
