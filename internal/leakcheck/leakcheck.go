// Package leakcheck fails a test binary whose tests leave goroutines
// running, so that no goroutine outlives the test that started it. A
// package turns it on from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long Main waits, after the last test returns, for the
// goroutines the tests started to exit.
const grace = 5 * time.Second

// Main runs the package's tests, then waits up to 5 s for every
// goroutine started since it was called to exit. If any is left, it
// names each by the frame that created it and exits with status 1.
//
// A fuzzing run (go test -fuzz) is not checked: the fuzzing engine
// starts an os/signal goroutine that lives as long as the process.
func Main(m *testing.M) {
	before := make(map[string]bool)
	for _, g := range goroutines() {
		before[g.id] = true
	}
	code := m.Run()
	if fuzzing() {
		os.Exit(code)
	}
	left := leftovers(before, grace)
	if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running %v after the tests:\n", len(left), grace)
		for _, g := range left {
			fmt.Fprintf(os.Stderr, "  goroutine %s, created by %s\n", g.id, g.createdBy)
		}
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// fuzzing reports whether go test -fuzz runs the binary, as the
// coordinator or as a worker, which is started with the same flags.
func fuzzing() bool {
	f := flag.Lookup("test.fuzz")
	return f != nil && f.Value.String() != ""
}

type goroutine struct {
	id        string
	createdBy string // function and file:line that started it
}

// leftovers polls until every goroutine whose id is not in before has
// exited or wait has passed, and returns those still running.
func leftovers(before map[string]bool, wait time.Duration) []goroutine {
	deadline := time.Now().Add(wait)
	for {
		var left []goroutine
		for _, g := range goroutines() {
			if !before[g.id] {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines parses a dump of every goroutine but the caller's.
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	blocks := strings.Split(string(buf), "\n\n")
	var out []goroutine
	for _, b := range blocks[1:] { // the first block is the caller's
		lines := strings.Split(strings.TrimSpace(b), "\n")
		fields := strings.Fields(lines[0])
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		g := goroutine{id: fields[1], createdBy: "an unknown frame"}
		for i, l := range lines {
			if fn, ok := strings.CutPrefix(l, "created by "); ok {
				fn, _, _ = strings.Cut(fn, " in goroutine ")
				if i+1 < len(lines) {
					loc, _, _ := strings.Cut(strings.TrimSpace(lines[i+1]), " +0x")
					fn += " at " + loc
				}
				g.createdBy = fn
			}
		}
		out = append(out, g)
	}
	return out
}
