// Package leakcheck fails test binaries that leave project goroutines
// running after the suite finishes. It is the dynamic complement to the
// static goleak lint rule: the rule catches goroutines with no exit
// path at all, this package catches goroutines whose exit path exists
// but was never taken (a Close that forgot to signal, a ctx that was
// never cancelled).
//
// Wire it into a package's tests with:
//
//	func TestMain(m *testing.M) {
//		os.Exit(leakcheck.Main(m))
//	}
//
// Main snapshots the live goroutines before the suite, runs it, and
// then re-snapshots: any goroutine that is new since the start, has a
// frame in this module, and survives a short settle window is reported
// with its full stack and fails the binary. Goroutine IDs are never
// reused by the runtime, so the before/after diff is exact. Stdlib and
// runtime service goroutines (netpoll, finalizers, timer wheels) have
// no module frames and are ignored; leakcheck's own goroutines are
// excluded explicitly.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix identifies stack frames that belong to this project; a
// goroutine with no such frame is not ours to police.
const modulePrefix = "smthill/"

// selfMarker excludes leakcheck's own frames (and its tests') from the
// report.
const selfMarker = "smthill/internal/lint/leakcheck"

// settle is how long Main waits for shutdown-in-progress goroutines to
// drain before declaring them leaked. Graceful teardown (server Close,
// context cancellation fan-out) is asynchronous; two seconds is far
// beyond any legitimate drain in this repo's suites.
const settle = 2 * time.Second

// Main wraps m.Run with the goroutine-leak gate. Returns the exit code
// for os.Exit: the suite's own code when it fails (a leak report on top
// of a real failure is noise), otherwise 0 iff no goroutines leaked.
//
//smtlint:ignore deadcode test support: the TestMain of the serve, fabric, obs and multicore suites calls it
func Main(m *testing.M) int {
	before := idSet(stacks())
	code := m.Run()
	if code != 0 {
		return code
	}
	deadline := time.Now().Add(settle)
	for {
		leaked := leaksIn(stacks(), before)
		if len(leaked) == 0 {
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running after the suite:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			return 1
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaksIn returns the goroutine blocks that are new relative to before
// and carry at least one module frame. Pure so tests can feed synthetic
// blocks.
func leaksIn(gs []string, before map[string]bool) []string {
	var out []string
	for _, g := range gs {
		if before[goroutineID(g)] {
			continue
		}
		if !strings.Contains(g, modulePrefix) || strings.Contains(g, selfMarker) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// stacks captures every goroutine's stack as one block per goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.TrimSpace(g) != "" {
			out = append(out, g)
		}
	}
	return out
}

func idSet(gs []string) map[string]bool {
	ids := make(map[string]bool, len(gs))
	for _, g := range gs {
		ids[goroutineID(g)] = true
	}
	return ids
}

// goroutineID extracts the numeric id from a block header of the form
// "goroutine 42 [running]:". Unknown shapes return the whole block so
// they compare by content rather than colliding on "".
func goroutineID(g string) string {
	rest, ok := strings.CutPrefix(g, "goroutine ")
	if !ok {
		return g
	}
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return g
}
