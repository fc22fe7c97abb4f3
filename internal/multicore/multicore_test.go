package multicore

import (
	"testing"

	"smthill/internal/cache"
	"smthill/internal/pipeline"
	"smthill/internal/workload"
)

// testStreams resolves n applications' instruction streams from the
// workload catalog.
func testStreams(t *testing.T, list string, n int) workload.Workload {
	t.Helper()
	w, err := workload.Parse(list)
	if err != nil {
		t.Fatal(err)
	}
	if w.Threads() != n {
		t.Fatalf("workload %q has %d threads, want %d", list, w.Threads(), n)
	}
	return w
}

func newTestSystem(t *testing.T, cores int) *System {
	t.Helper()
	lists := map[int]string{
		1: "art,mcf",
		2: "art,mcf,fma3d,gcc",
		4: "art,mcf,fma3d,gcc,gzip,twolf,bzip2,mesa",
	}
	w := testStreams(t, lists[cores], cores*ContextsPerCore)
	return New(DefaultConfig(cores), w.Streams(), nil)
}

// TestSingleCoreEquivalence pins the hot-path guarantee: a 1-core
// System with the L3 disabled is cycle-identical to a bare
// pipeline.Machine — the multicore wrapper adds no simulation effects
// of its own.
func TestSingleCoreEquivalence(t *testing.T) {
	const cycles = 30000
	w := testStreams(t, "art,mcf", 2)

	cfg := DefaultConfig(1)
	cfg.L3 = cache.L3Config{} // zero SizeBytes: no shared L3
	sys := New(cfg, w.Streams(), nil)

	bare := pipeline.New(pipeline.DefaultConfig(ContextsPerCore), w.Streams(), nil)

	sys.CycleN(cycles)
	bare.CycleN(cycles)
	for th := 0; th < ContextsPerCore; th++ {
		if got, want := sys.Committed(th), bare.Committed(th); got != want {
			t.Errorf("thread %d: system committed %d, bare machine %d", th, got, want)
		}
		if got, want := sys.ThreadStats(th), bare.ThreadStats(th); got != want {
			t.Errorf("thread %d: system stats %+v, bare machine %+v", th, got, want)
		}
	}
}

// TestSharedL3CouplesCores verifies the cores actually contend: with
// the shared L3 enabled, a core's progress depends on the other core's
// traffic, so a 2-core run differs from the same workloads run behind
// private hierarchies.
func TestSharedL3CouplesCores(t *testing.T) {
	const cycles = 30000
	w := testStreams(t, "art,mcf,fma3d,gcc", 4)

	shared := New(DefaultConfig(2), w.Streams(), nil)
	cfg := DefaultConfig(2)
	cfg.L3 = cache.L3Config{}
	private := New(cfg, w.Streams(), nil)

	shared.CycleN(cycles)
	private.CycleN(cycles)
	same := true
	for g := 0; g < 4; g++ {
		if shared.Committed(g) != private.Committed(g) {
			same = false
		}
	}
	if same {
		t.Fatal("shared L3 had no effect on any thread's progress")
	}
	if shared.L3().Stats.Accesses == 0 {
		t.Fatal("shared L3 saw no accesses")
	}
}

// TestSwapPreservesThreadState is the migration golden: thread state
// survives a core move. Committed counts are continuous across the
// swap, both migrated threads keep making forward progress on their
// new cores, and the full run is deterministic — pinned counts below
// were produced by this simulator and must only change when the
// simulation semantics deliberately do.
func TestSwapPreservesThreadState(t *testing.T) {
	const half = 8192
	run := func() (*System, [4]uint64) {
		sys := newTestSystem(t, 2)
		sys.CycleN(half)

		before := make([]pipeline.ThreadStats, 4)
		for g := 0; g < 4; g++ {
			before[g] = sys.ThreadStats(g)
		}
		sys.Swap(0, 3)
		for g := 0; g < 4; g++ {
			if got := sys.ThreadStats(g); got != before[g] {
				t.Fatalf("thread %d: stats changed across Swap: %+v -> %+v", g, before[g], got)
			}
		}
		if sys.SeatOf(0) != (Seat{Core: 1, Ctx: 1}) || sys.SeatOf(3) != (Seat{Core: 0, Ctx: 0}) {
			t.Fatalf("seats after Swap(0,3): %+v, %+v", sys.SeatOf(0), sys.SeatOf(3))
		}
		if sys.ThreadAt(0, 0) != 3 || sys.ThreadAt(1, 1) != 0 {
			t.Fatal("seat map inconsistent with assignment after Swap")
		}

		sys.CycleN(half)
		var got [4]uint64
		for g := 0; g < 4; g++ {
			got[g] = sys.Committed(g)
			if got[g] <= before[g].Committed {
				t.Errorf("thread %d made no progress after the swap (%d -> %d)",
					g, before[g].Committed, got[g])
			}
		}
		if sys.Migrations() != 2 {
			t.Fatalf("migrations = %d, want 2", sys.Migrations())
		}
		return sys, got
	}

	_, first := run()
	_, second := run()
	if first != second {
		t.Fatalf("migration run is not deterministic: %v vs %v", first, second)
	}
	// Golden: art,mcf,fma3d,gcc on 2 cores, 8192 cycles, Swap(0,3),
	// 8192 more. Changes only when the simulation semantics change.
	want := [4]uint64{6610, 1667, 2970, 1930}
	if first != want {
		t.Fatalf("migration golden drifted: got %v, want %v", first, want)
	}
}

// TestSwapSelfIsNoop pins that Swap(g, g) does nothing.
func TestSwapSelfIsNoop(t *testing.T) {
	sys := newTestSystem(t, 2)
	sys.CycleN(1000)
	before := sys.ThreadStats(1)
	sys.Swap(1, 1)
	if sys.Migrations() != 0 {
		t.Fatalf("self-swap counted %d migrations", sys.Migrations())
	}
	if sys.ThreadStats(1) != before {
		t.Fatal("self-swap disturbed thread state")
	}
}

// TestNewRejectsBadShapes locks the constructor's contract panics.
func TestNewRejectsBadShapes(t *testing.T) {
	w := testStreams(t, "art,mcf,fma3d,gcc", 4)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero cores", func() {
		New(Config{Cores: 0, Core: pipeline.DefaultConfig(2)}, nil, nil)
	})
	mustPanic("wrong context count", func() {
		New(Config{Cores: 2, Core: pipeline.DefaultConfig(4)}, w.Streams(), nil)
	})
	mustPanic("wrong stream count", func() {
		New(DefaultConfig(4), w.Streams(), nil)
	})
	mustPanic("wrong policy count", func() {
		New(DefaultConfig(2), w.Streams(), make([]pipeline.Policy, 3))
	})
}

// TestL3OccupancyAccounting checks the shared-cache bookkeeping: once
// both cores have streamed through a small L3, each owns lines and the
// per-core occupancies sum to the whole cache.
func TestL3OccupancyAccounting(t *testing.T) {
	w := testStreams(t, "art,mcf,fma3d,gcc", 4)
	cfg := DefaultConfig(2)
	// Shrink the L3 so 40k cycles of a MEM-heavy mix actually contends
	// for capacity (the default 4MB would take millions of cycles to
	// fill).
	cfg.L3.SizeBytes = 64 << 10
	sys := New(cfg, w.Streams(), nil)
	sys.CycleN(40000)
	l3 := sys.L3()
	total := 0
	for c := 0; c < sys.Cores(); c++ {
		occ := l3.Occupancy(c)
		if occ < 0 {
			t.Fatalf("core %d: negative occupancy %d", c, occ)
		}
		if occ == 0 {
			t.Fatalf("core %d owns no L3 line after streaming through it", c)
		}
		total += occ
	}
	// Both cores contend for a cache they fill between them: every line
	// is owned, so each further miss evicts a line some core owns.
	if lines := cfg.L3.SizeBytes / cfg.L3.BlockSize; total != lines {
		t.Fatalf("occupancies sum to %d, cache has %d lines", total, lines)
	}
}
