package multicore

import (
	"testing"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/resource"
)

// swappedLabels relabels the current grouping onto different cores
// without changing who shares a core — the no-op case relabel must
// recognise.
type swappedLabels struct{}

func (swappedLabels) Name() string { return "swapped-labels" }
func (swappedLabels) Pair(obs []Obs, groups [][]int, epoch int) [][]int {
	out := make([][]int, len(groups))
	for c := range groups {
		out[c] = append([]int(nil), groups[(c+1)%len(groups)]...)
	}
	return out
}

// forceSwap demands threads 0 and 3 trade places on every call.
type forceSwap struct{}

func (forceSwap) Name() string { return "force-swap" }
func (forceSwap) Pair(obs []Obs, groups [][]int, epoch int) [][]int {
	out := make([][]int, len(groups))
	for c := range groups {
		out[c] = append([]int(nil), groups[c]...)
	}
	for c := range out {
		for i, g := range out[c] {
			switch g {
			case 0:
				out[c][i] = 3
			case 3:
				out[c][i] = 0
			}
		}
	}
	return out
}

// runEpochs advances d by n epochs.
func runEpochs(d *Driver, n int) {
	for i := 0; i < n; i++ {
		d.RunEpoch()
	}
}

func newTestDriver(t *testing.T, cores int, p Pairing) *Driver {
	t.Helper()
	sys := newTestSystem(t, cores)
	renameRegs := resource.DefaultSizes()[resource.IntRename]
	runners := make([]*core.Runner, cores)
	for c := 0; c < cores; c++ {
		h := core.NewHillClimber(ContextsPerCore, renameRegs, metrics.WeightedIPC)
		r := core.NewRunner(sys.Core(c), h, metrics.WeightedIPC)
		r.EpochSize = 2048
		runners[c] = r
	}
	return &Driver{Sys: sys, Runners: runners, Pairing: p, EpochSize: 2048, AllocEvery: 2}
}

// TestDriverRelabelSkipsNoopMigrations: a pairing that only permutes
// core labels (same thread pairs) must cause zero migrations — the
// grouping is about who shares a core, not which core hosts a pair.
func TestDriverRelabelSkipsNoopMigrations(t *testing.T) {
	d := newTestDriver(t, 2, swappedLabels{})
	runEpochs(d, 6)
	if got := d.Sys.Migrations(); got != 0 {
		t.Fatalf("label-only re-pairing caused %d migrations, want 0", got)
	}
}

// TestDriverAppliesBoundedSwaps: a pairing that genuinely regroups gets
// its migration, and the per-reallocation move bound holds.
func TestDriverAppliesBoundedSwaps(t *testing.T) {
	d := newTestDriver(t, 2, forceSwap{})
	d.MaxMoves = 1
	runEpochs(d, 2) // one reallocation point
	if got := d.Sys.Migrations(); got != 2 {
		t.Fatalf("forced swap performed %d migrations, want 2 (one bounded swap)", got)
	}
	if d.Sys.ThreadAt(0, 0) != 3 || d.Sys.SeatOf(0).Core != 1 {
		t.Fatal("forced swap did not move threads 0 and 3")
	}
	// The next reallocation wants them swapped back.
	runEpochs(d, 2)
	if got := d.Sys.Migrations(); got != 4 {
		t.Fatalf("second reallocation performed %d total migrations, want 4", got)
	}
}

// TestDriverEpochResultsMatchRunners: RunEpoch surfaces each runner's
// epoch result in core order.
func TestDriverEpochResultsMatchRunners(t *testing.T) {
	d := newTestDriver(t, 2, nil)
	results := d.RunEpoch()
	if len(results) != 2 {
		t.Fatalf("%d results for 2 cores", len(results))
	}
	for c, res := range results {
		if len(res.IPC) != ContextsPerCore {
			t.Fatalf("core %d: %d per-thread IPCs", c, len(res.IPC))
		}
	}
	if d.epoch != 1 {
		t.Fatalf("epoch = %d after one RunEpoch", d.epoch)
	}
}

// TestDriverDeterministic: two identical driver runs with the learning
// stack and an active pairing land on identical thread state.
func TestDriverDeterministic(t *testing.T) {
	run := func() ([]uint64, uint64) {
		d := newTestDriver(t, 2, IPCPairing{})
		runEpochs(d, 8)
		out := make([]uint64, d.Sys.Threads())
		for g := range out {
			out[g] = d.Sys.Committed(g)
		}
		return out, d.Sys.Migrations()
	}
	c1, m1 := run()
	c2, m2 := run()
	if m1 != m2 {
		t.Fatalf("migration counts diverged: %d vs %d", m1, m2)
	}
	for g := range c1 {
		if c1[g] != c2[g] {
			t.Fatalf("thread %d committed %d vs %d across identical runs", g, c1[g], c2[g])
		}
	}
}

// TestDriverSteepestPerCore: the batched steepest climber drops in as a
// per-core distributor. Its probes clone the live core's machine into a
// MachineBatch, detach from the shared L3 (phantom execution must not
// pollute real state), and survive context migrations — a thread swap
// replaces a seat's stream wholesale, forcing the probe batch to
// re-adopt its shared-decode feeds on the next refill. Two identical
// runs must land on identical thread state.
func TestDriverSteepestPerCore(t *testing.T) {
	run := func() ([]uint64, uint64) {
		sys := newTestSystem(t, 2)
		renameRegs := resource.DefaultSizes()[resource.IntRename]
		runners := make([]*core.Runner, 2)
		for c := 0; c < 2; c++ {
			st := core.NewSteepest(ContextsPerCore, renameRegs, metrics.WeightedIPC)
			st.M = sys.Core(c)
			st.ProbeCycles = 512
			r := core.NewRunner(sys.Core(c), st, metrics.WeightedIPC)
			r.EpochSize = 2048
			st.Singles = r.Singles
			runners[c] = r
		}
		d := &Driver{Sys: sys, Runners: runners, Pairing: forceSwap{},
			EpochSize: 2048, AllocEvery: 2, RenameRegs: renameRegs}
		runEpochs(d, 8)
		for c := 0; c < 2; c++ {
			tab := sys.Core(c).Resources()
			got := 0
			for th := 0; th < ContextsPerCore; th++ {
				got += tab.Limit(th, resource.IntRename)
			}
			if got != renameRegs {
				t.Fatalf("core %d programmed rename shares sum %d, want %d", c, got, renameRegs)
			}
		}
		out := make([]uint64, sys.Threads())
		for g := range out {
			out[g] = sys.Committed(g)
		}
		return out, sys.Migrations()
	}
	c1, m1 := run()
	c2, m2 := run()
	if m1 == 0 {
		t.Fatal("force-swap pairing caused no migrations; the re-adoption path went unexercised")
	}
	if m1 != m2 {
		t.Fatalf("migration counts diverged: %d vs %d", m1, m2)
	}
	for g := range c1 {
		if c1[g] != c2[g] {
			t.Fatalf("thread %d committed %d vs %d across identical runs", g, c1[g], c2[g])
		}
	}
}

// TestSteepestProbesLeaveL3Untouched: a steepest climber's probe wave
// runs phantom executions of core 0 for ProbeCycles each. Preparing the
// epoch must not advance the real system, so the shared L3's global and
// per-core statistics (accesses, misses, occupancy) stay exactly as the
// warm-up left them.
func TestSteepestProbesLeaveL3Untouched(t *testing.T) {
	sys := newTestSystem(t, 2)
	sys.CycleN(20000)
	renameRegs := resource.DefaultSizes()[resource.IntRename]
	st := core.NewSteepest(ContextsPerCore, renameRegs, metrics.WeightedIPC)
	st.M = sys.Core(0)
	st.ProbeCycles = 4096
	r := core.NewRunner(sys.Core(0), st, metrics.WeightedIPC)
	r.ReferenceSingles = []float64{1, 1}
	st.Singles = r.Singles

	l3 := sys.L3()
	global, occ0 := l3.Stats, l3.Occupancy(0)
	if global.Accesses == 0 {
		t.Fatal("warm-up reached no L3 access; the check would be vacuous")
	}
	r.PrepareEpoch()
	if l3.Stats != global {
		t.Errorf("L3 stats moved during the probe wave: %+v -> %+v", global, l3.Stats)
	}
	if got := l3.Occupancy(0); got != occ0 {
		t.Errorf("core 0 L3 occupancy moved during the probe wave: %d -> %d", occ0, got)
	}
}

// TestDriverObservationsPopulated: after a reallocation point the
// per-thread observations carry live IPC and stall signals.
func TestDriverObservationsPopulated(t *testing.T) {
	d := newTestDriver(t, 2, IPCPairing{})
	runEpochs(d, 8)
	obs := d.obs
	var ipc, stall float64
	for _, o := range obs {
		ipc += o.IPC
		stall += o.StallFrac
	}
	if ipc == 0 {
		t.Fatal("no IPC observed after a reallocation point")
	}
	if stall == 0 {
		t.Fatal("no dispatch-stall signal observed after a reallocation point")
	}
}
