package pipeline

import (
	"testing"

	"smthill/internal/isa"
	"smthill/internal/resource"
	"smthill/internal/trace"
)

// ilpProfile is a compute-bound, cache-friendly application model.
func ilpProfile(seed uint64) trace.Profile {
	return trace.Profile{
		Name: "ilp", Seed: seed,
		A: trace.Params{
			FracLoad: 0.2, FracStore: 0.1,
			FracFp: 0.2, FracMulDiv: 0.05,
			ChainDep: 0.15, WorkingSet: 16 << 10, StridePct: 0.8,
			BranchNoise: 0.02,
		},
	}
}

// memProfile is a memory-bound model with pointer chasing and miss bursts.
func memProfile(seed uint64) trace.Profile {
	return trace.Profile{
		Name: "mem", Seed: seed,
		A: trace.Params{
			FracLoad: 0.3, FracStore: 0.1,
			FracFp: 0.1, FracMulDiv: 0.05,
			ChainDep: 0.2, WorkingSet: 8 << 20, StridePct: 0.2,
			PointerChase: 0.1, MissBurstProb: 0.02, BurstLen: 4,
			BranchNoise: 0.03,
		},
	}
}

// drained reports whether every stream is exhausted and the pipeline has
// drained. Machines running unbounded synthetic streams never drain.
func drained(m *Machine) bool {
	for i := range m.threads {
		t := &m.threads[i]
		if !t.exhausted || len(t.rob) > t.robHead || t.fetchCur < len(t.pending) || t.dispatchCur < t.fetchCur {
			return false
		}
	}
	return true
}

func newMachine(t *testing.T, threads int, profs []trace.Profile, pol Policy) *Machine {
	t.Helper()
	streams := make([]isa.Stream, threads)
	for i := range streams {
		streams[i] = trace.New(profs[i])
	}
	return New(DefaultConfig(threads), streams, pol)
}

func ipc(m *Machine, th int, cycles uint64) float64 {
	return float64(m.Committed(th)) / float64(cycles)
}

func TestSingleThreadMakesProgress(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	m.CycleN(50_000)
	got := ipc(m, 0, 50_000)
	if got < 0.5 {
		t.Fatalf("ILP thread IPC = %.3f, machine is nearly stalled", got)
	}
	if got > 8 {
		t.Fatalf("IPC = %.3f exceeds machine width", got)
	}
}

func TestMemBoundSlowerThanIlp(t *testing.T) {
	mi := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	mm := newMachine(t, 1, []trace.Profile{memProfile(1)}, nil)
	mi.CycleN(100_000)
	mm.CycleN(100_000)
	ilpIPC, memIPC := ipc(mi, 0, 100_000), ipc(mm, 0, 100_000)
	if memIPC >= ilpIPC {
		t.Fatalf("memory-bound IPC %.3f >= ILP IPC %.3f", memIPC, ilpIPC)
	}
	if memIPC <= 0.01 {
		t.Fatalf("memory-bound thread fully stalled: IPC %.4f", memIPC)
	}
}

func TestTwoThreadsBothProgress(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
	m.CycleN(100_000)
	for th := 0; th < 2; th++ {
		if got := ipc(m, th, 100_000); got < 0.2 {
			t.Fatalf("thread %d IPC = %.3f", th, got)
		}
	}
}

func TestSMTThroughputExceedsAlternation(t *testing.T) {
	// Two ILP threads co-scheduled should outperform a single thread
	// alone (SMT exploits issue slots a single thread leaves idle).
	solo := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	solo.CycleN(100_000)
	smt := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
	smt.CycleN(100_000)
	soloIPC := ipc(solo, 0, 100_000)
	smtIPC := ipc(smt, 0, 100_000) + ipc(smt, 1, 100_000)
	if smtIPC <= soloIPC*1.05 {
		t.Fatalf("SMT throughput %.3f does not beat solo %.3f", smtIPC, soloIPC)
	}
}

func TestThreeAndFourThreadsProgress(t *testing.T) {
	// Regression: power-of-two per-thread address bases aliased every
	// context onto the same cache sets, deadlocking fetch with more than
	// two contexts.
	for _, n := range []int{3, 4} {
		profs := make([]trace.Profile, n)
		for i := range profs {
			profs[i] = ilpProfile(uint64(i + 1))
		}
		m := newMachine(t, n, profs, nil)
		m.CycleN(30_000)
		for th := 0; th < n; th++ {
			if m.Committed(th) < 1000 {
				t.Fatalf("%d threads: thread %d committed only %d", n, th, m.Committed(th))
			}
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), memProfile(2)}, nil)
	m.CycleN(50_000)
	s := m.Stats()
	if s.Cycles != 50_000 {
		t.Fatalf("Cycles = %d", s.Cycles)
	}
	if s.Committed > s.Dispatched || s.Dispatched > s.Fetched {
		t.Fatalf("pipeline counters inverted: fetched %d dispatched %d committed %d",
			s.Fetched, s.Dispatched, s.Committed)
	}
	if s.Committed != m.Committed(0)+m.Committed(1) {
		t.Fatal("aggregate committed != per-thread sum")
	}
	if s.Issued < s.Committed {
		t.Fatalf("issued %d < committed %d", s.Issued, s.Committed)
	}
}

func TestOccupancyNeverExceedsLimits(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.Resources().SetShares(resource.Shares{64, 192})
	sizes := resource.DefaultSizes()
	for c := 0; c < 30_000; c++ {
		m.Cycle()
		for k := resource.Kind(0); k < resource.NumKinds; k++ {
			total := 0
			for th := 0; th < 2; th++ {
				occ := m.Resources().Occ(th, k)
				total += occ
				if occ < 0 {
					t.Fatalf("cycle %d: negative occupancy of %v by thread %d", c, k, th)
				}
			}
			if total > sizes[k] {
				t.Fatalf("cycle %d: %v total occupancy %d exceeds capacity %d", c, k, total, sizes[k])
			}
		}
	}
	// Partition enforcement: fetch-locked threads can transiently hold
	// at most their limit (allocation stops at the limit).
	for th := 0; th < 2; th++ {
		for _, k := range []resource.Kind{resource.IntIQ, resource.IntRename, resource.ROB} {
			if occ, lim := m.Resources().Occ(th, k), m.Resources().Limit(th, k); occ > lim {
				t.Fatalf("thread %d %v occupancy %d exceeds partition %d", th, k, occ, lim)
			}
		}
	}
}

func TestPartitionStarvationHurtsThread(t *testing.T) {
	// Give thread 0 a tiny partition: its IPC must drop versus an equal
	// split, and thread 1's must not drop.
	run := func(shares resource.Shares) (float64, float64) {
		m := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
		m.Resources().SetShares(shares)
		m.CycleN(100_000)
		return ipc(m, 0, 100_000), ipc(m, 1, 100_000)
	}
	eq0, _ := run(resource.Shares{128, 128})
	sm0, sm1 := run(resource.Shares{16, 240})
	if sm0 >= eq0*0.8 {
		t.Fatalf("starved thread IPC %.3f not clearly below equal-share IPC %.3f", sm0, eq0)
	}
	if sm1 < 0.2 {
		t.Fatalf("favored thread collapsed: IPC %.3f", sm1)
	}
}

func TestCloneReplaysIdentically(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.CycleN(20_000) // reach a messy mid-execution state
	c := m.Clone()

	m.CycleN(30_000)
	c.CycleN(30_000)

	if a, b := m.Stats(), c.Stats(); a != b {
		t.Fatalf("clone stats diverged:\n original %+v\n clone    %+v", a, b)
	}
	for th := 0; th < 2; th++ {
		if m.Committed(th) != c.Committed(th) {
			t.Fatalf("thread %d committed %d vs clone %d", th, m.Committed(th), c.Committed(th))
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), memProfile(2)}, nil)
	m.CycleN(10_000)
	c := m.Clone()
	base := c.Stats()
	m.CycleN(10_000) // advancing the original must not move the clone
	if c.Stats() != base {
		t.Fatal("advancing the original changed the clone")
	}
}

func TestCloneUnderDifferentSharesDiverges(t *testing.T) {
	// The point of checkpointing: restore the same state, apply a
	// different partitioning, observe different performance.
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.CycleN(20_000)
	a := m.Clone()
	b := m.Clone()
	a.Resources().SetShares(resource.Shares{32, 224})
	b.Resources().SetShares(resource.Shares{224, 32})
	a.CycleN(64_000)
	b.CycleN(64_000)
	if a.Committed(0) == b.Committed(0) && a.Committed(1) == b.Committed(1) {
		t.Fatal("radically different partitionings produced identical executions")
	}
}

func TestFlushAfterSquashesAndReplays(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.CycleN(5_000)
	before := m.Committed(0)

	// Flush everything of thread 0 younger than its oldest in-flight
	// instruction's seq + 1.
	tst := &m.threads[0]
	if len(tst.liveROB()) < 4 {
		t.Skip("thread 0 has too few in-flight instructions to flush")
	}
	headSeq := m.slab[tst.liveROB()[0].idx].inst.Seq
	m.FlushAfter(0, headSeq)
	if got := len(tst.liveROB()); got != 1 {
		t.Fatalf("ROB holds %d entries after flush, want 1", got)
	}
	if m.Stats().Squashed == 0 {
		t.Fatal("flush squashed nothing")
	}
	// Execution must continue and re-commit the squashed instructions.
	m.CycleN(50_000)
	if m.Committed(0) <= before+1 {
		t.Fatalf("thread 0 did not make progress after flush: %d -> %d", before, m.Committed(0))
	}
}

func TestFlushPreservesDeterminism(t *testing.T) {
	// A flush must leave the machine in a state that still replays
	// identically from a clone.
	m := newMachine(t, 2, []trace.Profile{memProfile(3), ilpProfile(4)}, nil)
	m.CycleN(8_000)
	if len(m.threads[0].liveROB()) > 2 {
		headSeq := m.slab[m.threads[0].liveROB()[0].idx].inst.Seq
		m.FlushAfter(0, headSeq)
	}
	c := m.Clone()
	m.CycleN(20_000)
	c.CycleN(20_000)
	if m.Stats() != c.Stats() {
		t.Fatal("post-flush clone diverged")
	}
}

func TestSetFetchEnabled(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{ilpProfile(1), ilpProfile(2)}, nil)
	m.SetFetchEnabled(1, false)
	m.CycleN(30_000)
	if m.Committed(1) > 100 {
		t.Fatalf("disabled thread committed %d instructions", m.Committed(1))
	}
	if m.Committed(0) < 10_000 {
		t.Fatalf("enabled thread starved: %d", m.Committed(0))
	}
	if m.fetchDisabled[0] || !m.fetchDisabled[1] {
		t.Fatal("fetch-disable flags wrong")
	}
	// Re-enable and verify recovery.
	m.SetFetchEnabled(1, true)
	at := m.Committed(1)
	m.CycleN(30_000)
	if m.Committed(1) <= at {
		t.Fatal("re-enabled thread did not resume")
	}
}

func TestStallFreezesCommit(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{ilpProfile(1)}, nil)
	m.CycleN(10_000)
	before := m.Committed(0)
	m.Stall(200)
	m.CycleN(200)
	if got := m.Committed(0) - before; got != 0 {
		t.Fatalf("committed %d instructions during a full stall", got)
	}
	m.CycleN(10_000)
	if m.Committed(0) == before {
		t.Fatal("machine did not resume after stall")
	}
}

func TestMispredictsHappenAndArePenalized(t *testing.T) {
	noisy := ilpProfile(1)
	noisy.A.BranchNoise = 0.3
	clean := ilpProfile(1)
	clean.A.BranchNoise = 0.0

	mn := newMachine(t, 1, []trace.Profile{noisy}, nil)
	mc := newMachine(t, 1, []trace.Profile{clean}, nil)
	mn.CycleN(100_000)
	mc.CycleN(100_000)
	if mn.Stats().Mispredicts < 100 {
		t.Fatalf("noisy branches produced only %d mispredicts", mn.Stats().Mispredicts)
	}
	if ipc(mn, 0, 100_000) >= ipc(mc, 0, 100_000) {
		t.Fatalf("mispredicts did not hurt IPC: %.3f vs %.3f",
			ipc(mn, 0, 100_000), ipc(mc, 0, 100_000))
	}
}

func TestOutstandingL2Tracking(t *testing.T) {
	m := newMachine(t, 1, []trace.Profile{memProfile(1)}, nil)
	sawOutstanding := false
	for i := 0; i < 50_000; i++ {
		m.Cycle()
		o := m.OutstandingL2(0)
		if o < 0 {
			t.Fatalf("cycle %d: negative outstanding L2 count", i)
		}
		if o > 0 {
			sawOutstanding = true
		}
	}
	if !sawOutstanding {
		t.Fatal("memory-bound thread never had an outstanding L2 miss")
	}
}

func TestFiniteStreamDrains(t *testing.T) {
	streams := []isa.Stream{trace.NewLimited(ilpProfile(1), 5_000)}
	m := New(DefaultConfig(1), streams, nil)
	for i := 0; i < 200_000 && !drained(m); i++ {
		m.Cycle()
	}
	if !drained(m) {
		t.Fatal("finite stream did not drain")
	}
	if m.Committed(0) != 5_000 {
		t.Fatalf("committed %d, want 5000", m.Committed(0))
	}
}

func TestICountReflectsOccupancy(t *testing.T) {
	m := newMachine(t, 2, []trace.Profile{memProfile(1), ilpProfile(2)}, nil)
	m.CycleN(20_000)
	// The memory-bound thread accumulates in-flight instructions; its
	// ICOUNT should generally exceed the ILP thread's.
	if m.ICount(0) == 0 && m.ICount(1) == 0 {
		t.Fatal("both ICOUNTs are zero mid-execution")
	}
	for th := 0; th < 2; th++ {
		if m.ICount(th) < 0 {
			t.Fatalf("negative ICOUNT for thread %d", th)
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("stream/context mismatch did not panic")
		}
	}()
	New(DefaultConfig(2), []isa.Stream{trace.New(ilpProfile(1))}, nil)
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(2)
	if cfg.FetchWidth != 8 || cfg.IssueWidth != 8 || cfg.CommitWidth != 8 {
		t.Fatal("bandwidths differ from Table 1")
	}
	fu := cfg.FUs
	if fu.IntAlu != 6 || fu.IntMul != 3 || fu.MemPorts != 4 || fu.FpAlu != 3 || fu.FpMul != 3 {
		t.Fatal("functional units differ from Table 1")
	}
	if cfg.Resources[resource.ROB] != 512 || cfg.Resources[resource.IntRename] != 256 {
		t.Fatal("window sizes differ from Table 1")
	}
}
