// Package multicore models a chip of M SMT cores: each core is a full
// pipeline.Machine (2 hardware contexts), all cores advance in
// lock-step behind a shared last-level cache (cache.SharedL3), and an
// allocation layer decides which threads share a core — re-paired at
// epoch boundaries through bounded migration.
//
// The paper's hill-climber distributes resources *within* one SMT core;
// the related thread-to-core allocation work (Navarro et al., SYNPA)
// asks the same question *across* cores. This package lets both levels
// run at once: per-core climbers keep splitting each core's rename
// window while a pairing policy searches the thread-to-core map.
//
// Everything here runs on one goroutine — the System is driven from a
// single lock-step cycle loop, exactly like a pipeline.Machine, so the
// package carries no locks and no shared (cross-goroutine) structs.
// Determinism contract: a System run is a pure function of its
// configuration, streams, and pairing policy; no maps are iterated and
// no wall-clock or math/rand state is consulted.
package multicore

import (
	"fmt"

	"smthill/internal/cache"
	"smthill/internal/isa"
	"smthill/internal/pipeline"
	"smthill/internal/telemetry"
)

// ContextsPerCore is the SMT width of each core. The related allocation
// papers (and this package's pairing policies) study 2-context cores.
const ContextsPerCore = 2

// Config sizes a multicore system.
type Config struct {
	// Cores is the number of SMT cores.
	Cores int
	// Core configures each core's pipeline (Threads must equal
	// ContextsPerCore).
	Core pipeline.Config
	// L3 configures the shared last-level cache; a zero SizeBytes
	// disables it (cores then miss straight to memory, as the
	// single-core model does).
	L3 cache.L3Config
}

// DefaultConfig returns the Table 1 core replicated cores times behind
// the default shared L3.
func DefaultConfig(cores int) Config {
	return Config{
		Cores: cores,
		Core:  pipeline.DefaultConfig(ContextsPerCore),
		L3:    cache.DefaultL3(),
	}
}

// Seat names one hardware context: context Ctx of core Core.
type Seat struct {
	Core int
	Ctx  int
}

// System is M cores advancing in lock-step behind a shared L3, plus the
// thread-to-seat map and the per-logical-thread statistics accounting
// that survives migrations.
type System struct {
	cfg   Config
	cores []*pipeline.Machine
	recs  []*telemetry.Recorder
	l3    *cache.SharedL3

	// assign maps logical thread -> seat; seat maps core/ctx -> logical
	// thread. Both are permutations of [0, Cores*ContextsPerCore).
	assign []Seat
	seat   [][]int

	// Pipeline counters are monotonic per *seat*; to report them per
	// *logical thread* across migrations, base[g] accumulates thread
	// g's totals from seats it has left, and seatBase[g] records the
	// current seat's counters at the moment g was installed there.
	base     []pipeline.ThreadStats
	seatBase []pipeline.ThreadStats

	migrations uint64
}

// New builds a system of cfg.Cores cores. streams supplies one
// instruction stream per logical thread (Cores*ContextsPerCore of
// them); thread g starts on seat (g/2, g%2). pols supplies one per-core
// policy (nil, or a slice of Cores entries, nil entries meaning plain
// ICOUNT). Every logical thread gets a globally disjoint address-space
// base, so distinct threads never alias in the shared L3.
func New(cfg Config, streams []isa.Stream, pols []pipeline.Policy) *System {
	if cfg.Cores < 1 {
		panic(fmt.Sprintf("multicore: %d cores", cfg.Cores))
	}
	if cfg.Core.Threads != ContextsPerCore {
		panic(fmt.Sprintf("multicore: core config has %d contexts, want %d", cfg.Core.Threads, ContextsPerCore))
	}
	n := cfg.Cores * ContextsPerCore
	if len(streams) != n {
		panic(fmt.Sprintf("multicore: %d streams for %d contexts", len(streams), n))
	}
	if pols != nil && len(pols) != cfg.Cores {
		panic(fmt.Sprintf("multicore: %d policies for %d cores", len(pols), cfg.Cores))
	}
	s := &System{
		cfg:      cfg,
		cores:    make([]*pipeline.Machine, cfg.Cores),
		recs:     make([]*telemetry.Recorder, cfg.Cores),
		assign:   make([]Seat, n),
		seat:     make([][]int, cfg.Cores),
		base:     make([]pipeline.ThreadStats, n),
		seatBase: make([]pipeline.ThreadStats, n),
	}
	if cfg.L3.SizeBytes > 0 {
		s.l3 = cache.NewSharedL3(cfg.L3, cfg.Cores)
	}
	for c := 0; c < cfg.Cores; c++ {
		var pol pipeline.Policy
		if pols != nil {
			pol = pols[c]
		}
		m := pipeline.New(cfg.Core, streams[c*ContextsPerCore:(c+1)*ContextsPerCore], pol)
		s.cores[c] = m
		s.seat[c] = make([]int, ContextsPerCore)
		for ctx := 0; ctx < ContextsPerCore; ctx++ {
			g := c*ContextsPerCore + ctx
			m.SetAddrBase(ctx, pipeline.GlobalAddrBase(g))
			s.assign[g] = Seat{Core: c, Ctx: ctx}
			s.seat[c][ctx] = g
		}
		// Every core gets a recorder: its dispatch-stall attribution is
		// the signal the stall-pred pairing policy observes.
		s.recs[c] = telemetry.NewRecorder(ContextsPerCore)
		m.SetRecorder(s.recs[c])
		if s.l3 != nil {
			m.Mem().AttachL3(s.l3, c)
		}
	}
	return s
}

// Cores returns the number of cores.
func (s *System) Cores() int { return s.cfg.Cores }

// Threads returns the number of logical threads.
func (s *System) Threads() int { return s.cfg.Cores * ContextsPerCore }

// Core returns core c's machine.
func (s *System) Core(c int) *pipeline.Machine { return s.cores[c] }

// Recorder returns core c's telemetry recorder.
func (s *System) Recorder(c int) *telemetry.Recorder { return s.recs[c] }

// L3 returns the shared last-level cache (nil when disabled).
func (s *System) L3() *cache.SharedL3 { return s.l3 }

// Migrations returns the total thread moves performed (a swap moves
// two threads).
func (s *System) Migrations() uint64 { return s.migrations }

// SeatOf returns the seat logical thread g currently occupies.
func (s *System) SeatOf(g int) Seat { return s.assign[g] }

// ThreadAt returns the logical thread on context ctx of core c.
func (s *System) ThreadAt(c, ctx int) int { return s.seat[c][ctx] }

// Cycle advances every core by one cycle in lock-step. The shared L3's
// bandwidth window opens once per system cycle, so same-cycle misses
// from different cores queue against each other in core order —
// deterministic inter-core contention.
func (s *System) Cycle() {
	if s.l3 != nil {
		s.l3.Tick()
	}
	for _, m := range s.cores {
		m.Cycle()
	}
}

// CycleN advances the system n cycles.
func (s *System) CycleN(n int) {
	for i := 0; i < n; i++ {
		s.Cycle()
	}
}

// addTS and subTS are field-wise ThreadStats arithmetic for the
// migration accounting.
func addTS(a, b pipeline.ThreadStats) pipeline.ThreadStats {
	a.Fetched += b.Fetched
	a.Dispatched += b.Dispatched
	a.Issued += b.Issued
	a.Committed += b.Committed
	a.Flushes += b.Flushes
	a.Flushed += b.Flushed
	a.Mispredicts += b.Mispredicts
	return a
}

func subTS(a, b pipeline.ThreadStats) pipeline.ThreadStats {
	a.Fetched -= b.Fetched
	a.Dispatched -= b.Dispatched
	a.Issued -= b.Issued
	a.Committed -= b.Committed
	a.Flushes -= b.Flushes
	a.Flushed -= b.Flushed
	a.Mispredicts -= b.Mispredicts
	return a
}

// ThreadStats returns logical thread g's pipeline counters, summed over
// every seat it has occupied.
func (s *System) ThreadStats(g int) pipeline.ThreadStats {
	st := s.assign[g]
	cur := s.cores[st.Core].ThreadStats(st.Ctx)
	return addTS(s.base[g], subTS(cur, s.seatBase[g]))
}

// Committed returns the instructions logical thread g has committed
// across all seats.
func (s *System) Committed(g int) uint64 { return s.ThreadStats(g).Committed }

// Swap exchanges logical threads a and b between their seats. Each
// thread's uncommitted window is squashed on its old core and replayed
// on the new one (pipeline.ExtractContext / InstallContext); its
// address base travels with it, so its working set stays put in the
// shared L3. Statistics accounting is settled so ThreadStats remains
// continuous across the move.
func (s *System) Swap(a, b int) {
	if a == b {
		return
	}
	sa, sb := s.assign[a], s.assign[b]
	ma, mb := s.cores[sa.Core], s.cores[sb.Core]

	s.base[a] = addTS(s.base[a], subTS(ma.ThreadStats(sa.Ctx), s.seatBase[a]))
	s.base[b] = addTS(s.base[b], subTS(mb.ThreadStats(sb.Ctx), s.seatBase[b]))

	ca := ma.ExtractContext(sa.Ctx)
	cb := mb.ExtractContext(sb.Ctx)
	ma.InstallContext(sa.Ctx, cb)
	mb.InstallContext(sb.Ctx, ca)

	s.assign[a], s.assign[b] = sb, sa
	s.seat[sa.Core][sa.Ctx] = b
	s.seat[sb.Core][sb.Ctx] = a
	s.seatBase[a] = mb.ThreadStats(sb.Ctx)
	s.seatBase[b] = ma.ThreadStats(sa.Ctx)
	s.migrations += 2
}
