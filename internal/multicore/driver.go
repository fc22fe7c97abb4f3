package multicore

import (
	"fmt"
	"strconv"

	"smthill/internal/core"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// DefaultAllocEvery is how many epochs run between reallocation points.
// Pairing decisions need a few epochs of per-core climbing to produce a
// meaningful IPC/stall signal, and migrations cost refetch; every 8
// epochs (~0.5M cycles at the default epoch size) balances the two.
const DefaultAllocEvery = 8

// DefaultMaxMoves bounds the swaps applied per reallocation point, so a
// noisy pairing decision cannot thrash every core at once.
const DefaultMaxMoves = 2

// Driver runs the two-level learning loop: per-core Runners (each with
// its own distributor, typically a HillClimber splitting that core's
// rename window) advance in lock-step through epochs, and every
// AllocEvery epochs the Pairing policy re-decides which threads share a
// core, applied as at most MaxMoves bounded migrations.
type Driver struct {
	// Sys is the machine.
	Sys *System
	// Runners holds one epoch runner per core, in core order. Their
	// EpochSize must equal the driver's.
	Runners []*core.Runner
	// Pairing re-decides the thread grouping (nil never reallocates —
	// the static baseline).
	Pairing Pairing
	// EpochSize is the epoch length in cycles.
	EpochSize int
	// AllocEvery is the reallocation period in epochs
	// (DefaultAllocEvery when 0).
	AllocEvery int
	// MaxMoves bounds swaps per reallocation (DefaultMaxMoves when 0).
	MaxMoves int
	// RenameRegs is each core's integer rename file size, used to reset
	// a migrated core's climber anchor to the equal split (the learned
	// partition was for the old pair). Defaults to the Table 1 size.
	RenameRegs int
	// Trace, when non-nil, receives migration and per-core occupancy
	// events labelled TraceLabel.
	Trace      telemetry.Sink
	TraceLabel string

	epoch int
	obs   []Obs
	// Reallocation-window accounting: committed counts per logical
	// thread and dispatch-stall sums per seat at the window start.
	windowBase   []uint64
	prevDispatch [][]uint64
	windowCycles uint64
}

func (d *Driver) ensure() {
	if d.EpochSize == 0 {
		d.EpochSize = core.DefaultEpochSize
	}
	if d.AllocEvery == 0 {
		d.AllocEvery = DefaultAllocEvery
	}
	if d.MaxMoves == 0 {
		d.MaxMoves = DefaultMaxMoves
	}
	if d.RenameRegs == 0 {
		d.RenameRegs = resource.DefaultSizes()[resource.IntRename]
	}
	if d.obs == nil {
		n := d.Sys.Threads()
		d.obs = make([]Obs, n)
		d.windowBase = make([]uint64, n)
		for g := 0; g < n; g++ {
			d.windowBase[g] = d.Sys.Committed(g)
		}
		d.prevDispatch = make([][]uint64, d.Sys.Cores())
		for c := range d.prevDispatch {
			d.prevDispatch[c] = make([]uint64, ContextsPerCore)
			for ctx := 0; ctx < ContextsPerCore; ctx++ {
				d.prevDispatch[c][ctx] = d.dispatchStalls(c, ctx)
			}
		}
	}
}

// dispatchStalls sums core c context ctx's dispatch-stall counters.
func (d *Driver) dispatchStalls(c, ctx int) uint64 {
	t := &d.Sys.Recorder(c).Threads[ctx]
	var sum uint64
	for _, v := range t.Dispatch {
		sum += v
	}
	return sum
}

// RunEpoch advances every core one epoch in lock-step — all runners
// prepare, the system cycles, all runners finish — then, at
// reallocation points, lets the pairing policy re-group threads. It
// returns the per-core epoch results in core order.
func (d *Driver) RunEpoch() []core.EpochResult {
	d.ensure()
	for _, r := range d.Runners {
		r.PrepareEpoch()
	}
	d.Sys.CycleN(d.EpochSize)
	results := make([]core.EpochResult, len(d.Runners))
	for i, r := range d.Runners {
		results[i] = r.FinishEpoch()
	}
	d.epoch++
	d.windowCycles += uint64(d.EpochSize)
	d.emitOccupancy(results)
	if d.Pairing != nil && d.epoch%d.AllocEvery == 0 {
		d.reallocate()
	}
	return results
}

// emitOccupancy reports each core's shared-L3 footprint and IPC for the
// finished epoch.
func (d *Driver) emitOccupancy(results []core.EpochResult) {
	if d.Trace == nil || d.Sys.L3() == nil {
		return
	}
	cores := d.Sys.Cores()
	occ := make([]int, cores)
	ipc := make([]float64, cores)
	for c := 0; c < cores; c++ {
		occ[c] = d.Sys.L3().Occupancy(c)
		for _, v := range results[c].IPC {
			ipc[c] += v
		}
	}
	d.Trace.Emit(telemetry.Event{
		Type:   telemetry.TypeOccupancy,
		Run:    d.TraceLabel,
		Epoch:  d.epoch - 1,
		Thread: telemetry.None,
		Shares: occ,
		IPC:    ipc,
	})
}

// updateObs folds the reallocation window's counters into per-thread
// observations: IPC from committed deltas, stall fraction from the
// per-seat dispatch-stall attribution (seats map to a fixed thread for
// the whole window, since migrations only happen at window ends).
func (d *Driver) updateObs() {
	cycles := float64(d.windowCycles)
	if cycles == 0 {
		return
	}
	for g := range d.obs {
		now := d.Sys.Committed(g)
		d.obs[g].IPC = float64(now-d.windowBase[g]) / cycles
	}
	for c := 0; c < d.Sys.Cores(); c++ {
		for ctx := 0; ctx < ContextsPerCore; ctx++ {
			now := d.dispatchStalls(c, ctx)
			g := d.Sys.ThreadAt(c, ctx)
			d.obs[g].StallFrac = float64(now-d.prevDispatch[c][ctx]) / cycles
		}
	}
}

// resetWindow re-baselines the observation window after a reallocation.
func (d *Driver) resetWindow() {
	for g := range d.windowBase {
		d.windowBase[g] = d.Sys.Committed(g)
	}
	for c := range d.prevDispatch {
		for ctx := 0; ctx < ContextsPerCore; ctx++ {
			d.prevDispatch[c][ctx] = d.dispatchStalls(c, ctx)
		}
	}
	d.windowCycles = 0
}

// reallocate asks the pairing policy for a target grouping and applies
// it with at most MaxMoves swaps, in deterministic core order. Cores
// whose membership changed get their hill-climber anchor reset to the
// equal split: the learned partition belonged to the old pair.
func (d *Driver) reallocate() {
	d.updateObs()
	cores := d.Sys.Cores()
	groups := make([][]int, cores)
	for c := 0; c < cores; c++ {
		groups[c] = []int{d.Sys.ThreadAt(c, 0), d.Sys.ThreadAt(c, 1)}
	}
	target := d.Pairing.Pair(d.obs, groups, d.epoch)
	checkGrouping(target, d.Sys.Threads())
	target = d.relabel(target)

	moves := 0
	touched := make([]bool, cores)
	for c := 0; c < cores && moves < d.MaxMoves; c++ {
		for _, want := range target[c] {
			if moves >= d.MaxMoves {
				break
			}
			if d.Sys.SeatOf(want).Core == c {
				continue
			}
			out, ok := d.evictable(c, target[c])
			if !ok {
				continue
			}
			d.swap(want, out)
			touched[c] = true
			touched[d.Sys.SeatOf(out).Core] = true
			moves++
		}
	}
	if moves > 0 {
		for c, t := range touched {
			if t {
				d.resetClimber(c)
			}
		}
	}
	d.resetWindow()
}

// relabel reassigns target groups to cores so the grouping is reached
// with the fewest migrations: a pairing decides who shares a core, not
// which physical core hosts the pair, and migrating a pair that is
// already together onto a different core would squash pipelines and
// cool private caches for nothing. Exact matches keep their core
// first, then best-overlap groups, in deterministic core order.
func (d *Driver) relabel(target [][]int) [][]int {
	cores := d.Sys.Cores()
	out := make([][]int, cores)
	used := make([]bool, len(target))
	for pass := ContextsPerCore; pass >= 0; pass-- {
		for c := 0; c < cores; c++ {
			if out[c] != nil {
				continue
			}
			for ti, grp := range target {
				if used[ti] || d.overlap(c, grp) < pass {
					continue
				}
				out[c] = grp
				used[ti] = true
				break
			}
		}
	}
	return out
}

// overlap counts how many of grp's threads already sit on core c.
func (d *Driver) overlap(c int, grp []int) int {
	n := 0
	for _, g := range grp {
		if d.Sys.SeatOf(g).Core == c {
			n++
		}
	}
	return n
}

// evictable returns a thread on core c that the target grouping does
// not want there.
func (d *Driver) evictable(c int, want []int) (int, bool) {
	for ctx := 0; ctx < ContextsPerCore; ctx++ {
		g := d.Sys.ThreadAt(c, ctx)
		if g != want[0] && g != want[1] {
			return g, true
		}
	}
	return 0, false
}

// swap migrates threads a and b between their cores and emits one
// migration event per moved thread.
func (d *Driver) swap(a, b int) {
	sa, sb := d.Sys.SeatOf(a), d.Sys.SeatOf(b)
	d.Sys.Swap(a, b)
	d.emitMigration(a, sa.Core, sb.Core)
	d.emitMigration(b, sb.Core, sa.Core)
}

func (d *Driver) emitMigration(g, from, to int) {
	if d.Trace == nil {
		return
	}
	d.Trace.Emit(telemetry.Event{
		Type:   telemetry.TypeMigration,
		Run:    d.TraceLabel,
		Epoch:  d.epoch,
		Thread: g,
		Attrs: map[string]string{
			"from":   strconv.Itoa(from),
			"to":     strconv.Itoa(to),
			"policy": d.Pairing.Name(),
		},
	})
}

// resetClimber restores core c's climber anchor to the equal partition
// after its thread pair changed. Any anchored distributor qualifies —
// the round-robin HillClimber and the batched Steepest both learn a
// partition that belonged to the old pair.
func (d *Driver) resetClimber(c int) {
	if h, ok := d.Runners[c].Dist.(interface{ SetAnchor(resource.Shares) }); ok {
		h.SetAnchor(resource.EqualShares(ContextsPerCore, d.RenameRegs))
	}
}

// checkGrouping panics unless groups is a permutation of [0, n) in
// ContextsPerCore-sized groups — the contract every Pairing must meet.
func checkGrouping(groups [][]int, n int) {
	seen := make([]bool, n)
	count := 0
	for _, grp := range groups {
		if len(grp) != ContextsPerCore {
			panic(fmt.Sprintf("multicore: pairing returned a %d-thread group", len(grp)))
		}
		for _, g := range grp {
			if g < 0 || g >= n || seen[g] {
				panic(fmt.Sprintf("multicore: pairing grouping is not a permutation: %v", groups))
			}
			seen[g] = true
			count++
		}
	}
	if count != n {
		panic(fmt.Sprintf("multicore: pairing grouped %d of %d threads", count, n))
	}
}
