package pipeline

import (
	"fmt"

	"smthill/internal/resource"
)

// fullCheckInterval is how often (in cycles) the per-cycle checking mode
// runs the full slab cross-check on top of the cheap per-cycle asserts.
const fullCheckInterval = 1024

// invariantState is the bookkeeping behind SetInvariantChecks. It exists
// only while checking is on, so the unchecked hot loop pays a single
// nil-test per cycle.
type invariantState struct {
	// lastCommitSeq holds each thread's most recently committed sequence
	// number plus one (0 = nothing committed yet; sequence numbers start
	// at 0), enforcing program-order commit.
	lastCommitSeq []uint64
	// prevOcc snapshots every occupancy counter at the end of the previous
	// checked cycle; resVersion is the partition-table version that
	// snapshot was taken under.
	prevOcc    []int
	resVersion uint64
}

func (s *invariantState) clone() *invariantState {
	c := &invariantState{resVersion: s.resVersion}
	c.lastCommitSeq = append([]uint64(nil), s.lastCommitSeq...)
	c.prevOcc = append([]int(nil), s.prevOcc...)
	return c
}

// SetInvariantChecks turns per-cycle invariant checking on or off. When
// on, every Cycle ends with resource-conservation and counter-sanity
// asserts, commits are verified to retire in program order, occupancy
// above a shrunken partition limit is verified to drain (never grow), and
// every fullCheckInterval cycles the full slab cross-check
// (CheckInvariants) runs. A violation panics with the failing cycle.
//
// Checking is off by default and costs one nil-test per cycle when off;
// cmd/smtsim exposes it as -check.
func (m *Machine) SetInvariantChecks(on bool) {
	if !on {
		m.inv = nil
		return
	}
	if m.inv == nil {
		m.inv = &invariantState{lastCommitSeq: make([]uint64, len(m.threads))}
	}
}

// checkCommit asserts that thread th is retiring sequence numbers
// strictly in program order. Called from commitOne under m.inv != nil.
func (m *Machine) checkCommit(th int, seq uint64) {
	if next := seq + 1; next <= m.inv.lastCommitSeq[th] {
		panic(fmt.Sprintf("pipeline: cycle %d: thread %d commits seq %d after seq %d (program order violated)",
			m.now, th, seq, m.inv.lastCommitSeq[th]-1))
	}
	m.inv.lastCommitSeq[th] = seq + 1
}

// checkCycle runs the cheap end-of-cycle asserts and, periodically, the
// full slab cross-check. Called from Cycle under m.inv != nil.
func (m *Machine) checkCycle() {
	if err := m.res.CheckConservation(); err != nil {
		panic(fmt.Sprintf("pipeline: cycle %d: %v", m.now, err))
	}
	for th := range m.threads {
		st := &m.threads[th].stats
		if st.Committed > st.Issued || st.Issued > st.Dispatched || st.Dispatched > st.Fetched {
			panic(fmt.Sprintf("pipeline: cycle %d: thread %d stage counters not monotonic (fetched %d >= dispatched %d >= issued %d >= committed %d violated)",
				m.now, th, st.Fetched, st.Dispatched, st.Issued, st.Committed))
		}
	}
	m.checkDrain()
	if m.cycles%fullCheckInterval == 0 {
		if err := m.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("pipeline: cycle %d: %v", m.now, err))
		}
	}
}

// checkDrain enforces the over-limit drain property: a thread's occupancy
// may sit above its partition limit right after the limit shrank (the
// entries drain as they commit), but while the partition programming is
// unchanged it must never grow further past the limit. The
// resource.Table version tells the two apart.
func (m *Machine) checkDrain() {
	inv := m.inv
	n := len(m.threads) * int(resource.NumKinds)
	if cap(inv.prevOcc) < n {
		inv.prevOcc = make([]int, n)
		inv.resVersion = 0 // force a fresh baseline
	}
	sameProgramming := inv.resVersion == m.res.Version() && inv.resVersion != 0
	i := 0
	for th := range m.threads {
		for k := resource.Kind(0); k < resource.NumKinds; k++ {
			occ := m.res.Occ(th, k)
			if sameProgramming && occ > m.res.Limit(th, k) && occ > inv.prevOcc[i] {
				panic(fmt.Sprintf("pipeline: cycle %d: thread %d %v occupancy grew %d -> %d past limit %d (over-limit occupancy must drain)",
					m.now, th, k, inv.prevOcc[i], occ, m.res.Limit(th, k)))
			}
			inv.prevOcc[i] = occ
			i++
		}
	}
	inv.resVersion = m.res.Version()
}

// liveSlots returns the set of slab indices not on the free list.
func (m *Machine) liveSlots() map[int32]bool {
	free := map[int32]bool{}
	for _, idx := range m.free {
		free[idx] = true
	}
	live := map[int32]bool{}
	for i := range m.slab {
		if !free[int32(i)] {
			live[int32(i)] = true
		}
	}
	return live
}

// CheckInvariants cross-checks the machine's entire bookkeeping against
// ground truth recomputed from the slab: ROB entries are live, owned by
// the right thread, and in increasing sequence order; no live slot is
// orphaned outside a ROB; every occupancy counter matches the holds-flags
// in the slab; outstanding-miss counters match in-flight misses; the
// resource table conserves entries (CheckConservation); and the
// machine-level Stats equal the per-thread aggregation. It returns the
// first violation found, or nil.
//
// The walk is O(slab) with map allocations — debugging speed, not
// simulation speed. SetInvariantChecks runs it periodically; tests run it
// directly.
func (m *Machine) CheckInvariants() error {
	live := m.liveSlots()

	// Every ROB entry references a live slot with a matching generation,
	// in increasing sequence order per thread.
	robSet := map[int32]bool{}
	for th := range m.threads {
		var prevSeq uint64
		for i, r := range m.threads[th].liveROB() {
			e := m.get(r)
			if e == nil {
				return fmt.Errorf("thread %d ROB[%d] is stale", th, i)
			}
			if !live[r.idx] {
				return fmt.Errorf("thread %d ROB[%d] references a freed slot", th, i)
			}
			if int(e.thread) != th {
				return fmt.Errorf("thread %d ROB entry belongs to thread %d", th, e.thread)
			}
			if i > 0 && e.inst.Seq <= prevSeq {
				return fmt.Errorf("thread %d ROB out of order at %d", th, i)
			}
			prevSeq = e.inst.Seq
			robSet[r.idx] = true
		}
	}
	// Every live slot is in some ROB (no orphans).
	if len(robSet) != len(live) {
		return fmt.Errorf("%d live slots but %d ROB entries", len(live), len(robSet))
	}

	// Recompute occupancy per thread and kind.
	var occ [maxContexts][resource.NumKinds]int
	for idx := range live {
		e := &m.slab[idx]
		th := int(e.thread)
		occ[th][resource.ROB]++
		if e.holdsIQ == resource.IntIQ || e.holdsIQ == resource.FpIQ {
			occ[th][e.holdsIQ]++
		}
		if e.holdsLSQ {
			occ[th][resource.LSQ]++
		}
		if e.holdsIntR {
			occ[th][resource.IntRename]++
		}
		if e.holdsFpR {
			occ[th][resource.FpRename]++
		}
	}
	for th := range m.threads {
		for k := resource.Kind(0); k < resource.NumKinds; k++ {
			if got := m.res.Occ(th, k); got != occ[th][k] {
				return fmt.Errorf("thread %d %v occupancy %d, slab says %d", th, k, got, occ[th][k])
			}
		}
	}

	// Outstanding-miss counters match the slab.
	for th := range m.threads {
		l2, dm := 0, 0
		for idx := range live {
			e := &m.slab[idx]
			if int(e.thread) != th || e.done {
				continue
			}
			if e.l2miss {
				l2++
			}
			if e.dmiss {
				dm++
			}
		}
		if m.threads[th].outstandingL2 != l2 {
			return fmt.Errorf("thread %d outstandingL2 %d, slab says %d", th, m.threads[th].outstandingL2, l2)
		}
		if m.threads[th].outstandingDMiss != dm {
			return fmt.Errorf("thread %d outstandingDMiss %d, slab says %d", th, m.threads[th].outstandingDMiss, dm)
		}
	}

	// Wakeup bookkeeping. Walk every live producer's consumer chain:
	// each link must name a live consumer whose wait bit for the linked
	// operand slot is set and whose source ref for that slot points back
	// at the producer.
	registered := map[wakeRef]bool{}
	for i := range m.slab {
		pIdx := int32(i)
		if !live[pIdx] {
			continue
		}
		p := &m.slab[pIdx]
		for l := p.wakeHead; l.gen != 0; {
			c := m.get(ref{idx: l.idx, gen: l.gen})
			if c == nil {
				return fmt.Errorf("slot %d wakeup chain holds a stale link", pIdx)
			}
			if c.waitMask&(1<<l.slot) == 0 {
				return fmt.Errorf("slot %d wakeup chain links slot %d operand %d whose wait bit is clear", pIdx, l.idx, l.slot)
			}
			src := c.src1
			if l.slot == 1 {
				src = c.src2
			}
			if src.idx != pIdx || m.slab[pIdx].gen != src.gen {
				return fmt.Errorf("slot %d wakeup chain links slot %d operand %d which reads a different producer", pIdx, l.idx, l.slot)
			}
			if registered[l] {
				return fmt.Errorf("slot %d operand %d registered twice", l.idx, l.slot)
			}
			registered[l] = true
			l = c.wakeNext[l.slot]
		}
	}
	// Conversely: every live instruction's set wait bit has exactly one
	// chain registration (counted above), its producer is live and not
	// done, and done or issued instructions wait on nothing. Live,
	// unissued instructions with no pending operands must be in the ready
	// queue.
	inReady := map[ref]int{}
	var prevStamp uint64
	for i, ent := range m.readyQ {
		inReady[ent.r]++
		if i > 0 && ent.stamp <= prevStamp {
			return fmt.Errorf("ready queue out of stamp order at %d", i)
		}
		prevStamp = ent.stamp
	}
	for i := range m.slab {
		idx := int32(i)
		if !live[idx] {
			continue
		}
		e := &m.slab[idx]
		r := ref{idx: idx, gen: e.gen}
		if (e.issued || e.done) && e.waitMask != 0 {
			return fmt.Errorf("slot %d issued/done but still waiting on operands (mask %#x)", idx, e.waitMask)
		}
		for slot := uint8(0); slot < 2; slot++ {
			reg := wakeRef{idx: idx, gen: e.gen, slot: slot}
			if e.waitMask&(1<<slot) != 0 {
				if !registered[reg] {
					return fmt.Errorf("slot %d operand %d wait bit set but not on its producer's chain", idx, slot)
				}
				src := e.src1
				if slot == 1 {
					src = e.src2
				}
				p := m.get(src)
				if p == nil || p.done {
					return fmt.Errorf("slot %d operand %d waits on an unavailable producer", idx, slot)
				}
			} else if registered[reg] {
				return fmt.Errorf("slot %d operand %d on a wakeup chain but wait bit clear", idx, slot)
			}
		}
		if !e.issued && e.waitMask == 0 && inReady[r] != 1 {
			return fmt.Errorf("slot %d ready but has %d ready-queue entries", idx, inReady[r])
		}
		if e.issued && inReady[r] != 0 {
			return fmt.Errorf("slot %d issued but still in the ready queue", idx)
		}
	}

	// Resource-table conservation and stats aggregation.
	if err := m.res.CheckConservation(); err != nil {
		return err
	}
	want := Total(m.PerThreadStats())
	want.Cycles = m.cycles
	if got := m.Stats(); got != want {
		return fmt.Errorf("machine stats %+v do not aggregate per-thread stats %+v", got, want)
	}
	return nil
}
