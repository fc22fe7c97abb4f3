// Batched lock-step simulation. The learning loops of internal/core are
// dominated by evaluating *sibling* configurations of the same workload
// prefix: the checkpoint-based searchers re-simulate an identical
// committed-path instruction sequence under K slightly different
// resource partitions. Run independently, those K machines each pay the
// full trace-generation and decode cost for byte-identical instruction
// content. A MachineBatch advances the K siblings in lock-step chunks
// over one shared decoded stream (isa.Fanout), so production happens
// once per fetched instruction instead of K times.
//
// Divergence contract: members may diverge in fetch *timing* (a member
// with a tighter partition stalls on different cycles) but never in
// fetch *content* — every member consumes the identical decoded prefix,
// by construction of the fan-out, and a member that somehow fell behind
// a trimmed window fails loudly. The per-cycle FNV golden tests pin a
// batch member's execution to a standalone machine's, cycle for cycle.
package pipeline

import (
	"fmt"

	"smthill/internal/isa"
)

// batchChunk is the lock-step granularity of CycleFirstN: each member
// advances this many cycles before the next member runs. Small enough
// that the shared fan-out window stays hot in cache between the leader
// producing it and the laggards re-reading it; large enough that a
// member's ~0.5MB private state is not reloaded per handful of cycles.
const batchChunk = 512

// MachineBatch is K clones of a source machine advancing in lock-step
// over a shared decoded instruction stream. Members are refilled in
// place from a source checkpoint via CloneInto, run together through
// CycleFirstN, and individually detached (Swap) when a trial wins
// adoption.
type MachineBatch struct {
	src     *Machine
	members []*Machine
	// feeds holds one shared fan-out per hardware context seat.
	feeds []*isa.Fanout
}

// BatchFrom builds a K-member batch over src. It takes over src's
// instruction streams, re-binding each to a shared fan-out reader (the
// sequence src observes is unchanged); src itself is NOT a member and is
// never advanced by the batch — it is the refill checkpoint. Members
// are created immediately as clones of src.
func BatchFrom(src *Machine, k int) *MachineBatch {
	if k < 1 {
		panic(fmt.Sprintf("pipeline: BatchFrom with %d members", k))
	}
	b := &MachineBatch{members: make([]*Machine, k)}
	b.adoptSource(src)
	for i := range b.members {
		b.members[i] = src.Clone()
	}
	return b
}

// adoptSource re-derives the per-seat fan-outs from src's streams,
// wrapping any stream that is not already a fan-out reader. Adopting a
// machine whose readers already sit on this batch's fan-outs (the usual
// trial-winner promotion) is a no-op beyond bookkeeping.
func (b *MachineBatch) adoptSource(src *Machine) {
	b.src = src
	if cap(b.feeds) < len(src.threads) {
		b.feeds = make([]*isa.Fanout, len(src.threads))
	}
	b.feeds = b.feeds[:len(src.threads)]
	for t := range src.threads {
		s := src.threads[t].stream
		if r, ok := s.(*isa.FanoutReader); ok {
			b.feeds[t] = r.Fanout()
			continue
		}
		f := isa.NewFanout(s)
		src.threads[t].stream = f.Origin()
		b.feeds[t] = f
	}
}

// K returns the member count.
func (b *MachineBatch) K() int { return len(b.members) }

// Member returns member i. Callers may configure it (shares, recorder,
// policy) between RefillN and CycleFirstN, and read its statistics after.
func (b *MachineBatch) Member(i int) *Machine { return b.members[i] }

// RefillN overwrites the first n members with a fresh checkpoint of src
// via CloneInto and trims the shared windows to the checkpoint position.
// Passing nil refills from the current source. A partial wave (fewer
// candidates than the batch holds) leaves the remaining members stale;
// they must not be advanced.
func (b *MachineBatch) RefillN(src *Machine, n int) {
	if src == nil {
		src = b.src
	}
	if src != b.src || b.feedsStale(src) {
		b.adoptSource(src)
	}
	for i := 0; i < n; i++ {
		b.members[i] = src.CloneInto(b.members[i])
	}
	b.trimToSource()
}

// feedsStale reports whether any of src's streams is no longer a reader
// of the recorded per-seat fan-out. Context migration (multicore thread
// swaps) replaces a seat's stream wholesale; refilling re-adopts so the
// batch follows the seat's current stream instead of trimming a fan-out
// the source no longer reads.
func (b *MachineBatch) feedsStale(src *Machine) bool {
	if len(b.feeds) != len(src.threads) {
		return true
	}
	for t := range src.threads {
		r, ok := src.threads[t].stream.(*isa.FanoutReader)
		if !ok || r.Fanout() != b.feeds[t] {
			return true
		}
	}
	return false
}

// trimToSource discards fan-out window prefixes below the checkpoint's
// read positions. Every live reader outside the batch was cloned from
// the source at or after this position, so nothing can read below it.
func (b *MachineBatch) trimToSource() {
	for t, f := range b.feeds {
		if r, ok := b.src.threads[t].stream.(*isa.FanoutReader); ok {
			f.TrimTo(r.Pos())
		}
	}
}

// Swap replaces member i with repl (which must be shaped like the other
// members, or nil to leave the slot empty until the next RefillN clones
// it afresh) and returns the outgoing member. This is how a winning
// trial is promoted to the live machine: the caller takes the winner out
// and hands the dethroned live machine back as the replacement.
func (b *MachineBatch) Swap(i int, repl *Machine) *Machine {
	out := b.members[i]
	b.members[i] = repl
	return out
}

// CycleFirstN advances members [0, k) by n cycles in lock-step chunks —
// the partial-wave companion of RefillN. It is the batch's hot entry
// point and must not allocate in the steady state (enforced by the
// hotalloc lint root and the alloc regression test).
func (b *MachineBatch) CycleFirstN(k, n int) {
	if k > len(b.members) {
		k = len(b.members)
	}
	for done := 0; done < n; done += batchChunk {
		c := min(batchChunk, n-done)
		for _, m := range b.members[:k] {
			m.CycleN(c)
		}
	}
}
