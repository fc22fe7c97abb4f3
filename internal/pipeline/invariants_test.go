package pipeline

import (
	"strings"
	"testing"

	"smthill/internal/isa"
	"smthill/internal/resource"
	"smthill/internal/rng"
	"smthill/internal/trace"
)

// TestInvariantsUnderRandomizedStress runs random machines with random
// partition changes and random policy flushes, checking the full
// bookkeeping every few cycles. Per-cycle checking (the -check mode) is
// enabled on top, so its cheap asserts run every cycle of every trial.
func TestInvariantsUnderRandomizedStress(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 6; trial++ {
		threads := 1 + r.Intn(4)
		profs := make([]trace.Profile, threads)
		streams := make([]isa.Stream, threads)
		for i := range profs {
			if r.Bool(0.5) {
				profs[i] = memProfile(r.Uint64())
			} else {
				profs[i] = ilpProfile(r.Uint64())
			}
			streams[i] = trace.New(profs[i])
		}
		m := New(DefaultConfig(threads), streams, nil)
		m.SetInvariantChecks(true)
		total := m.Resources().Sizes()[resource.IntRename]
		for c := 0; c < 6_000; c++ {
			m.Cycle()
			if c%97 == 0 {
				// Random partition move.
				shares := resource.EqualShares(threads, total)
				for k := 0; k < 5; k++ {
					shares = shares.Shift(r.Intn(threads), 4+r.Intn(8))
				}
				m.Resources().SetShares(shares)
			}
			if c%211 == 0 {
				// Random flush of a random thread.
				th := r.Intn(threads)
				if rob := m.threads[th].liveROB(); len(rob) > 1 {
					cut := rob[r.Intn(len(rob))]
					if e := m.get(cut); e != nil {
						m.FlushAfter(th, e.inst.Seq)
					}
				}
			}
			if c%53 == 0 {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("trial %d cycle %d: %v", trial, c, err)
				}
			}
		}
		// Final deep check plus clone equivalence.
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d final: %v", trial, err)
		}
		c := m.Clone()
		if c.inv == nil {
			t.Fatal("clone dropped invariant-checking mode")
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("trial %d clone: %v", trial, err)
		}
	}
}

// TestCorruptedSharesTripConservationCheck programs a share vector whose
// sum does not match the rename file and expects the per-cycle
// conservation check to catch it.
func TestCorruptedSharesTripConservationCheck(t *testing.T) {
	threads := 2
	streams := []isa.Stream{
		trace.New(ilpProfile(1)),
		trace.New(memProfile(2)),
	}
	m := New(DefaultConfig(threads), streams, nil)
	m.SetInvariantChecks(true)
	m.CycleN(100)

	total := m.Resources().Sizes()[resource.IntRename]
	bad := resource.EqualShares(threads, total)
	bad[0] -= 16 // sum now short by 16: registers leaked out of the machine
	m.Resources().SetShares(bad)

	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("corrupted share vector did not trip the conservation check")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "shares sum") {
			panic(rec) // not our panic; let it propagate
		}
	}()
	m.Cycle()
}

// TestCheckInvariantsReportsCorruption corrupts bookkeeping directly and
// expects CheckInvariants to return an error rather than nil.
func TestCheckInvariantsReportsCorruption(t *testing.T) {
	m := New(DefaultConfig(2), []isa.Stream{
		trace.New(ilpProfile(3)),
		trace.New(ilpProfile(4)),
	}, nil)
	m.CycleN(500)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("healthy machine failed check: %v", err)
	}
	// Leak one ROB entry's worth of occupancy.
	m.res.Free(0, resource.ROB)
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed a leaked ROB entry")
	}
}

// TestInvariantChecksOffByDefault pins the zero-cost-when-off contract's
// functional half: no checking state exists unless requested.
func TestInvariantChecksOffByDefault(t *testing.T) {
	m := New(DefaultConfig(1), []isa.Stream{trace.New(ilpProfile(5))}, nil)
	if m.inv != nil {
		t.Fatal("invariant checks on by default")
	}
	m.SetInvariantChecks(true)
	if m.inv == nil {
		t.Fatal("SetInvariantChecks(true) did not enable checking")
	}
	m.SetInvariantChecks(false)
	if m.inv != nil {
		t.Fatal("SetInvariantChecks(false) did not disable checking")
	}
}
