package smthill

import (
	"testing"

	"smthill/internal/pipeline"
	"smthill/internal/workload"
)

// TestCycleSteadyStateAllocFree pins the hot loop's zero-allocation
// contract: after a warmup long enough for every recycled slice (ROB,
// pending buffers, ready queue, completion ring, slab free list) to reach
// its high-water capacity, advancing the machine must not allocate at
// all. A regression here is a real performance bug — one allocation per
// cycle is worth roughly 10% of simulator throughput — so the test fails
// on any nonzero count rather than a threshold.
func TestCycleSteadyStateAllocFree(t *testing.T) {
	for _, name := range []string{"art-gzip", "art-mcf"} {
		m := workload.ByName(name).NewMachine(nil)
		m.CycleN(50_000) // reach steady-state capacities
		allocs := testing.AllocsPerRun(20, func() {
			m.CycleN(500)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Cycle allocates (%.1f allocs per 500 cycles, want 0)", name, allocs)
		}
	}
}

// TestCloneIntoSteadyStateAllocLight verifies the pooled checkpoint loop
// stays near allocation-free: recycling one destination machine, a
// CloneInto costs at most the policy's Clone and stray map/header
// allocations — single digits, versus ~70 for a full Clone.
func TestCloneIntoSteadyStateAllocLight(t *testing.T) {
	src := workload.ByName("art-gzip").NewMachine(nil)
	src.CycleN(20_000)
	var dst *pipeline.Machine
	dst = src.CloneInto(dst)
	allocs := testing.AllocsPerRun(20, func() {
		dst = src.CloneInto(dst)
	})
	if allocs > 4 {
		t.Errorf("pooled CloneInto allocates %.1f times per checkpoint, want <= 4", allocs)
	}
}

// TestCloneIntoShapeMismatchPanics pins the contract that CloneInto
// refuses structurally incompatible destinations instead of silently
// corrupting them.
func TestCloneIntoShapeMismatchPanics(t *testing.T) {
	src := workload.ByName("art-gzip").NewMachine(nil)             // 2 threads
	other := workload.ByName("art-mcf-swim-twolf").NewMachine(nil) // 4 threads
	defer func() {
		if recover() == nil {
			t.Fatal("CloneInto accepted a destination of a different shape")
		}
	}()
	src.CloneInto(other.Clone())
}
