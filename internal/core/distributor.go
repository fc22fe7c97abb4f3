// Package core implements the paper's contribution: learning-based SMT
// resource distribution. Execution is divided into fixed-size epochs
// (Section 3.1.1); at each epoch boundary a Distributor chooses a
// partitioning of the integer rename registers (applied proportionally to
// the integer IQ and ROB by internal/resource), informed by the measured
// performance of previous epochs.
//
// The package provides:
//
//   - Runner: the epoch framework, including on-line SingleIPC sampling
//     for the weighted feedback metrics (Section 4.2).
//   - HillClimber: the on-line learning algorithm of Figure 8.
//   - OffLine: the idealised exhaustive-search algorithm of Section 3.1,
//     built on machine checkpointing.
//   - RandHill: the multi-start hill-climbing ideal used for 4-thread
//     workloads (Section 4.3).
//   - Steepest: a steepest-ascent climber that probes the anchor and all
//     T ±Delta shifts on checkpointed clones before every live epoch.
//   - PhaseHill: the Section 5 extension driven by phase detection and
//     prediction (internal/phase).
package core

import (
	"smthill/internal/pipeline"
	"smthill/internal/resource"
)

// EpochResult records one completed epoch.
type EpochResult struct {
	// Index is the epoch's ordinal within the run (sampling epochs
	// included).
	Index int
	// Shares is the partitioning in effect (nil = unpartitioned).
	Shares resource.Shares
	// Committed is the per-thread instruction count for the epoch.
	Committed []uint64
	// IPC is the per-thread IPC for the epoch.
	IPC []float64
	// Score is the feedback metric evaluated on this epoch.
	Score float64
	// Sample marks a SingleIPC sampling epoch (all other threads were
	// disabled); SampledThread is the thread measured.
	Sample        bool
	SampledThread int
	// BBV holds each thread's Basic Block Vector for the epoch.
	BBV [][pipeline.BBVEntries]uint32
}

// Distributor decides the resource partitioning for each upcoming epoch.
type Distributor interface {
	// Name identifies the technique in reports.
	Name() string
	// Decide returns the shares for the next epoch given the previous
	// learning epoch's result (nil before the first epoch). Returning
	// nil shares leaves the machine unpartitioned.
	Decide(prev *EpochResult) resource.Shares
	// OverheadCycles is the software cost charged as a full-machine
	// stall at each epoch boundary (the paper charges its hill-climbing
	// implementation 200 cycles).
	OverheadCycles() int
}

// None is the identity distributor: no partitioning, no overhead. Used to
// run the ICOUNT/FLUSH/STALL/DCRA baselines under the same epoch
// bookkeeping as the learning techniques.
type None struct{ Label string }

// Name implements Distributor.
func (n None) Name() string {
	if n.Label == "" {
		return "none"
	}
	return n.Label
}

// Decide implements Distributor.
func (None) Decide(*EpochResult) resource.Shares { return nil }

// OverheadCycles implements Distributor.
func (None) OverheadCycles() int { return 0 }

// Static partitions the machine equally and never adapts — the simplest
// explicit partitioning scheme (Raasch & Reinhardt), used as an ablation
// baseline.
type Static struct {
	shares resource.Shares
}

// NewStatic returns an equal static partitioning for the given machine
// geometry.
func NewStatic(threads, renameRegs int) *Static {
	return &Static{shares: resource.EqualShares(threads, renameRegs)}
}

// Name implements Distributor.
func (*Static) Name() string { return "STATIC" }

// Decide implements Distributor.
func (s *Static) Decide(*EpochResult) resource.Shares { return s.shares }

// OverheadCycles implements Distributor.
func (*Static) OverheadCycles() int { return 0 }

// Fixed always returns the given shares; it is the building block the
// experiment harness uses to evaluate one specific partitioning.
type Fixed struct {
	Shares resource.Shares
}

// Name implements Distributor.
func (*Fixed) Name() string { return "FIXED" }

// Decide implements Distributor.
func (f *Fixed) Decide(*EpochResult) resource.Shares { return f.Shares }

// OverheadCycles implements Distributor.
func (*Fixed) OverheadCycles() int { return 0 }
