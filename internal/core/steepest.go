package core

import (
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
)

// Steepest is the batched steepest-ascent climber, made affordable by
// pipeline.MachineBatch. Where HillClimber dedicates one live epoch to
// each of the T trial directions — a round of T epochs per anchor move,
// during which the machine runs whatever it is testing —
// Steepest evaluates the anchor and all T ±Delta shifts simultaneously
// on a batch of speculative clones of the live machine, then partitions
// the next live epoch with the measured argmax. Every live epoch runs
// the best known move; the exploration happens off to the side on the
// shared decoded stream, where sibling trials cost ~1/K of a full
// re-simulation each.
//
// Steepest implements Distributor, so it drops into every harness a
// HillClimber fits: core.Runner, the phase extension, and the multicore
// per-core climbers (Driver.resetClimber recognises its SetAnchor).
type Steepest struct {
	// M is the live machine probes are cloned from. The Runner advances
	// it; Steepest never does. Rebind when the runner's machine changes.
	M *pipeline.Machine
	// Delta is the shift step in rename registers.
	Delta int
	// Metric scores probe trials.
	Metric metrics.Kind
	// Singles, when non-nil, supplies the stand-alone IPC estimates the
	// weighted metrics need (e.g. a Runner's Singles method); nil scores
	// probes unweighted.
	Singles func() []float64
	// Overhead is the per-invocation stall cost charged to the live
	// machine, modelling the software implementation.
	Overhead int
	// ProbeCycles is each probe's horizon; DefaultEpochSize when 0.
	ProbeCycles int

	threads int
	total   int
	anchor  resource.Shares
	tb      trialBatch
	cands   []resource.Shares
}

// NewSteepest returns a steepest-ascent climber for a machine with the
// given thread count and rename-register file size, with the paper's
// step size and overhead. The initial anchor is the equal partitioning.
// Bind M (the live machine probes clone from) before the first Decide.
func NewSteepest(threads, renameRegs int, metric metrics.Kind) *Steepest {
	return &Steepest{
		Delta:       DefaultDelta,
		Metric:      metric,
		Overhead:    HillOverheadCycles,
		ProbeCycles: DefaultEpochSize,
		threads:     threads,
		total:       renameRegs,
		anchor:      resource.EqualShares(threads, renameRegs),
	}
}

// Name implements Distributor.
func (s *Steepest) Name() string {
	switch s.Metric {
	case metrics.AvgIPC:
		return "STEEP-IPC"
	case metrics.HmeanWeightedIPC:
		return "STEEP-HWIPC"
	default:
		return "STEEP-WIPC"
	}
}

// OverheadCycles implements Distributor.
func (s *Steepest) OverheadCycles() int { return s.Overhead }

// SetAnchor moves the anchor — the phase extension restoring a learned
// partition, or the multicore driver resetting a migrated core's
// climber to the equal split.
func (s *Steepest) SetAnchor(shares resource.Shares) { s.anchor = shares.Clone() }

// Decide implements Distributor: probe the anchor and every ±Delta
// shift for ProbeCycles on batched clones of the live machine, adopt
// the argmax as the new anchor, and partition the next epoch with it.
// Ties keep the anchor (probe 0), so a flat neighbourhood does not
// wander.
func (s *Steepest) Decide(prev *EpochResult) resource.Shares {
	if s.M == nil {
		panic("core: Steepest.Decide with no machine bound; set M to the runner's machine")
	}
	probe := s.ProbeCycles
	if probe <= 0 {
		probe = DefaultEpochSize
	}
	s.cands = append(s.cands[:0], s.anchor)
	for d := 0; d < s.threads; d++ {
		s.cands = append(s.cands, s.anchor.Shift(d, s.Delta))
	}
	var singles []float64
	if s.Singles != nil {
		singles = s.Singles()
	}
	ev := s.tb.startEpoch(s.M, s.threads+1, probe, commitCounts(s.M), s.Metric, singles, nil)
	ev.evalWave(s.cands)
	s.anchor = ev.probe().Shares
	return s.anchor
}
