package core

import (
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/rng"
	"smthill/internal/telemetry"
)

// EnumerateShares calls f with every division of total rename registers
// across threads where each share is at least MinShare and shares advance
// in steps of stride. The enumeration matches the paper's exhaustive
// search (stride 2 over 256 registers for 2 threads ≈ 127 trials).
func EnumerateShares(threads, total, stride int, f func(resource.Shares)) {
	if stride < 1 {
		stride = 1
	}
	s := make(resource.Shares, threads)
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == threads-1 {
			if remaining >= resource.MinShare {
				s[i] = remaining
				f(s.Clone())
			}
			return
		}
		reserve := resource.MinShare * (threads - 1 - i)
		for v := resource.MinShare; remaining-v >= reserve; v += stride {
			s[i] = v
			rec(i+1, remaining-v)
		}
	}
	rec(0, total)
}

// Trial records one sampled partitioning of an epoch's search.
type Trial struct {
	Shares resource.Shares
	Score  float64
	IPC    []float64
}

// OffLineEpoch is one epoch of an idealised (checkpoint-based) learning
// run: the trials explored and the winner actually executed.
type OffLineEpoch struct {
	EpochResult
	// Trials lists every partitioning sampled for this epoch (in
	// enumeration order for OffLine; in visit order for RandHill).
	Trials []Trial
}

// checkpointSearch is the state OffLine and RandHill share: the machine
// they advance along each epoch's winning trial, how trials are scored,
// and the trial batch the candidates run on.
type checkpointSearch struct {
	// M is the machine; it is replaced by the winning trial's machine
	// after each epoch.
	M *pipeline.Machine
	// Metric scores trials.
	Metric metrics.Kind
	// Singles are the stand-alone IPCs used by the weighted metrics
	// (known a priori in the ideal setting).
	Singles []float64
	// EpochSize is the epoch length in cycles.
	EpochSize int
	// Trace, when non-nil, receives one epoch event per epoch carrying
	// the winning partition vector and the winning trial's
	// stall-attribution counts (each trial clone gets a fresh recorder;
	// only the winner's — the execution actually kept — is reported).
	Trace telemetry.Sink
	// TraceLabel labels emitted events.
	TraceLabel string

	epoch int
	tb    trialBatch
}

// startEpoch checkpoints the live machine for one epoch's search.
func (c *checkpointSearch) startEpoch() *epochEval {
	return c.tb.startEpoch(c.M, DefaultTrialBatch, c.EpochSize, commitCounts(c.M),
		c.Metric, c.Singles, c.Trace)
}

// finishEpoch advances along the epoch's winning trial (the others cost
// nothing), measures it, and reports the epoch.
func (c *checkpointSearch) finishEpoch(ev *epochEval) OffLineEpoch {
	best, bestTrial, trials := ev.adopt()
	c.M = best
	committed, ipc := measureEpoch(c.M, ev.base, c.EpochSize)
	res := OffLineEpoch{
		EpochResult: EpochResult{
			Index:     c.epoch,
			Shares:    bestTrial.Shares,
			Committed: committed,
			IPC:       ipc,
			Score:     bestTrial.Score,
		},
		Trials: trials,
	}
	c.epoch++
	emitIdealEpoch(c.Trace, c.TraceLabel, c.M, &res.EpochResult)
	return res
}

// OffLine is the Section 3.1 ideal: at each epoch boundary the machine is
// checkpointed, the epoch is executed once for every candidate
// partitioning, and the machine advances along the best-scoring trial.
// Only the winning trial's execution time is charged.
type OffLine struct {
	checkpointSearch
	// Stride is the enumeration step in rename registers (the paper
	// uses 2; larger strides trade fidelity for simulation time).
	Stride int

	cands []resource.Shares
}

// NewOffLine returns an OffLine searcher over m with the paper's default
// epoch size and stride 2.
func NewOffLine(m *pipeline.Machine, metric metrics.Kind, singles []float64) *OffLine {
	return &OffLine{
		checkpointSearch: checkpointSearch{
			M:         m,
			Metric:    metric,
			Singles:   singles,
			EpochSize: DefaultEpochSize,
		},
		Stride: 2,
	}
}

// measure computes the per-thread committed counts and IPCs of machine m
// for the epoch that just ran, relative to baseline counts.
func measureEpoch(m *pipeline.Machine, base []uint64, epochSize int) ([]uint64, []float64) {
	t := m.Threads()
	committed := make([]uint64, t)
	ipc := make([]float64, t)
	for th := 0; th < t; th++ {
		committed[th] = m.Committed(th) - base[th]
		ipc[th] = float64(committed[th]) / float64(epochSize)
	}
	return committed, ipc
}

func commitCounts(m *pipeline.Machine) []uint64 {
	out := make([]uint64, m.Threads())
	for th := range out {
		out[th] = m.Committed(th)
	}
	return out
}

// emitIdealEpoch reports one checkpoint-search epoch to a trace sink.
// The machine is the adopted winner; its fresh per-epoch recorder (if
// any) holds exactly this epoch's stall attribution.
func emitIdealEpoch(sink telemetry.Sink, label string, m *pipeline.Machine, res *EpochResult) {
	if sink == nil {
		return
	}
	var stalls map[string]uint64
	if rec := m.Recorder(); rec != nil {
		stalls = telemetry.Sub(rec.Totals(), nil)
	}
	sink.Emit(telemetry.Event{
		Type:      telemetry.TypeEpoch,
		Run:       label,
		Epoch:     res.Index,
		Kind:      telemetry.KindLearning,
		Thread:    telemetry.None,
		Shares:    res.Shares,
		IPC:       res.IPC,
		Committed: res.Committed,
		Score:     res.Score,
		Stalls:    stalls,
	})
}

// RunEpoch checkpoints the machine, tries every candidate partitioning
// for one epoch, advances along the best, and returns the epoch record.
// Candidates run in batched lock-step waves over a shared decoded
// stream, still scored in enumeration order with a first-strictly-
// greater tie-break, so the winner — and every figure derived from it —
// is identical to the old one-trial-at-a-time loop.
func (o *OffLine) RunEpoch() OffLineEpoch {
	total := o.M.Resources().Sizes()[resource.IntRename]
	o.cands = o.cands[:0]
	EnumerateShares(o.M.Threads(), total, o.Stride, func(s resource.Shares) {
		o.cands = append(o.cands, s)
	})
	if len(o.cands) == 0 {
		panic("core: share enumeration produced no trials")
	}
	ev := o.startEpoch()
	ev.evalWave(o.cands)
	return o.finishEpoch(ev)
}

// Run executes n epochs.
func (o *OffLine) Run(n int) []OffLineEpoch {
	out := make([]OffLineEpoch, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, o.RunEpoch())
	}
	return out
}

// RandHill is the 4-thread ideal of Section 4.3: like OffLine it uses
// checkpointing to search the current epoch with zero charged overhead,
// but instead of exhaustive enumeration it performs hill-climbing passes
// restarted from random anchors, bounded by a total trial budget of
// MaxIters outer-loop iterations (the paper uses 128).
type RandHill struct {
	checkpointSearch
	// Delta is the hill step (Figure 8's 4).
	Delta int
	// MaxIters bounds the total number of trials per epoch.
	MaxIters int
	// Seed makes the random restarts deterministic.
	Seed uint64

	rng        rng.Rng
	seeded     bool
	lastAnchor resource.Shares
	dirs       []resource.Shares
}

// NewRandHill returns a RandHill searcher with the paper's parameters.
func NewRandHill(m *pipeline.Machine, metric metrics.Kind, singles []float64) *RandHill {
	return &RandHill{
		checkpointSearch: checkpointSearch{
			M:         m,
			Metric:    metric,
			Singles:   singles,
			EpochSize: DefaultEpochSize,
		},
		Delta:    DefaultDelta,
		MaxIters: 128,
		Seed:     1,
	}
}

// randomShares draws a random valid partitioning.
func (r *RandHill) randomShares(threads, total int) resource.Shares {
	// Draw T cut weights and scale to the distributable mass above the
	// MinShare floor.
	w := make([]float64, threads)
	sum := 0.0
	for i := range w {
		w[i] = r.rng.Float64() + 1e-3
		sum += w[i]
	}
	mass := total - resource.MinShare*threads
	s := make(resource.Shares, threads)
	used := 0
	for i := range s {
		extra := int(float64(mass) * w[i] / sum)
		s[i] = resource.MinShare + extra
		used += s[i]
	}
	s[threads-1] += total - used // absorb rounding
	return s
}

// RunEpoch searches the current epoch with multi-start hill climbing and
// advances the machine along the best partitioning found. The T shift
// directions of each pass run as one batched lock-step wave; trial visit
// order, the MaxIters budget, and the restart RNG draw order are exactly
// those of the old one-trial-at-a-time loop, so results are identical.
func (r *RandHill) RunEpoch() OffLineEpoch {
	if !r.seeded {
		r.rng = rng.New(r.Seed)
		r.seeded = true
	}
	threads := r.M.Threads()
	total := r.M.Resources().Sizes()[resource.IntRename]

	ev := r.startEpoch()

	anchor := r.lastAnchor
	if anchor == nil {
		anchor = resource.EqualShares(threads, total)
	}
	anchorScore := ev.eval1(anchor).Score

	for ev.count() < r.MaxIters {
		// One hill-climbing pass: sample all T shift directions from the
		// anchor, move while improving; on a peak, restart randomly. The
		// wave is truncated where the serial loop would have run out of
		// iteration budget.
		improved := false
		bestDir, bestDirScore := -1, anchorScore
		r.dirs = r.dirs[:0]
		for d := 0; d < threads && ev.count()+len(r.dirs) < r.MaxIters; d++ {
			r.dirs = append(r.dirs, anchor.Shift(d, r.Delta))
		}
		for d, tr := range ev.evalWave(r.dirs) {
			if tr.Score > bestDirScore {
				bestDir, bestDirScore = d, tr.Score
			}
		}
		if bestDir >= 0 {
			anchor = anchor.Shift(bestDir, r.Delta)
			anchorScore = bestDirScore
			improved = true
		}
		if !improved && ev.count() < r.MaxIters {
			anchor = r.randomShares(threads, total)
			anchorScore = ev.eval1(anchor).Score
		}
	}

	res := r.finishEpoch(ev)
	r.lastAnchor = res.Shares
	return res
}

// Run executes n epochs.
func (r *RandHill) Run(n int) []OffLineEpoch {
	out := make([]OffLineEpoch, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.RunEpoch())
	}
	return out
}
