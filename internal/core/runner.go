package core

import (
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/telemetry"
)

// DefaultEpochSize is the epoch length in cycles the paper settles on
// (Section 3.1.1).
const DefaultEpochSize = 64 * 1024

// DefaultSamplePeriod is how often (in epochs) a SingleIPC sample is
// taken when the feedback metric needs stand-alone IPCs; each thread is
// sampled once every DefaultSamplePeriod*T epochs (Section 4.2).
const DefaultSamplePeriod = 40

// Runner drives a machine through epochs under a Distributor, computing
// the feedback metric for each epoch and handling on-line SingleIPC
// sampling.
type Runner struct {
	// M is the machine being driven. OffLine replaces it as learning
	// advances; Runner only advances it.
	M *pipeline.Machine
	// Dist chooses partitions.
	Dist Distributor
	// Metric is the feedback metric used to score epochs.
	Metric metrics.Kind
	// EpochSize is the epoch length in cycles.
	EpochSize int
	// SamplePeriod controls SingleIPC sampling (0 disables it). Samples
	// are only taken when Metric.NeedsSingleIPC().
	SamplePeriod int
	// ReferenceSingles, when non-nil, supplies known stand-alone IPCs
	// and disables on-line sampling (used by the idealised algorithms
	// and by experiments that precompute solo runs).
	ReferenceSingles []float64
	// RenameOnly applies partitions to the integer rename registers
	// only, leaving the IQ and ROB fully shared — the ablation of the
	// paper's proportional-partitioning rule (Section 3.1.2).
	RenameOnly bool
	// Trace, when non-nil, receives one telemetry epoch event per
	// completed epoch: partition vector, per-thread IPC, metric score,
	// sampling markers, and — when the machine has a telemetry recorder
	// attached — the epoch's stall-attribution deltas.
	Trace telemetry.Sink
	// TraceLabel labels this run's events (typically
	// "workload/technique"), so interleaved traces stay attributable.
	TraceLabel string

	epoch      int
	sampleNext int
	singles    []float64
	lastCommit []uint64
	prev       *EpochResult
	results    []EpochResult
	prevStalls map[string]uint64
	pending    pendingEpoch
}

// pendingEpoch carries the decisions of PrepareEpoch across the cycle
// phase to FinishEpoch, so an external lock-step driver (the multicore
// System) can advance several runners' machines together between the
// two halves.
type pendingEpoch struct {
	active        bool
	sample        bool
	sampledThread int
	shares        []int
}

// NewRunner returns a Runner with the paper's default epoch size and
// sampling period.
func NewRunner(m *pipeline.Machine, dist Distributor, metric metrics.Kind) *Runner {
	return &Runner{
		M:            m,
		Dist:         dist,
		Metric:       metric,
		EpochSize:    DefaultEpochSize,
		SamplePeriod: DefaultSamplePeriod,
	}
}

// Results returns all epoch results recorded so far.
func (r *Runner) Results() []EpochResult { return r.results }

// Singles returns the current stand-alone IPC estimates (sampled or
// reference).
func (r *Runner) Singles() []float64 {
	if r.ReferenceSingles != nil {
		return r.ReferenceSingles
	}
	return r.singles
}

func (r *Runner) ensure() {
	t := r.M.Threads()
	if r.singles == nil {
		r.singles = make([]float64, t)
	}
	if r.lastCommit == nil {
		r.lastCommit = make([]uint64, t)
		for th := 0; th < t; th++ {
			r.lastCommit[th] = r.M.Committed(th)
		}
		// Baseline the stall counters so the first epoch's delta excludes
		// warmup cycles run before the first RunEpoch.
		if rec := r.M.Recorder(); rec != nil && r.Trace != nil {
			r.prevStalls = rec.Totals()
		}
	}
}

// stallDelta returns the stall-attribution counts accumulated since the
// previous epoch boundary (nil when the machine has no recorder).
func (r *Runner) stallDelta() map[string]uint64 {
	rec := r.M.Recorder()
	if rec == nil {
		return nil
	}
	cur := rec.Totals()
	d := telemetry.Sub(cur, r.prevStalls)
	r.prevStalls = cur
	return d
}

// emitEpoch sends res to the trace sink as a telemetry epoch event.
func (r *Runner) emitEpoch(res *EpochResult) {
	if r.Trace == nil {
		return
	}
	kind, thread := telemetry.KindLearning, telemetry.None
	if res.Sample {
		kind, thread = telemetry.KindSample, res.SampledThread
	}
	r.Trace.Emit(telemetry.Event{
		Type:      telemetry.TypeEpoch,
		Run:       r.TraceLabel,
		Epoch:     res.Index,
		Kind:      kind,
		Thread:    thread,
		Shares:    res.Shares,
		IPC:       res.IPC,
		Committed: res.Committed,
		Score:     res.Score,
		Stalls:    r.stallDelta(),
	})
}

// needsSample reports whether the upcoming epoch should be a SingleIPC
// sampling epoch, and for which thread. The first T epochs sample each
// thread once — an unknown SingleIPC weights its thread neutrally, which
// biases the weighted-IPC gradient until every thread has been measured —
// and afterwards one thread is refreshed every SamplePeriod epochs in
// rotation, so each thread's SingleIPC refreshes every SamplePeriod*T
// epochs (Section 4.2).
func (r *Runner) needsSample() (int, bool) {
	if r.ReferenceSingles != nil || r.SamplePeriod <= 0 || !r.Metric.NeedsSingleIPC() {
		return 0, false
	}
	t := r.M.Threads()
	if t < 2 {
		return 0, false // a lone thread's IPC is its SingleIPC
	}
	if r.epoch < t {
		return r.epoch, true
	}
	if r.epoch%r.SamplePeriod == 0 {
		th := r.sampleNext % t
		return th, true
	}
	return 0, false
}

// epochIPCs measures per-thread committed counts and IPCs since the last
// epoch boundary.
func (r *Runner) epochIPCs() ([]uint64, []float64) {
	t := r.M.Threads()
	committed := make([]uint64, t)
	ipc := make([]float64, t)
	for th := 0; th < t; th++ {
		now := r.M.Committed(th)
		committed[th] = now - r.lastCommit[th]
		r.lastCommit[th] = now
		ipc[th] = float64(committed[th]) / float64(r.EpochSize)
	}
	return committed, ipc
}

// collectBBV snapshots and resets every thread's Basic Block Vector.
func (r *Runner) collectBBV() [][pipeline.BBVEntries]uint32 {
	t := r.M.Threads()
	out := make([][pipeline.BBVEntries]uint32, t)
	for th := 0; th < t; th++ {
		out[th] = r.M.BBV(th)
		r.M.ResetBBV(th)
	}
	return out
}

// RunEpoch executes one epoch (a sampling epoch when one is due,
// otherwise a learning epoch) and returns its result.
func (r *Runner) RunEpoch() EpochResult {
	r.PrepareEpoch()
	r.M.CycleN(r.EpochSize)
	return r.FinishEpoch()
}

// PrepareEpoch applies the upcoming epoch's decisions to the machine —
// the distributor's partition choice and overhead stall for a learning
// epoch, or the fetch-disable dance for a SingleIPC sampling epoch —
// without advancing it. The caller must then run the machine EpochSize
// cycles (directly, or in lock-step with sibling cores via
// multicore.System) and call FinishEpoch. RunEpoch is the single-core
// composition of the two.
func (r *Runner) PrepareEpoch() {
	r.ensure()
	if r.pending.active {
		panic("core: PrepareEpoch called twice without FinishEpoch")
	}
	if th, ok := r.needsSample(); ok {
		t := r.M.Threads()
		for i := 0; i < t; i++ {
			r.M.SetFetchEnabled(i, i == th)
		}
		r.M.Resources().ClearPartitions()
		r.pending = pendingEpoch{active: true, sample: true, sampledThread: th}
		return
	}
	shares := r.Dist.Decide(r.prev)
	switch {
	case shares == nil:
		r.M.Resources().ClearPartitions()
	case r.RenameOnly:
		r.M.Resources().SetSharesRenameOnly(shares)
	default:
		r.M.Resources().SetShares(shares)
	}
	if o := r.Dist.OverheadCycles(); o > 0 {
		r.M.Stall(o)
	}
	r.pending = pendingEpoch{active: true, shares: shares}
}

// FinishEpoch measures the epoch prepared by PrepareEpoch after the
// machine has run EpochSize cycles, records the result, and returns it.
func (r *Runner) FinishEpoch() EpochResult {
	p := r.pending
	if !p.active {
		panic("core: FinishEpoch called without PrepareEpoch")
	}
	r.pending = pendingEpoch{}
	if p.sample {
		return r.finishSampleEpoch(p.sampledThread)
	}
	committed, ipc := r.epochIPCs()
	res := EpochResult{
		Index:     r.epoch,
		Shares:    p.shares,
		Committed: committed,
		IPC:       ipc,
		Score:     r.Metric.Eval(ipc, r.Singles()),
		BBV:       r.collectBBV(),
	}
	r.epoch++
	r.prev = &res
	r.results = append(r.results, res)
	r.emitEpoch(&res)
	return res
}

// finishSampleEpoch completes a SingleIPC sampling epoch: re-enables
// fetch for every thread and records thread th's stand-alone IPC. The
// lost throughput of the disabled threads is the sampling cost the
// paper accounts for.
func (r *Runner) finishSampleEpoch(th int) EpochResult {
	t := r.M.Threads()
	for i := 0; i < t; i++ {
		r.M.SetFetchEnabled(i, true)
	}

	committed, ipc := r.epochIPCs()
	r.singles[th] = ipc[th]
	res := EpochResult{
		Index:         r.epoch,
		Committed:     committed,
		IPC:           ipc,
		Sample:        true,
		SampledThread: th,
		BBV:           r.collectBBV(),
	}
	r.epoch++
	// Sampling epochs do not feed the distributor: r.prev is unchanged.
	r.sampleNext++
	r.results = append(r.results, res)
	r.emitEpoch(&res)
	return res
}

// Run executes n epochs and returns their results.
func (r *Runner) Run(n int) []EpochResult {
	out := make([]EpochResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.RunEpoch())
	}
	return out
}

// TotalsSince aggregates per-thread IPCs over the recorded epochs
// [from, len). Sampling epochs are included in the denominator — their
// cost is real execution time.
func (r *Runner) TotalsSince(from int) []float64 {
	t := r.M.Threads()
	committed := make([]uint64, t)
	cycles := uint64(0)
	for _, e := range r.results[from:] {
		for th := 0; th < t; th++ {
			committed[th] += e.Committed[th]
		}
		cycles += uint64(r.EpochSize)
	}
	ipc := make([]float64, t)
	if cycles == 0 {
		return ipc
	}
	for th := 0; th < t; th++ {
		ipc[th] = float64(committed[th]) / float64(cycles)
	}
	return ipc
}

// SoloIPC runs a fresh machine containing only the given stream-factory's
// thread for cycles and returns its IPC. The experiment harness uses it
// to compute the reference SingleIPC of each application (end-to-end
// stand-alone run, Section 4.3).
func SoloIPC(m *pipeline.Machine, cycles int) float64 {
	start := m.Committed(0)
	m.CycleN(cycles)
	return float64(m.Committed(0)-start) / float64(cycles)
}
