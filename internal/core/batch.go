package core

import (
	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// DefaultTrialBatch is how many sibling trial machines OffLine and
// RandHill advance together in one lock-step wave (Steepest sizes its
// batch to its T+1 probes).
// Each member is a full machine checkpoint (~0.5MB), so the batch size
// trades memory against shared-decode amortization; eight keeps the
// working set modest while decode runs once per instruction instead of
// once per trial.
const DefaultTrialBatch = 8

// trialBatch owns the pipeline.MachineBatch a searcher evaluates its
// candidate partitionings on; it is the one trial evaluator behind
// OffLine, RandHill, and Steepest. The batch's members are the recycled
// trial machines (refilled in place via CloneInto), and one spare
// machine circulates through Swap so promoting a wave's winner never
// leaves a hole.
type trialBatch struct {
	b     *pipeline.MachineBatch
	spare *pipeline.Machine
}

// startEpoch prepares the evaluation of one epoch's candidates from the
// checkpoint src, lazily creating the batch of size members on first
// use.
func (tb *trialBatch) startEpoch(src *pipeline.Machine, size, epochSize int, base []uint64,
	metric metrics.Kind, singles []float64, trace telemetry.Sink) *epochEval {
	if tb.b == nil {
		tb.b = pipeline.BatchFrom(src, size)
	}
	return &epochEval{
		tb: tb, src: src, epochSize: epochSize, base: base,
		metric: metric, singles: singles, trace: trace,
	}
}

// epochEval evaluates candidate partitionings of one epoch in lock-step
// waves over the shared-decode batch, tracking the running winner with
// exactly the serial loops' first-strictly-greater tie-break. Candidates
// are always scored in submission order, so a batched epoch selects the
// identical winner (and emits the identical Trials list) as the old
// one-clone-at-a-time loop.
type epochEval struct {
	tb        *trialBatch
	src       *pipeline.Machine
	epochSize int
	base      []uint64
	metric    metrics.Kind
	singles   []float64
	trace     telemetry.Sink

	trials    []Trial
	best      *pipeline.Machine
	bestTrial Trial
	one       oneShare
}

// oneShare is scratch for eval1's single-candidate waves.
type oneShare = [1]resource.Shares

// count returns the number of trials evaluated so far this epoch (the
// searchers' iteration budget).
func (e *epochEval) count() int { return len(e.trials) }

// eval1 evaluates a single candidate (the adaptive searchers' anchor and
// restart probes) and returns its trial.
func (e *epochEval) eval1(s resource.Shares) Trial {
	e.one[0] = s
	e.evalWave(e.one[:])
	return e.trials[len(e.trials)-1]
}

// evalWave runs every candidate for one epoch, at most a batch at a
// time: members are refilled in place from the checkpoint, configured,
// advanced together over the shared decoded stream, and scored in
// order. The returned slice holds this wave's trials.
//
// Every refilled member is detached from the shared L3, so a trial's
// phantom execution on a multicore core cannot pollute the real
// system's last-level cache (a no-op on single-core machines).
func (e *epochEval) evalWave(cands []resource.Shares) []Trial {
	start := len(e.trials)
	b := e.tb.b
	for lo := 0; lo < len(cands); lo += b.K() {
		n := b.K()
		if n > len(cands)-lo {
			n = len(cands) - lo
		}
		b.RefillN(e.src, n)
		for j := 0; j < n; j++ {
			m := b.Member(j)
			m.Mem().DetachL3()
			if e.trace != nil {
				// Fresh per-trial recorder: the adopted winner's counters
				// are exactly this epoch's stall attribution.
				m.SetRecorder(telemetry.NewRecorder(m.Threads()))
			}
			m.Resources().SetShares(cands[lo+j])
		}
		b.CycleFirstN(n, e.epochSize)
		for j := 0; j < n; j++ {
			m := b.Member(j)
			_, ipc := measureEpoch(m, e.base, e.epochSize)
			tr := Trial{Shares: cands[lo+j], Score: e.metric.Eval(ipc, e.singles), IPC: ipc}
			e.trials = append(e.trials, tr)
			if e.best == nil || tr.Score > e.bestTrial.Score {
				// Promote member j to running winner; the dethroned
				// leader (or the circulating spare) fills its slot and is
				// overwritten by the next wave's refill.
				repl := e.best
				if repl == nil {
					repl = e.tb.spare
					e.tb.spare = nil
				}
				e.best = b.Swap(j, repl)
				e.bestTrial = tr
			}
		}
	}
	return e.trials[start:]
}

// probe ends a probe-only epoch, whose searcher keeps advancing its own
// live machine: it returns the winning trial, and the winner's machine
// becomes the spare that keeps the batch population closed.
func (e *epochEval) probe() Trial {
	if e.best == nil {
		panic("core: epoch evaluated no trials")
	}
	e.tb.spare = e.best
	return e.bestTrial
}

// adopt ends the epoch: the winning trial's machine is handed to the
// caller to advance along (the searcher must set it as its live
// machine), and the dethroned live machine becomes the spare that keeps
// the batch population closed.
func (e *epochEval) adopt() (*pipeline.Machine, Trial, []Trial) {
	if e.best == nil {
		panic("core: epoch evaluated no trials")
	}
	e.tb.spare = e.src
	return e.best, e.bestTrial, e.trials
}
