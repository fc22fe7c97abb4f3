package core

import (
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// scoreShares runs one candidate partitioning for epoch cycles on a
// clone of m and returns the metric score — the same measurement the
// climbers themselves make, on an independent machine.
func scoreShares(m *pipeline.Machine, s resource.Shares, epoch int, metric metrics.Kind) float64 {
	base := commitCounts(m)
	trial := m.Clone()
	trial.Resources().SetShares(s)
	trial.CycleN(epoch)
	_, ipc := measureEpoch(trial, base, epoch)
	return metric.Eval(ipc, nil)
}

// TestSteepestNeverWorseThanSingleMove pins the steepest climber's
// defining property on one fig4 workload from each group: per epoch,
// from the same anchor and machine state, the move Steepest commits
// scores at least as well as the single ±Delta trial the round-robin
// HillClimber would have dedicated that epoch to. Steepest's candidate
// set (anchor plus every shift) is a superset of the single move, and
// the batch's determinism contract makes probe scores identical to
// standalone evaluation, so the inequality must hold exactly.
func TestSteepestNeverWorseThanSingleMove(t *testing.T) {
	const epoch = 8 * 1024
	for _, name := range []string{"gzip-bzip2", "art-gzip", "art-mcf"} {
		t.Run(name, func(t *testing.T) {
			w, err := workload.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			m := w.NewMachine(nil)
			m.CycleN(4 * epoch) // warm caches and predictors past cold start

			threads := m.Threads()
			st := NewSteepest(threads, m.Resources().Sizes()[resource.IntRename], metrics.AvgIPC)
			st.M = m
			st.ProbeCycles = epoch

			for e := 0; e < 5; e++ {
				anchor := st.anchor.Clone()
				single := anchor.Shift(e%threads, st.Delta)
				chosen := st.Decide(nil)

				got := scoreShares(m, chosen, epoch, st.Metric)
				want := scoreShares(m, single, epoch, st.Metric)
				if got < want {
					t.Fatalf("epoch %d: steepest move %v scores %.6f, single-move trial %v scores %.6f",
						e, chosen, got, single, want)
				}

				// Advance the live machine along the committed move, as the
				// Runner would.
				m.Resources().SetShares(chosen)
				m.CycleN(epoch)
			}
		})
	}
}

// TestSteepestRunnerIntegration drives Steepest through a real Runner
// for a few epochs: it must implement Distributor cleanly (overhead
// charged, shares applied) and keep improving or holding its anchor
// without panicking on the pooled batch refill path.
func TestSteepestRunnerIntegration(t *testing.T) {
	w, err := workload.Parse("art-gzip")
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine(nil)
	st := NewSteepest(m.Threads(), m.Resources().Sizes()[resource.IntRename], metrics.WeightedIPC)
	st.M = m
	st.ProbeCycles = 4 * 1024
	r := NewRunner(m, st, metrics.WeightedIPC)
	r.EpochSize = 4 * 1024
	r.SamplePeriod = 0
	st.Singles = r.Singles

	total := m.Resources().Sizes()[resource.IntRename]
	for _, res := range r.Run(6) {
		if res.Shares == nil {
			t.Fatal("steepest epoch left the machine unpartitioned")
		}
		if got := res.Shares.Sum(); got != total {
			t.Fatalf("epoch %d shares %v sum %d, want %d", res.Index, res.Shares, got, total)
		}
	}
}
