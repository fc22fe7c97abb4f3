package smthill

import (
	"testing"

	"smthill/internal/core"
	"smthill/internal/experiment"
	"smthill/internal/metrics"
	"smthill/internal/policy"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// TestAllWorkloadsRun smoke-tests every Table 3 workload under every
// per-cycle policy for a short run: no panics, and forward progress.
func TestAllWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke test")
	}
	for _, w := range workload.All() {
		for _, pol := range []string{"ICOUNT", "FLUSH", "DCRA"} {
			m := w.NewMachine(policy.ByName(pol))
			m.CycleN(20_000)
			if m.Stats().Committed == 0 {
				t.Errorf("%s under %s committed nothing", w.Name(), pol)
			}
		}
	}
}

// TestEveryWorkloadProgressesPerThread verifies no thread is permanently
// starved under the default fetch policy with partitioning active.
func TestEveryWorkloadProgressesPerThread(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke test")
	}
	for _, w := range workload.TwoThread() {
		m := w.NewMachine(nil)
		m.Resources().SetShares(resource.EqualShares(w.Threads(), 256))
		m.CycleN(100_000)
		for th := 0; th < w.Threads(); th++ {
			if m.Committed(th) < 500 {
				t.Errorf("%s: thread %d (%s) committed only %d in 100K cycles",
					w.Name(), th, w.Apps[th], m.Committed(th))
			}
		}
	}
}

// TestExperimentDeterminism: the entire stack is deterministic — re-running
// an experiment yields bit-identical scores.
func TestExperimentDeterminism(t *testing.T) {
	cfg := experiment.Default()
	cfg.Epochs = 4
	cfg.WarmupEpochs = 1
	cfg.EpochSize = 8 * 1024
	cfg.SoloCycles = 16 * 1024
	cfg.OffLineStride = 64
	loads := []workload.Workload{workload.ByName("art-gzip")}
	a := experiment.Figure4(cfg, loads)
	b := experiment.Figure4(cfg, loads)
	for tech, v := range a[0].Scores {
		if b[0].Scores[tech] != v {
			t.Fatalf("%s scores differ across runs: %v vs %v", tech, v, b[0].Scores[tech])
		}
	}
}

// TestHillConvergesToSkewedOptimum builds a workload whose optimum is far
// from the equal split — a window-hungry streaming thread against a tiny
// pointer chaser — and checks that hill-climbing walks the anchor toward
// the hungry thread.
func TestHillConvergesToSkewedOptimum(t *testing.T) {
	w := workload.Workload{Apps: []string{"swim", "lucas"}, Group: "test"}
	m := w.NewMachine(nil)
	m.CycleN(2 * core.DefaultEpochSize)
	hill := core.NewHillClimber(2, 256, metrics.AvgIPC)
	r := core.NewRunner(m, hill, metrics.AvgIPC)
	r.Run(60)
	anchor := hill.Anchor()
	if anchor[0] <= 140 {
		t.Fatalf("anchor %v did not move toward the window-hungry thread", anchor)
	}
}

// TestOffLineNeverWorseThanEqualFixed: on the same machine trajectory,
// OFF-LINE's per-epoch winner must score at least what the equal
// partition scores, since the equal partition is in its search space.
func TestOffLineNeverWorseThanEqualFixed(t *testing.T) {
	w := workload.ByName("art-gzip")
	m := w.NewMachine(nil)
	m.CycleN(core.DefaultEpochSize)
	o := core.NewOffLine(m, metrics.AvgIPC, nil)
	o.EpochSize = 16 * 1024
	o.Stride = 8 // fine enough to include 128/128
	for e := 0; e < 3; e++ {
		res := o.RunEpoch()
		equalScore := -1.0
		for _, tr := range res.Trials {
			if tr.Shares[0] == 128 && tr.Shares[1] == 128 {
				equalScore = tr.Score
			}
		}
		if equalScore < 0 {
			t.Fatal("equal partition not in the search space")
		}
		if res.Score < equalScore {
			t.Fatalf("epoch %d: winner %f below equal split %f", e, res.Score, equalScore)
		}
	}
}

// TestSynchronizedBaselinesMatchFreeRunning verifies the Figure 5
// synchronization methodology does not grossly distort the baselines: a
// free-running ICOUNT and a checkpoint-synchronized ICOUNT see similar
// aggregate throughput on a steady workload (the paper verified the
// same).
func TestSynchronizedBaselinesMatchFreeRunning(t *testing.T) {
	cfg := experiment.Default()
	cfg.Epochs = 6
	cfg.WarmupEpochs = 1
	cfg.EpochSize = 16 * 1024
	cfg.SoloCycles = 32 * 1024
	cfg.OffLineStride = 48
	w := workload.ByName("gzip-bzip2") // steady ILP pair

	rows := experiment.Figure5(cfg, w)
	syncMean := 0.0
	for _, r := range rows {
		syncMean += r.Scores["ICOUNT"]
	}
	syncMean /= float64(len(rows))

	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	r := core.NewRunner(m, core.None{Label: "ICOUNT"}, metrics.WeightedIPC)
	r.EpochSize = cfg.EpochSize
	r.SamplePeriod = 0
	r.ReferenceSingles = experiment.Singles(cfg, w)
	freeMean := 0.0
	for _, e := range r.Run(cfg.Epochs) {
		freeMean += e.Score
	}
	freeMean /= float64(cfg.Epochs)

	if syncMean < 0.7*freeMean || syncMean > 1.3*freeMean {
		t.Fatalf("synchronized ICOUNT %.3f vs free-running %.3f", syncMean, freeMean)
	}
}

// TestPartitionSumNeverExceedsTotal drives the full hill-climbing stack
// and asserts the machine-level partition invariant every epoch.
func TestPartitionSumNeverExceedsTotal(t *testing.T) {
	w := workload.ByName("art-mcf-vpr-swim")
	m := w.NewMachine(nil)
	hill := core.NewHillClimber(4, 256, metrics.AvgIPC)
	r := core.NewRunner(m, hill, metrics.AvgIPC)
	r.EpochSize = 8 * 1024
	for e := 0; e < 30; e++ {
		res := r.RunEpoch()
		if res.Shares == nil {
			continue
		}
		if res.Shares.Sum() != 256 {
			t.Fatalf("epoch %d shares %v sum %d", e, res.Shares, res.Shares.Sum())
		}
		total := 0
		for th := 0; th < 4; th++ {
			total += m.Resources().Limit(th, resource.IntRename)
		}
		if total != 256 {
			t.Fatalf("epoch %d rename limits sum to %d", e, total)
		}
	}
}

// TestDefaultConfigsByThreads ensures machines of 1..4 contexts share the
// Table 1 shell and run.
func TestDefaultConfigsByThreads(t *testing.T) {
	apps := []string{"gzip", "bzip2", "eon", "perlbmk"}
	for n := 1; n <= 4; n++ {
		w := workload.Workload{Apps: apps[:n], Group: "test"}
		m := w.NewMachine(nil)
		if m.Threads() != n {
			t.Fatalf("%d-app workload built a %d-context machine", n, m.Threads())
		}
		m.CycleN(10_000)
		if m.Stats().Committed == 0 {
			t.Fatalf("%d-thread machine made no progress", n)
		}
	}
}
