package main

import (
	"fmt"
	"time"

	"smthill/internal/core"
	"smthill/internal/isa"
	"smthill/internal/metrics"
	"smthill/internal/multicore"
	"smthill/internal/pipeline"
	"smthill/internal/resource"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

// probeGeometry is the epoch geometry of the workload the probes stand
// in for.
type probeGeometry struct {
	epochSize int
	warmup    int
	stride    int
}

// probeReps is how many times each timed probe call repeats; probes
// report the median.
const probeReps = 5

// runProbes times isolated calls into each simulator layer on the
// workload's own applications and geometry, and records the layer
// counters the runs leave behind. Time metrics are medians of probeReps
// calls; count and rate metrics are deterministic for a given workload
// and geometry, so a speed-only change must leave them identical.
func runProbes(m *metricSet, tr *tracer, g probeGeometry, w2, w4 workload.Workload) error {
	probe := func(name string, f func() error) error {
		id := tr.begin(0, "probes", "probe."+name)
		defer tr.end(id)
		if err := f(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}
	warm := func(w workload.Workload) *pipeline.Machine {
		mach := w.NewMachine(nil)
		mach.CycleN(g.warmup * g.epochSize)
		return mach
	}
	renameRegs := resource.DefaultSizes()[resource.IntRename]

	steps := []struct {
		name string
		f    func() error
	}{
		{"simjob", func() error {
			spec := simjob.Spec{Workload: w2.Name(), Tech: "HILL-WIPC", EpochSize: g.epochSize, Warmup: g.warmup, Epochs: 1}
			var err error
			d := timeEach(probeReps, func() {
				if _, _, _, e := simjob.Build(spec); e != nil {
					err = e
				}
			})
			m.put("simjob.build_ms", median(d)*1e3, "ms")
			return err
		}},
		{"pipeline", func() error {
			for _, w := range []workload.Workload{w2, w4} {
				mach := warm(w)
				var perCycle []float64
				var dt time.Duration
				c0 := mach.Stats().Committed
				for i := 0; i < probeReps; i++ {
					t0 := time.Now()
					mach.CycleN(g.epochSize)
					d := time.Since(t0)
					dt += d
					perCycle = append(perCycle, float64(d.Nanoseconds())/float64(g.epochSize))
				}
				m.put(fmt.Sprintf("pipeline.cycle_ns.%dt", w.Threads()), median(perCycle), "ns")
				if w.Threads() != 2 {
					continue
				}
				st := mach.Stats()
				if st.Committed == c0 || st.Fetched == 0 {
					return fmt.Errorf("%s committed no instructions", w.Name())
				}
				m.put("pipeline.ns_per_inst", float64(dt.Nanoseconds())/float64(st.Committed-c0), "ns")
				m.put("pipeline.commit_per_fetch", float64(st.Committed)/float64(st.Fetched), "ratio")
				m.put("cache.dl1_miss_rate", mach.Mem().DL1.Stats.MissRate(), "ratio")
				m.put("cache.l2_miss_rate", mach.Mem().UL2.Stats.MissRate(), "ratio")
				m.put("bpred.mispredict_rate", mach.MispredictRate(), "ratio")
			}
			return nil
		}},
		{"trace", func() error {
			const n = 1 << 17
			var inst isa.Inst
			var err error
			d := timeEach(probeReps, func() {
				streams := w2.Streams()
				for i := 0; i < n; i++ {
					if !streams[i%len(streams)].Next(&inst) {
						err = fmt.Errorf("stream of %s ended", w2.Name())
						return
					}
				}
			})
			m.put("trace.gen_ns_per_inst", median(d)*1e9/n, "ns")
			return err
		}},
		{"core.live", func() error {
			mach := warm(w2)
			r := core.NewRunner(mach, core.NewHillClimber(w2.Threads(), renameRegs, metrics.WeightedIPC), metrics.WeightedIPC)
			r.EpochSize = g.epochSize
			skipSampling(r)
			m.put("core.live_epoch_s", median(timeEach(2*probeReps, func() { r.RunEpoch() })), "s")
			return nil
		}},
		{"core.steep", func() error {
			mach := warm(w2)
			st := core.NewSteepest(w2.Threads(), renameRegs, metrics.WeightedIPC)
			st.M = mach
			r := core.NewRunner(mach, st, metrics.WeightedIPC)
			r.EpochSize = g.epochSize
			st.Singles = r.Singles
			skipSampling(r)
			m.put("core.steep_epoch_s", median(timeEach(3, func() { r.RunEpoch() })), "s")
			return nil
		}},
		{"core.offline", func() error {
			singles := make([]float64, w2.Threads())
			for i, app := range w2.Apps {
				solo := workload.Workload{Apps: []string{app}}.NewMachine(nil)
				singles[i] = core.SoloIPC(solo, 4*g.epochSize)
			}
			o := core.NewOffLine(warm(w2), metrics.WeightedIPC, singles)
			o.EpochSize, o.Stride = g.epochSize, g.stride
			const epochs = 2
			trials := 0
			d := timeEach(epochs, func() { trials += len(o.RunEpoch().Trials) })
			m.put("core.offline_epoch_s", median(d), "s")
			m.put("core.trials_per_epoch", float64(trials)/epochs, "count")
			// Each trial simulates one epoch; one epoch per searched epoch
			// is adopted as the live execution.
			m.put("core.trial_to_live_cycles", float64(trials*g.epochSize)/float64(epochs*g.epochSize), "ratio")
			return nil
		}},
		{"batch", func() error {
			src := warm(w2)
			b := pipeline.BatchFrom(src, core.DefaultTrialBatch)
			k := b.K()
			refill := timeEach(probeReps, func() { b.RefillN(src, k) })
			m.put("pipeline.checkpoint_us", median(refill)*1e6/float64(k), "us")
			var perCycle []float64
			for i := 0; i < 3; i++ {
				b.RefillN(src, k)
				t0 := time.Now()
				b.CycleFirstN(k, g.epochSize)
				perCycle = append(perCycle, float64(time.Since(t0).Nanoseconds())/float64(k*g.epochSize))
			}
			m.put("pipeline.batch_member_cycle_ns", median(perCycle), "ns")
			return nil
		}},
		{"multicore", func() error {
			if w4.Threads() != 2*multicore.ContextsPerCore {
				return fmt.Errorf("%s is not a 2-core workload", w4.Name())
			}
			const cores = 2
			sys := multicore.New(multicore.DefaultConfig(cores), w4.Streams(), nil)
			runners := make([]*core.Runner, cores)
			for c := range runners {
				h := core.NewHillClimber(multicore.ContextsPerCore, renameRegs, metrics.WeightedIPC)
				runners[c] = core.NewRunner(sys.Core(c), h, metrics.WeightedIPC)
				runners[c].EpochSize = g.epochSize
			}
			sys.CycleN(g.warmup * g.epochSize)
			d := timeEach(probeReps, func() { sys.CycleN(g.epochSize) })
			m.put("multicore.core_cycle_ns", median(d)*1e9/float64(cores*g.epochSize), "ns")
			drv := &multicore.Driver{Sys: sys, Runners: runners, Pairing: multicore.IPCPairing{}, EpochSize: g.epochSize}
			// Run past the first reallocation point so migrations can occur.
			epochs := multicore.DefaultAllocEvery + 2
			m.put("multicore.driver_epoch_s", median(timeEach(epochs, func() { drv.RunEpoch() })), "s")
			m.put("multicore.migrations", float64(sys.Migrations()), "count")
			m.put("cache.l3_miss_rate", sys.L3().Stats.MissRate(), "ratio")
			return nil
		}},
	}
	for _, s := range steps {
		if err := probe(s.name, s.f); err != nil {
			return err
		}
	}
	return nil
}

// skipSampling runs the runner's first epochs, which measure each
// thread's stand-alone IPC instead of learning, so the timed epochs that
// follow are learning epochs.
func skipSampling(r *core.Runner) {
	for i := 0; i < r.M.Threads(); i++ {
		r.RunEpoch()
	}
}
