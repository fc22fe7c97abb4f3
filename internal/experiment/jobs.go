package experiment

import (
	"context"
	"fmt"
	"strconv"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// resultsVersion is folded into every job key. Bump it whenever the
// simulator or the experiment semantics change in a result-affecting
// way, so stale disk-cache entries from older builds are never reused.
const resultsVersion = 1

// engine executes every experiment's simulation jobs. The default runs
// parallel with no disk cache; cmd/experiments installs a configured one
// via SetEngine. All experiment output is byte-identical regardless of
// the engine's worker count or cache state (see internal/sweep's
// determinism contract): job results are pure functions of their keys,
// and row assembly happens serially in workload order.
var engine = sweep.NewEngine(0)

// SetEngine installs the sweep engine used by every experiment function.
// Call it before running experiments; it is not safe to swap engines
// concurrently with a running experiment.
func SetEngine(e *sweep.Engine) {
	if e != nil {
		engine = e
	}
}

// runCtx cancels every experiment's simulation batches. The default is
// never cancelled; cmd/experiments installs a signal-bound context via
// SetContext so Ctrl-C stops in-flight sweeps cleanly (workers drain,
// the disk cache keeps only complete, atomically written entries), and
// the service daemon installs its shutdown context.
var runCtx = context.Background()

// SetContext installs the cancellation context used by every experiment
// function (nil restores the default never-cancelled context). Like
// SetEngine, it is not safe to swap concurrently with a running
// experiment.
func SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx = ctx
}

// mustRun submits a batch and panics on failure. Job errors can only be
// recovered panics from inside a simulation (or cancellation), which in
// the pre-engine serial code would have propagated as panics too;
// RunNamed converts the panic back into an error for long-lived callers.
func mustRun[R any](jobs []sweep.Job[R]) map[string]R {
	res, err := sweep.Run(runCtx, engine, jobs)
	if err != nil {
		panic(err)
	}
	return res
}

// Job keys encode the workload, technique, and exactly the Config fields
// the run's result depends on — no more, so results shared between
// experiments (solo runs, baseline runs) hit the memo and cache across
// differing irrelevant fields; no fewer, or the cache would serve wrong
// results. Constants compiled into the simulator (core.DefaultDelta,
// sampling defaults, hill-width levels, ...) are covered by
// resultsVersion.

// keyPrefix stamps a job family with the results version.
func keyPrefix(family string) string {
	return fmt.Sprintf("v%d|%s", resultsVersion, family)
}

// soloKey identifies a stand-alone reference run of one application.
func soloKey(app string, cycles int) string {
	return sweep.KeyFrom(keyPrefix("solo"), map[string]string{
		"app":    app,
		"cycles": strconv.Itoa(cycles),
	})
}

func soloJob(app string, cycles int) sweep.Job[float64] {
	return sweep.Job[float64]{
		Key: soloKey(app, cycles),
		Run: func(context.Context) (float64, error) {
			m := workload.Workload{Apps: []string{app}}.NewMachine(nil)
			return core.SoloIPC(m, cycles), nil
		},
	}
}

// soloBatch computes the stand-alone IPC of every distinct member
// application of loads through the engine, returning app name -> IPC.
func soloBatch(cfg Config, loads []workload.Workload) map[string]float64 {
	var jobs []sweep.Job[float64]
	seen := map[string]bool{}
	for _, w := range loads {
		for _, app := range w.Apps {
			if !seen[app] {
				seen[app] = true
				jobs = append(jobs, soloJob(app, cfg.SoloCycles))
			}
		}
	}
	res := mustRun(jobs)
	out := make(map[string]float64, len(seen))
	for app := range seen {
		out[app] = res[soloKey(app, cfg.SoloCycles)]
	}
	return out
}

// singlesFor assembles a workload's per-thread SingleIPC vector from a
// soloBatch result.
func singlesFor(solos map[string]float64, w workload.Workload) []float64 {
	out := make([]float64, w.Threads())
	for i, app := range w.Apps {
		out[i] = solos[app]
	}
	return out
}

// baselineKey identifies one baseline-policy run. Baselines use no
// learning and no sampling, so only the epoch geometry matters.
func baselineKey(cfg Config, w workload.Workload, pol string) string {
	return sweep.KeyFrom(keyPrefix("baseline"), map[string]string{
		"wl":  w.Name(),
		"pol": pol,
		"es":  strconv.Itoa(cfg.EpochSize),
		"ep":  strconv.Itoa(cfg.Epochs),
		"wu":  strconv.Itoa(cfg.WarmupEpochs),
	})
}

func baselineJob(cfg Config, w workload.Workload, pol string) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: baselineKey(cfg, w, pol),
		Run: func(context.Context) ([]float64, error) {
			return runBaseline(cfg, w, pol), nil
		},
	}
}

// hillKey identifies one on-line hill-climbing run. Hill-climbing
// samples SingleIPC on-line (it never sees reference singles), so
// SoloCycles does not enter the key.
func hillKey(cfg Config, w workload.Workload, feedback metrics.Kind) string {
	return sweep.KeyFrom(keyPrefix("hill"), map[string]string{
		"wl":     w.Name(),
		"metric": feedback.String(),
		"es":     strconv.Itoa(cfg.EpochSize),
		"ep":     strconv.Itoa(cfg.Epochs),
		"wu":     strconv.Itoa(cfg.WarmupEpochs),
	})
}

func hillJob(cfg Config, w workload.Workload, feedback metrics.Kind) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: hillKey(cfg, w, feedback),
		Run: func(context.Context) ([]float64, error) {
			return runHill(cfg, w, feedback), nil
		},
	}
}

// offLineKey identifies one OFF-LINE ideal run. Its trial scoring reads
// the reference singles, which are fully determined by the workload's
// apps plus SoloCycles, so SoloCycles stands in for them in the key.
func offLineKey(cfg Config, w workload.Workload) string {
	return sweep.KeyFrom(keyPrefix("offline"), map[string]string{
		"wl":     w.Name(),
		"es":     strconv.Itoa(cfg.EpochSize),
		"ep":     strconv.Itoa(cfg.Epochs),
		"wu":     strconv.Itoa(cfg.WarmupEpochs),
		"stride": strconv.Itoa(cfg.OffLineStride),
		"sc":     strconv.Itoa(cfg.SoloCycles),
	})
}

func offLineJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: offLineKey(cfg, w),
		Run: func(context.Context) ([]float64, error) {
			return runOffLine(cfg, w, singles), nil
		},
	}
}

// randHillKey identifies one RAND-HILL ideal run (same singles
// dependency as OFF-LINE).
func randHillKey(cfg Config, w workload.Workload) string {
	return sweep.KeyFrom(keyPrefix("randhill"), map[string]string{
		"wl":    w.Name(),
		"es":    strconv.Itoa(cfg.EpochSize),
		"ep":    strconv.Itoa(cfg.Epochs),
		"wu":    strconv.Itoa(cfg.WarmupEpochs),
		"iters": strconv.Itoa(cfg.RandHillIters),
		"sc":    strconv.Itoa(cfg.SoloCycles),
	})
}

func randHillJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: randHillKey(cfg, w),
		Run: func(context.Context) ([]float64, error) {
			return runRandHill(cfg, w, singles), nil
		},
	}
}
