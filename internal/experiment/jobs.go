package experiment

import (
	"context"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

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

func soloKey(app string, cycles int) string {
	return spec{family: "solo", app: app, cycles: cycles}.key()
}

// soloJob measures the stand-alone reference IPC of one application.
func soloJob(app string, cycles int) sweep.Job[float64] {
	return sweep.Job[float64]{
		Key: soloKey(app, cycles),
		Run: func(context.Context) (float64, error) {
			m := workload.Workload{Apps: []string{app}}.NewMachine(nil)
			return core.SoloIPC(m, cycles), nil
		},
	}
}

// soloBatchOn computes the stand-alone IPC of every distinct member
// application of loads on eng, returning app name -> IPC. The per-app
// runs are solo jobs, so they memoise and cache across experiments and
// across the fabric's by-key executions alike.
func soloBatchOn(ctx context.Context, eng *sweep.Engine, cfg Config, loads []workload.Workload) (map[string]float64, error) {
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
	res, err := sweep.Run(ctx, eng, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(seen))
	for app := range seen {
		out[app] = res[soloKey(app, cfg.SoloCycles)]
	}
	return out, nil
}

// soloBatch is soloBatchOn against the installed engine and context; it
// panics on failure as mustRun does.
func soloBatch(cfg Config, loads []workload.Workload) map[string]float64 {
	out, err := soloBatchOn(runCtx, engine, cfg, loads)
	if err != nil {
		panic(err)
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

func baselineKey(cfg Config, w workload.Workload, pol string) string {
	return spec{family: "baseline", cfg: cfg, wl: w.Name(), pol: pol}.key()
}

func baselineJob(cfg Config, w workload.Workload, pol string) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: baselineKey(cfg, w, pol),
		Run: func(context.Context) ([]float64, error) {
			return runBaseline(cfg, w, pol), nil
		},
	}
}

func hillKey(cfg Config, w workload.Workload, feedback metrics.Kind) string {
	return spec{family: "hill", cfg: cfg, wl: w.Name(), metric: feedback.String()}.key()
}

func hillJob(cfg Config, w workload.Workload, feedback metrics.Kind) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: hillKey(cfg, w, feedback),
		Run: func(context.Context) ([]float64, error) {
			return runHill(cfg, w, feedback), nil
		},
	}
}

func offLineKey(cfg Config, w workload.Workload) string {
	return spec{family: "offline", cfg: cfg, wl: w.Name()}.key()
}

func offLineJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: offLineKey(cfg, w),
		Run: func(context.Context) ([]float64, error) {
			return runOffLine(cfg, w, singles), nil
		},
	}
}

func randHillKey(cfg Config, w workload.Workload) string {
	return spec{family: "randhill", cfg: cfg, wl: w.Name()}.key()
}

func randHillJob(cfg Config, w workload.Workload, singles []float64) sweep.Job[[]float64] {
	return sweep.Job[[]float64]{
		Key: randHillKey(cfg, w),
		Run: func(context.Context) ([]float64, error) {
			return runRandHill(cfg, w, singles), nil
		},
	}
}
