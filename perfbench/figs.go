package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// figBench is one figure-regeneration workload: a paper figure run on a
// sweep engine over Table 3 workloads drawn by the seed.
type figBench struct {
	name     string
	groups   []string
	workers  int
	perGroup int
	nominal  float64 // seconds one regeneration takes on a 2-CPU host
	cfg      experiment.Config
	figure   string
	run      func(experiment.Config, []workload.Workload) []experiment.CompareRow
}

// fig4Offline regenerates Figure 4 (OFF-LINE vs the baselines) on two
// sweep workers: OFF-LINE checkpoint trial waves dominate its host time.
func fig4Offline(tiny bool) figBench {
	f := figBench{
		name:     "fig4-offline",
		groups:   []string{"ILP2", "MIX2", "MEM2"},
		workers:  2,
		perGroup: 6,
		nominal:  5,
		cfg:      figConfig(16384, 2),
		figure:   "Figure4",
		run:      experiment.Figure4,
	}
	if tiny {
		f.perGroup, f.nominal, f.cfg = 1, 0.05, figConfig(2048, 1)
	}
	return f
}

// fig9Live regenerates Figure 9 (HILL-WIPC vs the baselines) on one
// sweep worker: only live epochs run, no checkpoints or trials.
func fig9Live(tiny bool) figBench {
	f := figBench{
		name:     "fig9-live",
		groups:   []string{"ILP2", "MIX2", "MEM2", "ILP4", "MIX4", "MEM4"},
		workers:  1,
		perGroup: 6,
		nominal:  5,
		cfg:      figConfig(16384, 2),
		figure:   "Figure9",
		run:      experiment.Figure9,
	}
	if tiny {
		f.groups, f.perGroup, f.nominal, f.cfg = []string{"MEM2", "MEM4"}, 1, 0.05, figConfig(2048, 1)
	}
	return f
}

func figConfig(epochSize, epochs int) experiment.Config {
	c := experiment.Default()
	c.EpochSize = epochSize
	c.Epochs = epochs
	c.SoloCycles = 4 * epochSize
	return c
}

// fingerprint names every parameter a figure row depends on besides its
// workload, so expected digests are looked up for the right scale.
func (f figBench) fingerprint() string {
	c := f.cfg
	return fmt.Sprintf("%s|es=%d|ep=%d|wu=%d|stride=%d|sc=%d",
		f.name, c.EpochSize, c.Epochs, c.WarmupEpochs, c.OffLineStride, c.SoloCycles)
}

// draw picks the job set of the run's index-th regeneration: perGroup
// members of each group, by seed, in Table 3 order. The members keep
// their catalog streams: the seed chooses which workloads run, never how
// they are generated.
func (f figBench) draw(seed uint64, index int) []workload.Workload {
	r := rand.New(rand.NewPCG(seed, 0x6669677331+uint64(index)))
	var out []workload.Workload
	for _, g := range f.groups {
		members := workload.ByGroup(g)
		pick := r.Perm(len(members))[:min(f.perGroup, len(members))]
		sort.Ints(pick)
		for _, i := range pick {
			out = append(out, members[i])
		}
	}
	return out
}

// pool is every workload any seed can draw.
func (f figBench) pool() []workload.Workload {
	var out []workload.Workload
	for _, g := range f.groups {
		out = append(out, workload.ByGroup(g)...)
	}
	return out
}

// figSetup is the fixed cost before the first measured epoch: resolve
// each distinct workload by name, build its machine and run its warm-up
// epochs (which fill the modelled caches and predictor).
func figSetup(cfg experiment.Config, loads []workload.Workload) {
	for _, w := range loads {
		m := workload.ByName(w.Name()).NewMachine(nil)
		m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	}
}

// figRep is one regeneration of the figure: its wall time, the sweep
// jobs it ran, and how many of its rows matched their expected digest.
type figRep struct {
	wall      time.Duration
	rss       float64            // peak resident MiB
	latencies []float64          // per executed sweep job, submit to result, s
	busy      map[string]float64 // executed-job seconds per key family
	jobs      int
	memoHits  int
	rows      int
	badRows   int
}

// family returns the job family of a sweep key ("offline", "solo", ...).
func family(key string) string {
	prefix, _, err := sweep.ParseKey(key)
	if err != nil {
		return "unknown"
	}
	parts := strings.Split(prefix, "|")
	return parts[len(parts)-1]
}

// sweepWatch turns engine observer events into per-job submit-to-result
// latencies, busy time per family and, when traced, one span per
// executed job under parent.
type sweepWatch struct {
	tr     *tracer
	parent int

	mu       sync.Mutex
	queued   map[string]time.Time // guarded by mu
	started  map[string]time.Time // guarded by mu
	lat      []float64            // guarded by mu
	busy     map[string]float64   // guarded by mu
	jobs     int                  // guarded by mu
	memoHits int                  // guarded by mu
}

func newSweepWatch(tr *tracer) *sweepWatch {
	return &sweepWatch{tr: tr, queued: map[string]time.Time{}, started: map[string]time.Time{}, busy: map[string]float64{}}
}

func (w *sweepWatch) observe(ev sweep.Event) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	switch ev.Kind {
	case sweep.JobQueued:
		w.queued[ev.Key] = now
	case sweep.JobStarted:
		w.started[ev.Key] = now
	case sweep.JobDone:
		if ev.Source == sweep.FromMemo {
			w.memoHits++
			return
		}
		if ev.Source != sweep.FromRun {
			return
		}
		start := w.started[ev.Key]
		w.jobs++
		w.lat = append(w.lat, now.Sub(w.queued[ev.Key]).Seconds())
		w.busy[family(ev.Key)] += now.Sub(start).Seconds()
		w.tr.add(w.parent, ev.Key, "sweep.job."+family(ev.Key), start, now)
	}
}

// sweepTotals sums the sweep layer's observer counts over the traced
// regenerations or rounds of a run.
type sweepTotals struct {
	busy     map[string]float64
	wall     float64
	jobs     int
	memoHits int
	n        int
}

func (t *sweepTotals) add(busy map[string]float64, wall time.Duration, jobs, memoHits int) {
	if t.busy == nil {
		t.busy = map[string]float64{}
	}
	for k, v := range busy {
		t.busy[k] += v
	}
	t.wall += wall.Seconds()
	t.jobs += jobs
	t.memoHits += memoHits
	t.n++
}

// put records the sweep metrics per regeneration or round, for an
// engine of the given worker count.
func (t *sweepTotals) put(m *metricSet, workers int) {
	n := float64(t.n)
	total := 0.0
	for _, v := range t.busy {
		total += v
	}
	for _, fam := range []string{"offline", "baseline", "hill", "solo", "simjob"} {
		m.put("sweep.busy_s."+fam, t.busy[fam]/n, "s")
	}
	m.put("sweep.idle_frac", 1-total/(float64(workers)*t.wall), "ratio")
	m.put("sweep.jobs", float64(t.jobs)/n, "count")
	m.put("sweep.memo_hits", float64(t.memoHits)/n, "count")
}

// rep regenerates the figure once on a fresh engine (no memo carried
// over, no disk cache) and checks every row.
func (f figBench) rep(loads []workload.Workload, exp *expectations, tr *tracer) figRep {
	resetPeakRSS()
	eng := sweep.NewEngine(f.workers)
	watch := newSweepWatch(tr)
	eng.AddObserver(watch.observe)
	experiment.SetEngine(eng)

	watch.parent = tr.begin(0, f.name, "experiment."+f.figure)
	t0 := time.Now()
	rows, err := f.runChecked(loads)
	wall := time.Since(t0)
	tr.end(watch.parent)
	rss, rssErr := peakRSSMiB()

	out := figRep{wall: wall, rss: rss, rows: len(loads)}
	watch.mu.Lock()
	out.latencies, out.busy, out.jobs, out.memoHits = watch.lat, watch.busy, watch.jobs, watch.memoHits
	watch.mu.Unlock()
	if err == nil {
		err = rssErr
	}
	if err == nil && len(rows) != len(loads) {
		err = fmt.Errorf("%s returned %d rows for %d workloads", f.figure, len(rows), len(loads))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.badRows = len(loads)
		return out
	}
	for i, row := range rows {
		raw, err := json.Marshal(row)
		if err != nil || row.Workload != loads[i].Name() || !exp.check(f.fingerprint(), row.Workload, raw) {
			fmt.Fprintf(os.Stderr, "perfbench: %s row %d (%s) differs from its expected digest\n", f.figure, i, loads[i].Name())
			out.badRows++
		}
	}
	return out
}

// runChecked runs the figure, turning a job failure (which the
// experiment package raises as a panic) into an error.
func (f figBench) runChecked(loads []workload.Workload) (rows []experiment.CompareRow, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", f.figure, p)
		}
	}()
	return f.run(f.cfg, loads), nil
}

// generate computes and records the digest of every row any seed can
// draw.
func (f figBench) generate(exp *expectations) error {
	experiment.SetEngine(sweep.NewEngine(2))
	loads := f.pool()
	rows, err := f.runChecked(loads)
	if err != nil {
		return err
	}
	for _, row := range rows {
		raw, err := json.Marshal(row)
		if err != nil {
			return err
		}
		exp.set(f.fingerprint(), row.Workload, raw)
	}
	return nil
}

// runFig measures the workload: set-up passes over every workload the
// run draws, then one regeneration per draw. A traced run regenerates
// half as many draws, each once untraced and once traced, then runs the
// layer probes.
func runFig(o options, f figBench, exp *expectations) (*report, error) {
	draws := make([][]workload.Workload, o.reps(f.nominal))
	if o.trace {
		draws = draws[:(len(draws)+1)/2] // each draw runs untraced, then traced
	}
	for i := range draws {
		draws[i] = f.draw(o.seed, i)
	}
	rep := &report{metrics: newMetricSet()}
	var setups []float64
	if !o.trace {
		setups = timeEach(o.setupPasses, func() { figSetup(f.cfg, distinct(draws)) })
	}

	var walls, tracedWalls, overheads, lat, rss []float64
	var jobs int
	var sw sweepTotals
	tr := &tracer{}
	for _, loads := range draws {
		r := f.rep(loads, exp, nil)
		rep.attempted += r.rows
		rep.failed += r.badRows
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rss)
		lat = append(lat, r.latencies...)
		jobs += r.jobs
		if !o.trace {
			continue
		}
		// The traced regeneration repeats the same job set, so the
		// difference is the tracing overhead alone.
		t := f.rep(loads, exp, tr)
		rep.attempted += t.rows
		rep.failed += t.badRows
		tracedWalls = append(tracedWalls, t.wall.Seconds())
		overheads = append(overheads, (t.wall - r.wall).Seconds())
		sw.add(t.busy, t.wall, t.jobs, t.memoHits)
	}

	fmt.Fprintf(os.Stderr, "%s regeneration walls (s): untraced %.3f traced %.3f; peak RSS (MiB): %.1f\n",
		f.name, walls, tracedWalls, rss)
	m := rep.metrics
	if !o.trace {
		m.put("wall_s", median(walls), "s")
		m.put("jobs_per_s", float64(jobs)/sum(walls), "jobs/s")
		m.put("job_p50_s", quantile(lat, 0.5), "s")
		m.put("job_p90_s", quantile(lat, 0.9), "s")
		m.put("setup_s", median(setups), "s")
		m.put("peak_rss_mib", median(rss), "MiB")
		return rep, nil
	}

	sw.put(m, f.workers)
	m.put("trace.overhead_s", median(overheads), "s")
	putServeZeros(m)
	w2, w4 := probeLoads(draws[0])
	g := probeGeometry{epochSize: f.cfg.EpochSize, warmup: f.cfg.WarmupEpochs, stride: f.cfg.OffLineStride}
	if err := runProbes(m, tr, g, w2, w4); err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	return rep, nil
}

// distinct returns each workload of the draws once, in first-seen order.
func distinct(draws [][]workload.Workload) []workload.Workload {
	seen := map[string]bool{}
	var out []workload.Workload
	for _, loads := range draws {
		for _, w := range loads {
			if !seen[w.Name()] {
				seen[w.Name()] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// probeLoads picks the probes' 2-thread and 4-thread workloads from the
// job set: its first of each width, or, when it has no 4-thread
// workload, the members of its first and last 2-thread workloads.
func probeLoads(loads []workload.Workload) (w2, w4 workload.Workload) {
	var twos []workload.Workload
	for _, w := range loads {
		switch w.Threads() {
		case 2:
			twos = append(twos, w)
		case 4:
			if w4.Apps == nil {
				w4 = w
			}
		}
	}
	w2 = twos[0]
	if w4.Apps == nil {
		other := twos[len(twos)-1]
		w4 = workload.Workload{Apps: append(append([]string{}, w2.Apps...), other.Apps...)}
	}
	return w2, w4
}
