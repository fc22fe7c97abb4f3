package experiment

import (
	"fmt"
	"io"
	"sort"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// CompareRow holds one workload's end performance under several
// techniques, evaluated with a single metric.
type CompareRow struct {
	Workload string
	Group    string
	// Scores maps technique name to the end metric value.
	Scores map[string]float64
}

// runOffLine measures the OFF-LINE ideal on w and returns per-thread IPCs
// over the measured epochs.
func runOffLine(cfg Config, w workload.Workload, singles []float64) []float64 {
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	o := core.NewOffLine(m, metrics.WeightedIPC, singles)
	o.EpochSize = cfg.EpochSize
	o.Stride = cfg.OffLineStride
	o.Trace = tele
	o.TraceLabel = w.Name() + "/OFF-LINE"
	epochs := o.Run(cfg.Epochs)
	return aggregateIPC(epochs, w.Threads(), cfg.EpochSize)
}

// runRandHill measures the RAND-HILL ideal on w.
func runRandHill(cfg Config, w workload.Workload, singles []float64) []float64 {
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	r := core.NewRandHill(m, metrics.WeightedIPC, singles)
	r.EpochSize = cfg.EpochSize
	r.MaxIters = cfg.RandHillIters
	r.Trace = tele
	r.TraceLabel = w.Name() + "/RAND-HILL"
	epochs := r.Run(cfg.Epochs)
	return aggregateIPC(epochs, w.Threads(), cfg.EpochSize)
}

func aggregateIPC(epochs []core.OffLineEpoch, threads, epochSize int) []float64 {
	committed := make([]uint64, threads)
	for _, e := range epochs {
		for th := 0; th < threads; th++ {
			committed[th] += e.Committed[th]
		}
	}
	ipc := make([]float64, threads)
	for th := 0; th < threads; th++ {
		ipc[th] = float64(committed[th]) / float64(len(epochs)*epochSize)
	}
	return ipc
}

// Figure4 reproduces the limit study: OFF-LINE exhaustive learning versus
// ICOUNT, FLUSH, and DCRA on the 2-thread workloads, under weighted IPC.
// All runs are submitted to the sweep engine in one batch; rows are
// assembled serially in loads order, so output is independent of the
// engine's parallelism.
func Figure4(cfg Config, loads []workload.Workload) []CompareRow {
	solos := soloBatch(cfg, loads)
	var jobs []sweep.Job[[]float64]
	for _, w := range loads {
		for _, pol := range baselineNames() {
			jobs = append(jobs, baselineJob(cfg, w, pol))
		}
		jobs = append(jobs, offLineJob(cfg, w, singlesFor(solos, w)))
	}
	runs := mustRun(jobs)

	rows := make([]CompareRow, 0, len(loads))
	for _, w := range loads {
		singles := singlesFor(solos, w)
		scores := map[string]float64{}
		for _, pol := range baselineNames() {
			scores[pol] = metrics.WeightedIPC.Eval(runs[baselineKey(cfg, w, pol)], singles)
		}
		scores["OFF-LINE"] = metrics.WeightedIPC.Eval(runs[offLineKey(cfg, w)], singles)
		rows = append(rows, CompareRow{Workload: w.Name(), Group: w.Group, Scores: scores})
	}
	return rows
}

// Figure9 reproduces the main on-line result: hill-climbing (weighted IPC
// feedback) versus ICOUNT, FLUSH, and DCRA across workloads.
func Figure9(cfg Config, loads []workload.Workload) []CompareRow {
	solos := soloBatch(cfg, loads)
	var jobs []sweep.Job[[]float64]
	for _, w := range loads {
		for _, pol := range baselineNames() {
			jobs = append(jobs, baselineJob(cfg, w, pol))
		}
		jobs = append(jobs, hillJob(cfg, w, metrics.WeightedIPC))
	}
	runs := mustRun(jobs)

	rows := make([]CompareRow, 0, len(loads))
	for _, w := range loads {
		singles := singlesFor(solos, w)
		scores := map[string]float64{}
		for _, pol := range baselineNames() {
			scores[pol] = metrics.WeightedIPC.Eval(runs[baselineKey(cfg, w, pol)], singles)
		}
		scores["HILL"] = metrics.WeightedIPC.Eval(runs[hillKey(cfg, w, metrics.WeightedIPC)], singles)
		rows = append(rows, CompareRow{Workload: w.Name(), Group: w.Group, Scores: scores})
	}
	return rows
}

// Techniques lists the technique names present in rows, reference
// baselines first.
func Techniques(rows []CompareRow) []string {
	seen := map[string]bool{}
	for _, r := range rows {
		for k := range r.Scores {
			seen[k] = true
		}
	}
	order := []string{"ICOUNT", "FLUSH", "DCRA", "STATIC", "HILL", "HILL-IPC", "HILL-WIPC", "HILL-HWIPC", "HILL+PHASE", "OFF-LINE", "RAND-HILL"}
	out := []string{}
	for _, n := range order {
		if seen[n] {
			out = append(out, n)
			delete(seen, n)
		}
	}
	rest := make([]string, 0, len(seen))
	for n := range seen {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// GroupMeans averages each technique's score within each workload group
// (and "ALL"), mirroring the paper's group summaries.
func GroupMeans(rows []CompareRow) map[string]map[string]float64 {
	sums := map[string]map[string]float64{}
	counts := map[string]map[string]int{}
	add := func(group, tech string, v float64) {
		if sums[group] == nil {
			sums[group] = map[string]float64{}
			counts[group] = map[string]int{}
		}
		sums[group][tech] += v
		counts[group][tech]++
	}
	for _, r := range rows {
		for tech, v := range r.Scores {
			add(r.Group, tech, v)
			add("ALL", tech, v)
		}
	}
	out := map[string]map[string]float64{}
	for g, m := range sums {
		out[g] = map[string]float64{}
		for tech, s := range m {
			out[g][tech] = s / float64(counts[g][tech])
		}
	}
	return out
}

// Gains reports the mean per-workload relative gain of technique a over
// technique b across rows (the paper's "x% over ICOUNT" numbers).
func Gains(rows []CompareRow, a, b string) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		va, okA := r.Scores[a]
		vb, okB := r.Scores[b]
		if okA && okB && vb > 0 {
			sum += va/vb - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WriteCompare renders comparison rows with one column per technique.
func WriteCompare(w io.Writer, rows []CompareRow) {
	techs := Techniques(rows)
	t := table{w}
	header := fmt.Sprintf("%-7s %-28s", "Group", "Workload")
	for _, tech := range techs {
		header += fmt.Sprintf(" %10s", tech)
	}
	t.row("%s", header)
	for _, r := range rows {
		line := fmt.Sprintf("%-7s %-28s", r.Group, r.Workload)
		for _, tech := range techs {
			line += fmt.Sprintf(" %10.3f", r.Scores[tech])
		}
		t.row("%s", line)
	}
	// Group summary block.
	means := GroupMeans(rows)
	groups := make([]string, 0, len(means))
	for g := range means {
		if g != "ALL" {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	groups = append(groups, "ALL")
	t.row("%s", "")
	for _, g := range groups {
		line := fmt.Sprintf("%-7s %-28s", g, "(mean)")
		for _, tech := range techs {
			line += fmt.Sprintf(" %10.3f", means[g][tech])
		}
		t.row("%s", line)
	}
}
