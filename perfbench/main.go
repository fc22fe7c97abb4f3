// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process, measures it for a fixed time budget, checks
// every simulated output against the expected digests shipped in
// expected.json, and prints one JSON result line last on stdout.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload fig4-offline|fig9-live|serve-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and the spans are written
// to .bench_build/. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options configure one benchmark run.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	tiny        bool // test scale: every workload shrunk to a fraction of a second
	minReps     int  // regenerations or daemon rounds, at least
	setupPasses int
}

// reps returns how many regenerations or daemon rounds a run measures:
// as many as fill the time budget at nominal seconds each. The count
// depends only on the flags, never on measured time, so two builds run
// on the same seed measure exactly the same inputs.
func (o options) reps(nominal float64) int {
	n := max(int(math.Round(o.seconds/nominal)), o.minReps)
	if o.trace {
		n = max(n, 2) // one untraced and one traced, at least
	}
	return n
}

// report is what one run measured and checked.
type report struct {
	metrics   *metricSet
	attempted int
	failed    int
	spans     []span
}

// workloads lists the benchmark's workloads in presentation order.
var workloads = []string{"fig4-offline", "fig9-live", "serve-mixed"}

// run executes one workload.
func run(o options, exp *expectations) (*report, error) {
	switch o.workload {
	case "fig4-offline":
		return runFig(o, fig4Offline(o.tiny), exp)
	case "fig9-live":
		return runFig(o, fig9Live(o.tiny), exp)
	case "serve-mixed":
		return runServe(o, serveMixed(o.tiny), exp)
	}
	return nil, fmt.Errorf("unknown workload %q; valid: %s", o.workload, strings.Join(workloads, " "))
}

// generate records the expected digest of every output any seed can
// produce for the workload.
func generate(o options, exp *expectations) error {
	switch o.workload {
	case "fig4-offline":
		return fig4Offline(o.tiny).generate(exp)
	case "fig9-live":
		return fig9Live(o.tiny).generate(exp)
	case "serve-mixed":
		return serveMixed(o.tiny).generate(exp)
	}
	return fmt.Errorf("unknown workload %q; valid: %s", o.workload, strings.Join(workloads, " "))
}

// resultLine is the JSON object printed last on stdout.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	var expectPath, outDir string
	var gen bool
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed that draws the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "time budget of the measurement, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&expectPath, "expect", filepath.Join("perfbench", "expected.json"), "expected output digests")
	flag.StringVar(&outDir, "out", ".bench_build", "directory for span files")
	flag.BoolVar(&gen, "gen", false, "compute every expected digest of the workload into -expect, then exit")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace is %d; want 0 or 1", traceFlag))
	}
	if !(o.seconds > 0) {
		fatal(fmt.Errorf("--seconds is %g; want a positive number", o.seconds))
	}
	o.trace = traceFlag == 1
	o.minReps, o.setupPasses = 3, 3

	// The benchmark is sized for two CPUs: two sweep workers or two
	// daemon workers and clients.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	exp, err := loadExpectations(expectPath)
	if err != nil {
		fatal(err)
	}
	if gen {
		if err := generate(o, exp); err != nil {
			fatal(err)
		}
		if err := exp.save(expectPath); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(o, exp)
	if err != nil {
		fatal(err)
	}
	if o.trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fatal(err)
		}
		printSelfTimes(rep.spans)
	}
	printSummary(o, rep)
	line, err := json.Marshal(resultLine{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics.byKey,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printSummary writes every metric by name with its unit, plus the
// failed fraction, to stderr.
func printSummary(o options, rep *report) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v\n", o.workload, o.seed, o.trace)
	for _, name := range rep.metrics.order {
		mt := rep.metrics.byKey[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", name, mt.Value, mt.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-32s %14.6g ratio (%d of %d outputs)\n", "failed_frac",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
}

// printSelfTimes writes each span name's self time to stderr, largest
// first.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(os.Stderr, "self time by span:")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %10.3f s\n", n, self[n].Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
