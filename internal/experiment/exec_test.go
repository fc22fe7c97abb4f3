package experiment

import (
	"bytes"
	"context"
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// TestExecKeyMatchesNativeJobs is the fabric's core correctness
// property: executing a job *by key* on a fresh engine produces byte
// for byte the result the native closure produces — so a remote
// worker's answer is interchangeable with local compute.
func TestExecKeyMatchesNativeJobs(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	cfg.EpochSize = 4 * 1024
	cfg.SoloCycles = 8 * 1024
	w := workload.ByName("art-mcf")
	t.Cleanup(func() { SetEngine(sweep.NewEngine(0)) })

	native := sweep.NewEngine(0)
	SetEngine(native)
	singles := Singles(cfg, w)

	cases := []struct {
		family string
		key    string
		run    func()
	}{
		{"solo", soloKey("art", cfg.SoloCycles),
			func() { mustRun([]sweep.Job[float64]{soloJob("art", cfg.SoloCycles)}) }},
		{"baseline", baselineKey(cfg, w, "ICOUNT"),
			func() { mustRun([]sweep.Job[[]float64]{baselineJob(cfg, w, "ICOUNT")}) }},
		{"hill", hillKey(cfg, w, metrics.WeightedIPC),
			func() { mustRun([]sweep.Job[[]float64]{hillJob(cfg, w, metrics.WeightedIPC)}) }},
		{"offline", offLineKey(cfg, w),
			func() { mustRun([]sweep.Job[[]float64]{offLineJob(cfg, w, singles)}) }},
		{"randhill", randHillKey(cfg, w),
			func() { mustRun([]sweep.Job[[]float64]{randHillJob(cfg, w, singles)}) }},
		{"hillwidth", hillWidthKey(cfg, w),
			func() { mustRun([]sweep.Job[[]float64]{hillWidthJob(cfg, w, singles)}) }},
		{"table2", table2Key(cfg, "art"),
			func() { mustRun([]sweep.Job[Table2Row]{table2Job(cfg, "art")}) }},
		{"phasehill", phaseHillKey(cfg, w),
			func() { mustRun([]sweep.Job[phaseHillResult]{phaseHillJob(cfg, w)}) }},
		{"mcpair", mcpairSpec(cfg, MulticoreWorkloads(2)[0], 2, "stall-pred").Key(),
			func() { McPair(cfg, []int{2}) }},
	}

	for _, c := range cases {
		c.run()
		want, _, ok := native.Lookup(context.Background(), c.key)
		if !ok {
			t.Fatalf("%s: native run left no memo entry for %s", c.family, c.key)
		}

		got, handled, err := ExecKeyOn(context.Background(), sweep.NewEngine(0), c.key)
		if err != nil || !handled {
			t.Fatalf("%s: ExecKeyOn(%s) handled=%v err=%v", c.family, c.key, handled, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: ExecKeyOn bytes differ from native\n exec:   %s\n native: %s", c.family, got, want)
		}
	}
}

func TestExecKeyDeclinesForeignKeys(t *testing.T) {
	for _, key := range []string{
		"v99|hill|wl=art-mcf", // foreign results version
		"not a key at all",
		"v1|nosuchfamily|wl=art-mcf",
	} {
		if _, handled, err := ExecKeyOn(context.Background(), sweep.NewEngine(1), key); handled || err != nil {
			t.Errorf("ExecKeyOn(%q) = handled=%v err=%v, want declined", key, handled, err)
		}
	}
}

// TestExecKeyRejectsBadFamilyKeys: a key naming a family but carrying a
// missing, malformed, out-of-range or non-canonical parameter is refused
// before any simulation runs, so nothing wrong is computed or cached.
func TestExecKeyRejectsBadFamilyKeys(t *testing.T) {
	for _, key := range []string{
		"v1|hill|wl=art-mcf", // missing geometry
		"v1|hill|ep=2|es=1024|metric=nope|wl=art-mcf|wu=1",            // unknown metric
		"v1|baseline|ep=2|es=1024|pol=ICOUNT|wl=zzz|wu=1",             // unknown workload
		"v1|baseline|ep=2|es=1024|pol=NOPE|wl=art-mcf|wu=1",           // unknown policy
		"v1|baseline|ep=-1|es=1024|pol=ICOUNT|wl=art-mcf|wu=1",        // negative epochs
		"v1|baseline|ep=2|es=1048577|pol=ICOUNT|wl=art-mcf|wu=1",      // epoch size over simjob's limit
		"v1|baseline|ep=2|es=1024|pol=ICOUNT|wl=art-mcf|wu=65",        // warmup over simjob's limit
		"v1|solo|app=zzz|cycles=1024",                                 // unknown app
		"v1|solo|app=art|cycles=banana",                               // non-numeric
		"v1|solo|app=art|cycles=-5",                                   // negative length
		"v1|solo|app=art|cycles=+5",                                   // non-canonical number
		"v1|offline|ep=2|es=1024|sc=1024|stride=0|wl=art-mcf|wu=1",    // zero stride
		"v1|randhill|ep=2|es=1024|iters=0|sc=1024|wl=art-mcf|wu=1",    // zero iterations
		"v1|table2|app=art|sc=0",                                      // zero solo cycles
		"v1|hill|ep=2|es=1024|metric=weighted-ipc|wl=art,mcf|wu=1",    // non-canonical workload
		"v1|phasehill|wl=art-mcf|es=1024|ep=2|wu=1",                   // unsorted parameters
		"v1|phasehill|ep=2|es=1024|extra=1|wl=art-mcf|wu=1",           // unknown parameter
		"v1|simjob|d=4|ep=3|es=1024|seed=0|tech=NOPE|wl=art-mcf|wu=1", // bad simjob key
	} {
		if _, handled, err := ExecKeyOn(context.Background(), sweep.NewEngine(1), key); !handled || err == nil {
			t.Errorf("ExecKeyOn(%q) = handled=%v err=%v, want handled error", key, handled, err)
		}
	}
}
