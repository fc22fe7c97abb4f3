package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions runs a workload at test scale for a fraction of a second.
func tinyOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.2, trace: trace, tiny: true, minReps: 1, setupPasses: 1}
}

// tinyExpectations generates the expected digests of every output the
// tiny workload can produce.
func tinyExpectations(t *testing.T, workload string) *expectations {
	t.Helper()
	exp := &expectations{Digests: map[string]map[string]string{}}
	if err := generate(tinyOptions(workload, false), exp); err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and that every output matched its digest.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		exp := tinyExpectations(t, w)
		for _, traced := range []bool{false, true} {
			rep, err := run(tinyOptions(w, traced), exp)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d outputs failed", w, traced, rep.failed, rep.attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.metrics.byKey) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w, traced, len(rep.metrics.byKey), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics.byKey[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced && len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w)
			}
		}
	}
}

// TestCorruptDigestFails corrupts one expected digest per workload and
// requires the run to count the output as failed.
func TestCorruptDigestFails(t *testing.T) {
	for _, w := range workloads {
		exp := tinyExpectations(t, w)
		for _, digests := range exp.Digests {
			for name, d := range digests {
				digests[name] = "0" + d[1:]
				if d[0] == '0' {
					digests[name] = "1" + d[1:]
				}
			}
		}
		rep, err := run(tinyOptions(w, false), exp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: corrupted digests, but failed_frac is 0 (%d outputs)", w, rep.attempted)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "kid", Start: at(1), End: at(4)},
		{ID: 3, Parent: 1, Name: "kid", Start: at(3), End: at(6)},
		{ID: 4, Parent: 1, Name: "kid", Start: at(8), End: at(9)},
	}
	self := selfTimes(spans)
	if got := self["root"]; got != 4*time.Second {
		t.Errorf("root self time %v, want 4s", got)
	}
	if got := self["kid"]; got != 7*time.Second {
		t.Errorf("kid self time %v, want 7s", got)
	}
}
