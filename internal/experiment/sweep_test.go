package experiment

import (
	"bytes"
	"sync/atomic"
	"testing"

	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// withEngine runs fn with e installed as the experiment engine, then
// restores the previous one.
func withEngine(e *sweep.Engine, fn func()) {
	old := engine
	engine = e
	defer func() { engine = old }()
	fn()
}

// renderFig4 runs Figure4 and renders it exactly as cmd/experiments
// would, returning the bytes the user sees.
func renderFig4(cfg Config, loads []workload.Workload) string {
	var buf bytes.Buffer
	WriteCompare(&buf, Figure4(cfg, loads))
	return buf.String()
}

func renderFig9(cfg Config, loads []workload.Workload) string {
	var buf bytes.Buffer
	WriteCompare(&buf, Figure9(cfg, loads))
	return buf.String()
}

// TestParallelOutputByteIdentical is the sweep engine's determinism
// guarantee: the rendered experiment output is byte-for-byte the same
// whether jobs run on one worker or many. Each simulation owns its
// machine and rng state, so parallelism cannot change results.
func TestParallelOutputByteIdentical(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	loads := tinyLoads()

	var serial4, parallel4, serial9, parallel9 string
	withEngine(sweep.NewEngine(1), func() { serial4 = renderFig4(cfg, loads) })
	withEngine(sweep.NewEngine(4), func() { parallel4 = renderFig4(cfg, loads) })
	if serial4 != parallel4 {
		t.Fatalf("fig4 output differs between -j 1 and -j 4:\n--- serial ---\n%s--- parallel ---\n%s", serial4, parallel4)
	}
	withEngine(sweep.NewEngine(1), func() { serial9 = renderFig9(cfg, loads) })
	withEngine(sweep.NewEngine(4), func() { parallel9 = renderFig9(cfg, loads) })
	if serial9 != parallel9 {
		t.Fatalf("fig9 output differs between -j 1 and -j 4:\n--- serial ---\n%s--- parallel ---\n%s", serial9, parallel9)
	}
}

// TestCachedOutputByteIdentical: a second invocation served entirely
// from the on-disk cache renders byte-identical output. This is what
// makes `experiments -cache-dir` safe to use for paper figures.
func TestCachedOutputByteIdentical(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	loads := tinyLoads()[:1]
	cache, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var first, second string
	e1 := sweep.NewEngine(4)
	e1.SetCache(cache)
	withEngine(e1, func() { first = renderFig4(cfg, loads) })

	// A fresh engine (empty memo) on the same cache directory must serve
	// every job from disk and reproduce the output exactly.
	var computed, hits atomic.Int64
	e2 := sweep.NewEngine(4)
	e2.SetCache(cache)
	e2.AddObserver(func(ev sweep.Event) {
		if ev.Kind != sweep.JobDone {
			return
		}
		if ev.Source == sweep.FromRun {
			computed.Add(1)
		} else {
			hits.Add(1)
		}
	})
	withEngine(e2, func() { second = renderFig4(cfg, loads) })

	if first != second {
		t.Fatalf("cached output differs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if computed.Load() != 0 {
		t.Fatalf("%d jobs recomputed on a warm cache (hits=%d)", computed.Load(), hits.Load())
	}
	if hits.Load() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestSharedRunsComputedOnce: experiments sharing sub-results (Figure 9
// and Section 5 both need the HILL-WIPC runs and solo references) hit
// the engine memo instead of re-simulating, which is the engine's
// cross-experiment saving in `experiments all`.
func TestSharedRunsComputedOnce(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 2
	loads := tinyLoads()[:1]

	e := sweep.NewEngine(2)
	var computed atomic.Int64
	seen := map[string]int{}
	e.AddObserver(func(ev sweep.Event) {
		if ev.Kind == sweep.JobDone && ev.Source == sweep.FromRun {
			computed.Add(1)
			seen[ev.Key]++
		}
	})
	withEngine(e, func() {
		Figure9(cfg, loads)
		Section5(cfg, loads)
	})
	for key, n := range seen {
		if n > 1 {
			t.Fatalf("job %s computed %d times", key, n)
		}
	}
	// Section 5 after Figure 9 adds only the PhaseHill runs: solos,
	// baselines, and the HILL-WIPC run must all be memo hits.
	// Figure9: 2 solos + 3 baselines + 1 hill; Section5: + 1 phasehill.
	if got := computed.Load(); got != 7 {
		t.Fatalf("%d unique jobs computed, want 7", got)
	}
}
