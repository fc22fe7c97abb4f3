package sweep

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"smthill/internal/telemetry"
)

func TestMeterObserveAndSummarize(t *testing.T) {
	var sink telemetry.MemorySink
	m := NewMeter(&sink, 4)

	m.Observe(Event{Kind: JobStarted, Key: "x"}) // non-terminal: ignored
	m.Observe(Event{Kind: JobDone, Key: "a", Source: FromRun, Duration: 100 * time.Millisecond})
	m.Observe(Event{Kind: JobDone, Key: "b", Source: FromMemo})
	m.Observe(Event{Kind: JobDone, Key: "c", Source: FromCache})
	sum := m.Summarize()

	evs := sink.Events()
	if len(evs) != 4 {
		t.Fatalf("emitted %d events, want 3 jobs + 1 summary", len(evs))
	}
	first := evs[0]
	if first.Type != telemetry.TypeJob || first.Kind != "run" || first.Key != "a" || first.Seconds != 0.1 {
		t.Fatalf("job event = %s", first)
	}
	if evs[1].Kind != "memo" || evs[2].Kind != "cache" {
		t.Fatalf("hit kinds = %q,%q", evs[1].Kind, evs[2].Kind)
	}
	if sum.Type != telemetry.TypeSummary || sum.Jobs != 3 || sum.CacheHits != 2 || sum.Workers != 4 {
		t.Fatalf("summary = %s", sum)
	}
	if last := evs[3]; last.Jobs != sum.Jobs || last.CacheHits != sum.CacheHits {
		t.Fatalf("emitted summary %s disagrees with returned %s", last, sum)
	}
}

// TestMeterOnEngine runs a real batch twice: the second pass is all memo
// hits, and the meter must see every completion either way.
func TestMeterOnEngine(t *testing.T) {
	var sink telemetry.MemorySink
	e := NewEngine(2)
	m := NewMeter(&sink, e.Workers())
	e.AddObserver(m.Observe)

	var runs atomic.Int64
	jobs := []Job[float64]{countedJob(1, &runs), countedJob(2, &runs)}
	for pass := 0; pass < 2; pass++ {
		if _, err := Run(context.Background(), e, jobs); err != nil {
			t.Fatal(err)
		}
	}
	sum := m.Summarize()
	if sum.Jobs != 4 || sum.CacheHits != 2 {
		t.Fatalf("summary = %s, want 4 jobs with 2 memo hits", sum)
	}
	if runs.Load() != 2 {
		t.Fatalf("jobs computed %d times", runs.Load())
	}
}
