package sweep

import (
	"sync"
	"time"

	"smthill/internal/telemetry"
)

// Meter bridges the engine's observer hook onto a telemetry sink: every
// completed job becomes a telemetry job event (key, result source, wall
// time), and Summarize reports batch-level totals — job count, cache
// hits, busy and wall seconds, and worker utilisation. Install with
// Engine.AddObserver(m.Observe); it composes with other observers by
// plain function chaining.
type Meter struct {
	sink    telemetry.Sink
	workers int

	// mu guards the accumulators: the engine serialises Observe calls,
	// but Summarize is called from the coordinating goroutine.
	mu        sync.Mutex
	started   time.Time     // guarded by mu
	last      time.Time     // guarded by mu
	jobs      int           // guarded by mu
	cacheHits int           // guarded by mu
	busy      time.Duration // guarded by mu
}

// NewMeter returns a meter emitting to sink for an engine running
// workers parallel jobs (used for the utilisation denominator).
func NewMeter(sink telemetry.Sink, workers int) *Meter {
	if workers < 1 {
		workers = 1
	}
	return &Meter{sink: sink, workers: workers}
}

// Observe implements the engine's observer hook.
func (m *Meter) Observe(ev Event) {
	m.mu.Lock()
	now := time.Now()
	if m.started.IsZero() {
		m.started = now // first event of any kind opens the wall clock
	}
	if ev.Kind != JobDone {
		m.mu.Unlock()
		return
	}
	m.last = now
	m.jobs++
	if ev.Source != FromRun {
		m.cacheHits++
	}
	m.busy += ev.Duration
	m.mu.Unlock()

	m.sink.Emit(telemetry.Event{
		Type:    telemetry.TypeJob,
		Epoch:   telemetry.None,
		Kind:    string(ev.Source),
		Thread:  telemetry.None,
		Key:     ev.Key,
		Seconds: ev.Duration.Seconds(),
	})
}

// Summarize emits one summary event covering everything observed so far
// and returns it. Utilisation is busy-time over wall-time times workers:
// 1.0 means every worker computed for the whole batch, lower values
// expose pool idling (cache hits, tail latency, batch skew).
func (m *Meter) Summarize() telemetry.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	wall := 0.0
	if !m.started.IsZero() {
		wall = m.last.Sub(m.started).Seconds()
	}
	util := 0.0
	if wall > 0 {
		util = m.busy.Seconds() / (wall * float64(m.workers))
	}
	ev := telemetry.Event{
		Type:        telemetry.TypeSummary,
		Epoch:       telemetry.None,
		Thread:      telemetry.None,
		Jobs:        m.jobs,
		CacheHits:   m.cacheHits,
		Workers:     m.workers,
		Seconds:     wall,
		Utilization: util,
	}
	m.sink.Emit(ev)
	return ev
}
