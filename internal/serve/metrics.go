package serve

import (
	"strconv"
	"time"

	"smthill/internal/obs"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
)

// metricsSet is the daemon's instrumentation, backed by an obs.Registry
// (PR 7): job admission and completion counters, sweep-engine cache
// effectiveness, per-route HTTP latency histograms, and live gauges
// registered as functions over server state. The registry validates
// names and renders the exposition; all methods are safe for concurrent
// use.
type metricsSet struct {
	reg *obs.Registry

	submitted   *obs.Counter
	rejected    *obs.CounterVec // reason
	finished    *obs.CounterVec // state
	sweepDone   *obs.Counter
	sweepHits   *obs.Counter
	sweepRemote *obs.Counter
	mcJobs      *obs.Counter
	migrations  *obs.Counter
	httpReq     *obs.CounterVec // route, status
	httpLat     *obs.HistVec    // route
}

func newMetrics(now time.Time) *metricsSet {
	reg := obs.NewRegistry()
	m := &metricsSet{
		reg: reg,
		submitted: reg.Counter("smtserved_jobs_submitted_total",
			"jobs admitted to a queue"),
		rejected: reg.CounterVec("smtserved_jobs_rejected_total",
			"admission failures by reason", "reason"),
		finished: reg.CounterVec("smtserved_jobs_finished_total",
			"terminal job transitions by state", "state"),
		sweepDone: reg.Counter("smtserved_sweep_jobs_total",
			"sweep jobs completed (any source)"),
		sweepHits: reg.Counter("smtserved_sweep_cache_hits_total",
			"sweep jobs served from memo or cache"),
		sweepRemote: reg.Counter("smtserved_sweep_remote_total",
			"sweep jobs computed by a fabric remote"),
		mcJobs: reg.Counter("smtserved_multicore_jobs_total",
			"completed simulation jobs that ran multi-core"),
		migrations: reg.Counter("smtserved_thread_migrations_total",
			"thread-to-core migrations reported by completed multi-core jobs"),
		httpReq: reg.CounterVec("smtserved_http_requests_total",
			"served requests by route and status", "route", "status"),
		httpLat: reg.HistVec("smtserved_http_request_ms",
			"request latency in milliseconds by route", "route"),
	}
	// Materialize the full label vocabulary so zero-valued series render.
	for _, r := range []string{"queue_full", "rate_limited", "draining"} {
		m.rejected.With(r)
	}
	for _, st := range []string{"done", "failed", "canceled"} {
		m.finished.With(st)
	}
	reg.GaugeFunc("smtserved_uptime_seconds",
		"seconds since the daemon started",
		func() float64 { return time.Since(now).Seconds() })
	reg.GaugeFunc("smtserved_sweep_cache_hit_ratio",
		"fraction of completed sweep jobs served from memo or cache",
		func() float64 {
			done := m.sweepDone.Value()
			if done == 0 {
				return 0
			}
			return float64(m.sweepHits.Value()) / float64(done)
		})
	return m
}

// registerServerGauges adds the live point-in-time gauges, which need
// the constructed Server. Called once from New, before the first
// scrape.
func (m *metricsSet) registerServerGauges(s *Server) {
	m.reg.GaugeFunc("smtserved_queue_depth",
		"simulation jobs waiting in the FIFO queue",
		func() float64 { return float64(len(s.queue)) })
	m.reg.GaugeFunc("smtserved_queue_capacity",
		"FIFO queue capacity",
		func() float64 { return float64(s.cfg.QueueDepth) })
	m.reg.GaugeFunc("smtserved_experiment_queue_depth",
		"experiment jobs waiting in their dedicated lane",
		func() float64 { return float64(len(s.expQueue)) })
	m.reg.GaugeFunc("smtserved_jobs_inflight",
		"jobs currently executing",
		func() float64 { return float64(s.inflight.Load()) })
	m.reg.GaugeFunc("smtserved_workers",
		"worker-pool size",
		func() float64 { return float64(s.cfg.Workers) })
	m.reg.GaugeFunc("smtserved_jobs_stored",
		"jobs retained in the store (pollable)",
		func() float64 { return float64(s.store.count()) })
}

func (m *metricsSet) jobSubmitted() { m.submitted.Inc() }

// jobRejected counts one admission failure by reason: "queue_full",
// "rate_limited", or "draining".
func (m *metricsSet) jobRejected(reason string) {
	switch reason {
	case "queue_full", "rate_limited", "draining":
		m.rejected.With(reason).Inc()
	}
}

// jobFinished counts one terminal transition.
func (m *metricsSet) jobFinished(state JobState) {
	switch state {
	case StateDone, StateFailed, StateCanceled:
		m.finished.With(string(state)).Inc()
	}
}

// observeSweep counts completed sweep jobs, memo/disk-cache hits, and
// fabric-remote completions. A remote result is neither a local compute
// nor a cache hit — it keeps its own counter so the hit ratio still
// measures store effectiveness.
func (m *metricsSet) observeSweep(ev sweep.Event) {
	if ev.Kind != sweep.JobDone {
		return
	}
	m.sweepDone.Inc()
	switch ev.Source {
	case sweep.FromRun:
	case sweep.FromRemote:
		m.sweepRemote.Inc()
	default:
		m.sweepHits.Inc()
	}
}

// observeSim records result-level facts of one completed simulation
// job: a multi-core run counts once and contributes the thread
// migrations its allocation layer performed. Cache-served results count
// too — the counter tracks what the daemon reported, not what it
// computed.
func (m *metricsSet) observeSim(r simjob.Result) {
	if r.Cores > 1 {
		m.mcJobs.Inc()
		m.migrations.Add(r.Migrations)
	}
}

// observeHTTP records one served request. route must come from the
// bounded registration-pattern set (see Server.handle) — never from the
// request URL — so label cardinality cannot grow with client behaviour.
func (m *metricsSet) observeHTTP(route string, status int, elapsed time.Duration) {
	m.httpReq.With(route, strconv.Itoa(status)).Inc()
	m.httpLat.With(route).Observe(int(elapsed.Milliseconds()))
}
