package sweep

import (
	"fmt"
	"io"
	"time"
)

// EventKind labels a job state change.
type EventKind int

const (
	// JobQueued fires once per unique job when the batch is submitted.
	JobQueued EventKind = iota
	// JobStarted fires when a worker picks the job up.
	JobStarted
	// JobDone fires when the job's result is available, whether computed
	// or served from the memo or disk cache (see Source).
	JobDone
)

// Source says where a completed job's result came from.
type Source string

const (
	// FromRun marks a freshly computed result.
	FromRun Source = "run"
	// FromMemo marks an in-process memoisation hit.
	FromMemo Source = "memo"
	// FromCache marks a backend (disk cache or shared store) hit.
	FromCache Source = "cache"
	// FromRemote marks a result computed by another node through the
	// engine's Remote delegate (see internal/fabric).
	FromRemote Source = "remote"
)

// Event is one observability sample from the engine. Counter fields are
// a consistent snapshot of the current batch at emission time.
type Event struct {
	Kind EventKind
	// Key is the job key the event concerns.
	Key string
	// Source is meaningful for JobDone events.
	Source Source
	// Duration is the wall-clock compute time of a JobDone/FromRun event
	// (zero for hits).
	Duration time.Duration
	// Queued, Running, Done, and Total describe the batch; CacheHits
	// counts Done jobs served from the memo or disk cache.
	Queued, Running, Done, Total, CacheHits int
}

// Reporter renders engine events as one line per completed job, suitable
// for stderr. Install with Engine.AddObserver(r.Observe). The engine
// serialises event delivery, so Observe needs no locking of its own.
type Reporter struct {
	w io.Writer
}

// NewReporter returns a Reporter writing to w.
func NewReporter(w io.Writer) *Reporter { return &Reporter{w: w} }

// Observe implements the engine's observer hook.
func (r *Reporter) Observe(ev Event) {
	if ev.Kind != JobDone {
		return
	}
	switch ev.Source {
	case FromRun:
		fmt.Fprintf(r.w, "[sweep] %*d/%d done, %d running, %d cached | %s (%.2fs)\n",
			digits(ev.Total), ev.Done, ev.Total, ev.Running, ev.CacheHits,
			ev.Key, ev.Duration.Seconds())
	default:
		fmt.Fprintf(r.w, "[sweep] %*d/%d done, %d running, %d cached | %s (%s hit)\n",
			digits(ev.Total), ev.Done, ev.Total, ev.Running, ev.CacheHits,
			ev.Key, ev.Source)
	}
}

// digits returns the print width of n, for aligned counters.
func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
