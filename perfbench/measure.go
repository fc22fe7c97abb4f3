package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named measurement with its unit, as printed in the
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics in insertion order (for the
// human-readable report) and by name (for the JSON result line).
type metricSet struct {
	order []string
	byKey map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]metric{}} }

func (s *metricSet) put(name string, value float64, unit string) {
	if _, ok := s.byKey[name]; !ok {
		s.order = append(s.order, name)
	}
	s.byKey[name] = metric{Value: value, Unit: unit}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// timeEach calls f n times and returns each call's duration in seconds.
func timeEach(n int, f func()) []float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds()
	}
	return ds
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak resident set count (VmHWM) at the current resident size, so the
// next peakRSSMiB reading is the peak of what ran in between. Writing 5
// to clear_refs is the Linux interface for that reset; where it is
// refused, VmHWM keeps counting from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one job share Job; Parent is the ID of the
// span that caused this one (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Job    string    `json:"job"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span // guarded by mu
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(parent int, job, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Job: job, Name: name, Start: time.Now()})
	return t.next
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records an already-finished span.
func (t *tracer) add(parent int, job, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return t.next
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children (children may overlap one
// another when they ran on parallel workers; the union is subtracted).
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	flush := func() {
		if curEnd.After(curStart) {
			total += curEnd.Sub(curStart)
		}
	}
	for i, c := range cs {
		start, end := c.Start, c.End
		if start.Before(parent.Start) {
			start = parent.Start
		}
		if end.After(parent.End) {
			end = parent.End
		}
		if i == 0 || start.After(curEnd) {
			if i > 0 {
				flush()
			}
			curStart, curEnd = start, end
			continue
		}
		if end.After(curEnd) {
			curEnd = end
		}
	}
	flush()
	return total
}

// writeSpans writes spans as JSON lines followed by one summary line of
// self time per span name, in seconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds()
	}
	return enc.Encode(map[string]any{"self_s": self})
}
