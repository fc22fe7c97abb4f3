package experiment

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"smthill/internal/metrics"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// resultsVersion is folded into every job key. Bump it whenever the
// simulator or the experiment semantics change in a result-affecting
// way, so stale disk-cache entries from older builds are never reused.
const resultsVersion = 1

// spec is the identity of one experiment job: its family plus exactly
// the inputs its result depends on. Its key is the job's sweep key, the
// disk cache's entry name, and what the distributed fabric sends between
// nodes; parseSpec inverts key, so a node holding only the key rebuilds
// the identical job (see ExecKeyOn).
type spec struct {
	family string
	cfg    Config
	wl     string // workload name, as workload.Parse reads it
	app    string
	pol    string // baseline policy name
	metric string // metrics.Kind name
	cycles int    // solo run length
}

// familyParams names the key parameters of each family: no more, so
// results shared between experiments (solo runs, baseline runs) hit the
// memo and cache across differing irrelevant Config fields; no fewer, or
// the cache would serve wrong results. Constants compiled into the
// simulator (core.DefaultDelta, sampling defaults, hill-width levels,
// ...) are covered by resultsVersion.
//
//   - solo and table2 characterise one application; SoloCycles sizes
//     both table2's solo machine and its requirement sweep.
//   - baseline uses no learning and no sampling, so only the epoch
//     geometry matters beside the policy.
//   - hill and phasehill sample SingleIPC on-line and never see the
//     reference singles, so hill keys omit sc.
//   - offline, hillwidth and randhill score trials against the reference
//     singles, which the workload's apps plus SoloCycles fully determine,
//     so SoloCycles stands in for the singles. hillwidth is an OFF-LINE
//     run reduced to mean widths, so it shares OFF-LINE's parameters.
var familyParams = map[string][]string{
	"solo":      {"app", "cycles"},
	"table2":    {"app", "sc"},
	"baseline":  {"wl", "pol", "es", "ep", "wu"},
	"hill":      {"wl", "metric", "es", "ep", "wu"},
	"phasehill": {"wl", "es", "ep", "wu"},
	"offline":   {"wl", "es", "ep", "wu", "stride", "sc"},
	"hillwidth": {"wl", "es", "ep", "wu", "stride", "sc"},
	"randhill":  {"wl", "es", "ep", "wu", "iters", "sc"},
}

// field maps a key parameter to the spec or Config field it encodes:
// a *string or an *int.
func (s *spec) field(name string) any {
	return map[string]any{
		"wl":     &s.wl,
		"app":    &s.app,
		"pol":    &s.pol,
		"metric": &s.metric,
		"cycles": &s.cycles,
		"es":     &s.cfg.EpochSize,
		"ep":     &s.cfg.Epochs,
		"wu":     &s.cfg.WarmupEpochs,
		"stride": &s.cfg.OffLineStride,
		"iters":  &s.cfg.RandHillIters,
		"sc":     &s.cfg.SoloCycles,
	}[name]
}

// key encodes s as its canonical job key.
func (s spec) key() string {
	names := familyParams[s.family]
	params := make(map[string]string, len(names))
	for _, name := range names {
		switch f := s.field(name).(type) {
		case *string:
			params[name] = *f
		case *int:
			params[name] = strconv.Itoa(*f)
		}
	}
	return sweep.KeyFrom(fmt.Sprintf("v%d|%s", resultsVersion, s.family), params)
}

// parseSpec decodes a job key. ok=false means the key belongs to no
// experiment family of this results version (another registry may own
// it, or a version-skewed peer sent it); an error means it names a
// family but carries a missing, malformed or out-of-range parameter, or
// is not in canonical form. Every value is checked here, before any
// simulation runs.
func parseSpec(key string) (s spec, ok bool, err error) {
	prefix, params, err := sweep.ParseKey(key)
	if err != nil {
		return spec{}, false, nil
	}
	family, versioned := strings.CutPrefix(prefix, fmt.Sprintf("v%d|", resultsVersion))
	names := familyParams[family]
	if !versioned || names == nil {
		return spec{}, false, nil
	}
	s.family = family
	for _, name := range names {
		v, present := params[name]
		if !present {
			return spec{}, true, fmt.Errorf("experiment: key %s: missing parameter %q", key, name)
		}
		switch f := s.field(name).(type) {
		case *string:
			*f = v
		case *int:
			if *f, err = strconv.Atoi(v); err != nil {
				return spec{}, true, fmt.Errorf("experiment: key %s: bad %s %q", key, name, v)
			}
		}
		if err := s.check(name); err != nil {
			return spec{}, true, fmt.Errorf("experiment: key %s: %v", key, err)
		}
	}
	if got := s.key(); got != key {
		// A key that parses but does not round-trip would address a
		// different cache entry than it executes; refuse it.
		return spec{}, true, fmt.Errorf("experiment: key %s is not canonical (rebuilt %s)", key, got)
	}
	return s, true, nil
}

// check validates one decoded parameter. The geometry bounds are
// simjob's, the limits a hosted daemon already enforces on its public
// API.
func (s *spec) check(name string) error {
	lo, hi := 1, math.MaxInt
	switch name {
	case "wl":
		w, err := workload.Parse(s.wl)
		if err == nil && w.Name() != s.wl {
			err = fmt.Errorf("workload %q is spelled %q in keys", s.wl, w.Name())
		}
		return err
	case "app":
		if !slices.Contains(workload.Names(), s.app) {
			return fmt.Errorf("unknown application %q", s.app)
		}
		return nil
	case "pol":
		if !slices.Contains(baselineNames(), s.pol) {
			return fmt.Errorf("unknown baseline policy %q", s.pol)
		}
		return nil
	case "metric":
		_, err := metricByName(s.metric)
		return err
	case "ep":
		hi = simjob.MaxEpochs
	case "es":
		hi = simjob.MaxEpochSize
	case "wu":
		lo, hi = 0, simjob.MaxWarmup
	}
	n := *s.field(name).(*int)
	switch {
	case hi == math.MaxInt && n < lo:
		return fmt.Errorf("%s %d must be positive", name, n)
	case n < lo || n > hi:
		return fmt.Errorf("%s %d outside [%d, %d]", name, n, lo, hi)
	}
	return nil
}

// metricByName inverts metrics.Kind.String for the kinds job keys use.
func metricByName(name string) (metrics.Kind, error) {
	for k := metrics.Kind(0); k < metrics.NumKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown metric %q", name)
}
