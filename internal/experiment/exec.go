package experiment

import (
	"context"
	"encoding/json"
	"fmt"

	"smthill/internal/obs"
	"smthill/internal/simjob"
	"smthill/internal/sweep"
	"smthill/internal/workload"
)

// ExecKeyOn is the one by-key executor: it runs the job a key
// identifies on eng and returns the exact raw JSON bytes the engine
// stored for it. A simjob key runs as the simulation it names; an
// experiment key is decoded by parseSpec and rebuilt through the same
// job constructor the native path uses. That is the property the
// distributed fabric (internal/fabric) rests on — closures cannot cross
// the wire, keys can — so a worker runs received keys on its own
// engine, and an in-process cluster can host several workers beside
// the coordinator's experiment run.
//
// ok=false means the key belongs to no family this build runs (the
// caller should compute it locally); an error means the key named a
// family but could not be decoded, validated or run.
func ExecKeyOn(ctx context.Context, eng *sweep.Engine, key string) (raw json.RawMessage, ok bool, err error) {
	if js, ok, err := simjob.SpecFromKey(key); ok || err != nil {
		if err != nil {
			return nil, true, err
		}
		return execJob(ctx, eng, key, sweep.Job[simjob.Result]{
			Key: js.Key(),
			Run: func(ctx context.Context) (simjob.Result, error) {
				// EpochSpans resolves a traced exec's compute span into
				// per-epoch slices; untraced, it returns the nil sink.
				return simjob.Run(ctx, js, obs.EpochSpans(ctx, nil))
			},
		})
	}
	s, ok, err := parseSpec(key)
	if !ok || err != nil {
		return nil, ok, err
	}
	w, _ := workload.Parse(s.wl) // validated by parseSpec; unused by solo and table2
	switch s.family {
	case "solo":
		return execJob(ctx, eng, key, soloJob(s.app, s.cycles))
	case "table2":
		return execJob(ctx, eng, key, table2Job(s.cfg, s.app))
	case "baseline":
		return execJob(ctx, eng, key, baselineJob(s.cfg, w, s.pol))
	case "hill":
		kind, _ := metricByName(s.metric) // validated by parseSpec
		return execJob(ctx, eng, key, hillJob(s.cfg, w, kind))
	case "phasehill":
		return execJob(ctx, eng, key, phaseHillJob(s.cfg, w))
	}
	// The remaining families score trials against the reference singles.
	solos, err := soloBatchOn(ctx, eng, s.cfg, []workload.Workload{w})
	if err != nil {
		return nil, true, err
	}
	singles := singlesFor(solos, w)
	switch s.family {
	case "offline":
		return execJob(ctx, eng, key, offLineJob(s.cfg, w, singles))
	case "randhill":
		return execJob(ctx, eng, key, randHillJob(s.cfg, w, singles))
	}
	return execJob(ctx, eng, key, hillWidthJob(s.cfg, w, singles))
}

// execJob runs one rebuilt job on eng and returns the engine's stored
// bytes — the same bytes a local computation of that key would have
// produced and memoised, so remote and local results are
// interchangeable.
func execJob[R any](ctx context.Context, eng *sweep.Engine, key string, j sweep.Job[R]) (json.RawMessage, bool, error) {
	if j.Key != key {
		return nil, true, fmt.Errorf("experiment: exec %s: rebuilt job keys to %s (key grammar drift)", key, j.Key)
	}
	if _, err := sweep.Run(ctx, eng, []sweep.Job[R]{j}); err != nil {
		return nil, true, err
	}
	raw, _, ok := eng.Lookup(ctx, key)
	if !ok {
		return nil, true, fmt.Errorf("experiment: exec %s: result is not cacheable", key)
	}
	return raw, true, nil
}
