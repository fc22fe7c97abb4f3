package experiment

import (
	"slices"
	"testing"

	"smthill/internal/metrics"
	"smthill/internal/simjob"
	"smthill/internal/workload"
)

// TestJobKeysPinned pins one job key per experiment family, built by
// that family's own constructor at tiny() scale. Keys are the disk
// cache's file names and the fabric's wire currency, so any change to
// one of these literals is a wire-format change and must be deliberate.
func TestJobKeysPinned(t *testing.T) {
	cfg := tiny()
	w := workload.ByName("art-mcf")
	for _, c := range []struct {
		family, got, want string
	}{
		{"solo", soloKey("art", cfg.SoloCycles),
			"v1|solo|app=art|cycles=16384"},
		{"table2", table2Key(cfg, "art"),
			"v1|table2|app=art|sc=16384"},
		{"baseline", baselineKey(cfg, w, "ICOUNT"),
			"v1|baseline|ep=6|es=8192|pol=ICOUNT|wl=art-mcf|wu=1"},
		{"hill", hillKey(cfg, w, metrics.WeightedIPC),
			"v1|hill|ep=6|es=8192|metric=weighted-ipc|wl=art-mcf|wu=1"},
		{"phasehill", phaseHillKey(cfg, w),
			"v1|phasehill|ep=6|es=8192|wl=art-mcf|wu=1"},
		{"offline", offLineKey(cfg, w),
			"v1|offline|ep=6|es=8192|sc=16384|stride=64|wl=art-mcf|wu=1"},
		{"hillwidth", hillWidthKey(cfg, w),
			"v1|hillwidth|ep=6|es=8192|sc=16384|stride=64|wl=art-mcf|wu=1"},
		{"randhill", randHillKey(cfg, w),
			"v1|randhill|ep=6|es=8192|iters=6|sc=16384|wl=art-mcf|wu=1"},
		{"mcpair", mcpairSpec(cfg, MulticoreWorkloads(2)[0], 2, "ipc-pred").Key(),
			"v1|simjob|cores=2|d=4|ep=6|es=8192|pair=ipc-pred|seed=0|tech=HILL-WIPC|wl=art,mcf,fma3d,gcc|wu=1"},
	} {
		if c.got != c.want {
			t.Errorf("%s key = %q, want %q", c.family, c.got, c.want)
		}
	}
}

// FuzzParseSpec feeds arbitrary strings to the decoder behind ExecKeyOn,
// the fabric's entry point for untrusted keys. It must never panic, and
// every key it accepts must re-encode to itself and stay inside the
// bounds that keep a simulation well-defined.
func FuzzParseSpec(f *testing.F) {
	for _, key := range []string{
		"v1|solo|app=art|cycles=16384",
		"v1|table2|app=art|sc=16384",
		"v1|baseline|ep=6|es=8192|pol=ICOUNT|wl=art-mcf|wu=1",
		"v1|hill|ep=6|es=8192|metric=weighted-ipc|wl=art-mcf|wu=1",
		"v1|phasehill|ep=6|es=8192|wl=art-mcf|wu=1",
		"v1|offline|ep=6|es=8192|sc=16384|stride=64|wl=art-mcf|wu=1",
		"v1|hillwidth|ep=6|es=8192|sc=16384|stride=64|wl=art-mcf|wu=1",
		"v1|randhill|ep=6|es=8192|iters=6|sc=16384|wl=art-mcf|wu=1",
		"v1|simjob|cores=2|d=4|ep=6|es=8192|pair=ipc-pred|seed=0|tech=HILL-WIPC|wl=art,mcf,fma3d,gcc|wu=1",
		"v1|solo|app=art|cycles=-5",
	} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		s, ok, err := parseSpec(key)
		if !ok || err != nil {
			return
		}
		if got := s.key(); got != key {
			t.Fatalf("parseSpec(%q) accepted a key that re-encodes to %q", key, got)
		}
		for _, name := range familyParams[s.family] {
			var bad bool
			switch name {
			case "wl":
				w, err := workload.Parse(s.wl)
				bad = err != nil || w.Name() != s.wl
			case "app":
				bad = !slices.Contains(workload.Names(), s.app)
			case "pol":
				bad = !slices.Contains(baselineNames(), s.pol)
			case "metric":
				_, err := metricByName(s.metric)
				bad = err != nil
			case "ep":
				bad = s.cfg.Epochs < 1 || s.cfg.Epochs > simjob.MaxEpochs
			case "es":
				bad = s.cfg.EpochSize < 1 || s.cfg.EpochSize > simjob.MaxEpochSize
			case "wu":
				bad = s.cfg.WarmupEpochs < 0 || s.cfg.WarmupEpochs > simjob.MaxWarmup
			case "cycles":
				bad = s.cycles < 1
			case "stride":
				bad = s.cfg.OffLineStride < 1
			case "iters":
				bad = s.cfg.RandHillIters < 1
			case "sc":
				bad = s.cfg.SoloCycles < 1
			default:
				t.Fatalf("parseSpec(%q): family %s has unchecked parameter %q", key, s.family, name)
			}
			if bad {
				t.Fatalf("parseSpec(%q) accepted out-of-range %s: %+v", key, name, s)
			}
		}
	})
}
