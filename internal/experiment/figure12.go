package experiment

import (
	"io"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/resource"
	"smthill/internal/workload"
)

// Figure12Row is one epoch of a time-varying partitioning trace: the
// partition hill-climbing chose, the partition an exhaustive search of
// the same epoch would have chosen, and the epoch's score curve over all
// sampled partitionings (the figure's gray scale).
type Figure12Row struct {
	Epoch int
	// HillShare is thread 0's rename-register share under HILL-WIPC.
	HillShare int
	// BestShare is thread 0's share at the epoch's true peak.
	BestShare int
	// Curve holds the normalised score of each sampled partitioning
	// (index i is share MinShare + i*stride for thread 0).
	Curve []float64
}

// Figure12Workloads lists the five representative workloads of the
// figure with their behaviour classes.
//
//smtlint:ignore deadcode reached only from figure12_test.go; scheduled for deletion with its two tests (ROADMAP 7(b))
func Figure12Workloads() map[string]string {
	return map[string]string{
		"swim-mcf":   "TS (temporally-stable)",
		"applu-ammp": "SS (spatially-stable)",
		"mcf-eon":    "TL (temporally-limited)",
		"art-mcf":    "SL (spatially-limited)",
		"swim-twolf": "JL (jitter-limited)",
	}
}

// Figure12 runs HILL-WIPC on a 2-thread workload and, at every epoch,
// synchronises an exhaustive search to the hill-climber's state
// (Section 4.4.1's methodology, with OFF-LINE synchronised to HILL).
func Figure12(cfg Config, w workload.Workload) []Figure12Row {
	singles := Singles(cfg, w)
	m := w.NewMachine(nil)
	m.CycleN(cfg.WarmupEpochs * cfg.EpochSize)
	hill := core.NewHillClimber(w.Threads(), m.Resources().Sizes()[renameKind], metrics.WeightedIPC)
	r := core.NewRunner(m, hill, metrics.WeightedIPC)
	r.EpochSize = cfg.EpochSize
	r.ReferenceSingles = singles

	// The exhaustive search runs on an OFF-LINE searcher re-synchronised
	// to the hill-climber's machine at every epoch boundary.
	o := core.NewOffLine(nil, metrics.WeightedIPC, singles)
	o.EpochSize = cfg.EpochSize
	o.Stride = cfg.OffLineStride
	rows := make([]Figure12Row, 0, cfg.Epochs)
	for e := 0; e < cfg.Epochs; e++ {
		o.M = m.CloneInto(o.M)
		best := o.RunEpoch()
		curve := make([]float64, len(best.Trials))
		for i, tr := range best.Trials {
			curve[i] = tr.Score
			if best.Score > 0 {
				curve[i] /= best.Score
			}
		}
		res := r.RunEpoch()
		hillShare := 0
		if res.Shares != nil {
			hillShare = res.Shares[0]
		}
		rows = append(rows, Figure12Row{
			Epoch: e, HillShare: hillShare, BestShare: best.Shares[0], Curve: curve,
		})
	}
	return rows
}

// WriteFigure12 renders the trace; the curve is drawn as a coarse
// ASCII gray scale (space < . < - < + < #) over thread 0's share.
func WriteFigure12(w io.Writer, rows []Figure12Row) {
	t := table{w}
	t.row("%5s %6s %6s  %s", "Epoch", "HILL", "BEST", "score curve over thread-0 share ->")
	for _, r := range rows {
		shade := make([]byte, len(r.Curve))
		for i, v := range r.Curve {
			switch {
			case v >= 0.99:
				shade[i] = '#'
			case v >= 0.97:
				shade[i] = '+'
			case v >= 0.93:
				shade[i] = '-'
			case v >= 0.85:
				shade[i] = '.'
			default:
				shade[i] = ' '
			}
		}
		t.row("%5d %6d %6d  |%s|", r.Epoch, r.HillShare, r.BestShare, string(shade))
	}
}

// TrackingError summarises a Figure 12 trace: the mean absolute distance
// (in registers) between the hill-climber's partition and the epoch's
// true best, and the mean fraction of the ideal epoch score achieved.
func TrackingError(rows []Figure12Row, stride int) (meanDist float64, meanFrac float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	sumD, sumF := 0.0, 0.0
	for _, r := range rows {
		d := r.HillShare - r.BestShare
		if d < 0 {
			d = -d
		}
		sumD += float64(d)
		// Locate the hill share on the curve to read its relative score.
		idx := (r.HillShare - resource.MinShare) / stride
		if idx >= 0 && idx < len(r.Curve) {
			sumF += r.Curve[idx]
		}
	}
	return sumD / float64(len(rows)), sumF / float64(len(rows))
}
