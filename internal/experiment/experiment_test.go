package experiment

import (
	"bytes"
	"strings"
	"testing"

	"smthill/internal/core"
	"smthill/internal/metrics"
	"smthill/internal/workload"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		EpochSize:     8 * 1024,
		Epochs:        6,
		WarmupEpochs:  1,
		OffLineStride: 64,
		RandHillIters: 6,
		SoloCycles:    16 * 1024,
	}
}

func tinyLoads() []workload.Workload {
	return []workload.Workload{
		workload.ByName("gzip-bzip2"),
		workload.ByName("art-mcf"),
	}
}

func TestSingles(t *testing.T) {
	s := Singles(tiny(), workload.ByName("art-mcf"))
	if len(s) != 2 || s[0] <= 0 || s[1] <= 0 {
		t.Fatalf("singles = %v", s)
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := tiny()
	rows := Table2(cfg)
	if len(rows) != 22 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SoloIPC <= 0 || r.SoloIPC > 8 {
			t.Errorf("%s solo IPC %.3f", r.App, r.SoloIPC)
		}
		if r.Rsc < 16 || r.Rsc > 256 {
			t.Errorf("%s Rsc %d", r.App, r.Rsc)
		}
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "mcf") {
		t.Fatal("rendered table missing apps")
	}
}

func TestTable2TypesAreSeparated(t *testing.T) {
	// Needs warmed caches, so run longer solos than tiny()'s.
	const cycles = 3 * 64 * 1024
	var ilpMin, memMax float64
	ilpMin = 99
	for _, name := range workload.Names() {
		app := workload.Get(name)
		ipc := core.SoloIPC(workload.Workload{Apps: []string{name}}.NewMachine(nil), cycles)
		if app.Type == workload.ILP && ipc < ilpMin {
			ilpMin = ipc
		}
		if app.Type == workload.MEM && ipc > memMax {
			memMax = ipc
		}
	}
	if memMax >= ilpMin {
		t.Fatalf("MEM apps (max %.2f) overlap ILP apps (min %.2f) in solo IPC", memMax, ilpMin)
	}
}

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 42 {
		t.Fatalf("%d workloads", len(rows))
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "art-mcf") {
		t.Fatal("rendered table missing workloads")
	}
}

func TestFigure2SurfaceIsHillShaped(t *testing.T) {
	cfg := tiny()
	points := Figure2(cfg, 48)
	if len(points) < 6 {
		t.Fatalf("only %d surface points", len(points))
	}
	peak := Peak(points)
	if peak.IPC <= 0 {
		t.Fatal("zero peak")
	}
	// The surface must not be flat: the worst point is clearly below
	// the peak.
	worst := peak
	for _, p := range points {
		if p.IPC < worst.IPC {
			worst = p
		}
	}
	if worst.IPC > 0.97*peak.IPC {
		t.Fatalf("surface is flat: worst %.3f vs peak %.3f", worst.IPC, peak.IPC)
	}
	var buf bytes.Buffer
	WriteFigure2(&buf, points)
	if !strings.Contains(buf.String(), "<- peak") {
		t.Fatal("peak not marked")
	}
}

func TestFigure4Rows(t *testing.T) {
	rows := Figure4(tiny(), tinyLoads()[:1])
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, tech := range []string{"ICOUNT", "FLUSH", "DCRA", "OFF-LINE"} {
		if rows[0].Scores[tech] <= 0 {
			t.Fatalf("%s score missing: %+v", tech, rows[0].Scores)
		}
	}
	var buf bytes.Buffer
	WriteCompare(&buf, rows)
	if !strings.Contains(buf.String(), "OFF-LINE") {
		t.Fatal("render missing technique")
	}
}

func TestFigure9Rows(t *testing.T) {
	rows := Figure9(tiny(), tinyLoads()[1:])
	if rows[0].Scores["HILL"] <= 0 {
		t.Fatalf("HILL score missing: %+v", rows[0].Scores)
	}
}

func TestGroupMeansAndGains(t *testing.T) {
	rows := []CompareRow{
		{Workload: "a", Group: "G1", Scores: map[string]float64{"X": 1, "Y": 2}},
		{Workload: "b", Group: "G1", Scores: map[string]float64{"X": 3, "Y": 3}},
	}
	means := GroupMeans(rows)
	if means["G1"]["X"] != 2 || means["ALL"]["Y"] != 2.5 {
		t.Fatalf("means = %v", means)
	}
	// Gains: mean of (2/1-1, 3/3-1) = 0.5.
	if g := Gains(rows, "Y", "X"); g < 0.49 || g > 0.51 {
		t.Fatalf("gain = %f", g)
	}
}

func TestFigure5Synchronized(t *testing.T) {
	cfg := tiny()
	rows := Figure5(cfg, workload.ByName("art-mcf"))
	if len(rows) != cfg.Epochs {
		t.Fatalf("%d rows", len(rows))
	}
	wins := WinFractions(rows)
	for _, b := range []string{"ICOUNT", "FLUSH", "DCRA"} {
		if wins[b] < 0 || wins[b] > 1 {
			t.Fatalf("win fraction %f", wins[b])
		}
	}
	// OFF-LINE picks the best trial of each epoch, so it should win
	// most epochs against the weakest baseline.
	if wins["FLUSH"] < 0.5 {
		t.Fatalf("OFF-LINE beat FLUSH in only %.0f%% of epochs", 100*wins["FLUSH"])
	}
	var buf bytes.Buffer
	WriteFigure5(&buf, rows)
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != cfg.Epochs+1 {
		t.Fatal("rendered row count wrong")
	}
}

func TestHillWidthsRows(t *testing.T) {
	cfg := tiny()
	rows := HillWidths(cfg, []workload.Workload{workload.ByName("gzip-bzip2")})
	if len(rows) != 1 || len(rows[0].Width) != len(HillWidthLevels) {
		t.Fatalf("rows = %+v", rows)
	}
	// Widths grow (or stay equal) as the level drops.
	for i := 1; i < len(rows[0].Width); i++ {
		if rows[0].Width[i] < rows[0].Width[i-1] {
			t.Fatalf("widths not monotone: %v", rows[0].Width)
		}
	}
	var buf bytes.Buffer
	WriteHillWidths(&buf, rows)
	if !strings.Contains(buf.String(), "w0.90") {
		t.Fatal("header missing levels")
	}
}

func TestWidthAt(t *testing.T) {
	scores := []float64{0.2, 0.8, 1.0, 0.9, 0.3}
	if got := widthAt(scores, 0.99, 2); got != 2 {
		t.Fatalf("width at 0.99 = %d", got)
	}
	if got := widthAt(scores, 0.85, 2); got != 4 {
		t.Fatalf("width at 0.85 = %d", got)
	}
	if got := widthAt(scores, 0.75, 2); got != 6 {
		t.Fatalf("width at 0.75 = %d", got)
	}
	if got := widthAt(scores, 0.10, 2); got != 10 {
		t.Fatalf("width at 0.10 = %d", got)
	}
}

func TestFigure10CellsAndSummary(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 4
	cells := Figure10(cfg, []workload.Workload{workload.ByName("gzip-bzip2")})
	if len(cells) != len(Figure10Techniques()) {
		t.Fatalf("%d cells", len(cells))
	}
	sum := Figure10Summary(cells, metrics.AvgIPC)
	if sum["ILP2"]["ICOUNT"] <= 0 {
		t.Fatalf("summary = %v", sum)
	}
	var buf bytes.Buffer
	WriteFigure10(&buf, cells)
	if !strings.Contains(buf.String(), "HILL-HWIPC") {
		t.Fatal("render missing technique")
	}
	_ = MatchedMetricAdvantage(cells) // smoke: no panic on small inputs
}

func TestDeriveLabel(t *testing.T) {
	cases := map[string]string{
		"gzip-bzip2": "SM",     // 83+72 = 155 <= 256
		"art-mcf":    "LG(L)",  // 176+97 > 256; art steady, mcf Low
		"mcf-twolf":  "LG(LH)", // 97+184 > 256; mcf Low, twolf High
		"swim-twolf": "LG(H)",  // 213+184 > 256, twolf High
		"swim-mcf":   "LG(L)",  // 213+97 > 256, mcf Low
	}
	for name, want := range cases {
		got := DeriveLabel(workload.ByName(name))
		if got != want {
			t.Errorf("DeriveLabel(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestPredictBehaviour(t *testing.T) {
	cases := map[string]string{"SM": "SS", "LG(H)": "JL", "LG(L)": "TL", "LG(LH)": "TLJL", "LG": "TL"}
	for in, want := range cases {
		if got := PredictBehaviour(in); got != want {
			t.Errorf("PredictBehaviour(%s) = %s", in, got)
		}
	}
}

func TestFigure11TwoThread(t *testing.T) {
	cfg := tiny()
	rows := Figure11TwoThread(cfg, []workload.Workload{workload.ByName("gzip-bzip2")})
	if rows[0].Scores["OFF-LINE"] <= 0 || rows[0].Scores["HILL-WIPC"] <= 0 {
		t.Fatalf("scores = %v", rows[0].Scores)
	}
	if f := FractionOfIdeal(rows, "OFF-LINE"); f <= 0 || f > 1.5 {
		t.Fatalf("fraction of ideal = %f", f)
	}
	var buf bytes.Buffer
	WriteFigure11(&buf, rows)
	if !strings.Contains(buf.String(), "Derived") {
		t.Fatal("render missing labels")
	}
}

func TestFigure11FourThread(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	rows := Figure11FourThread(cfg, []workload.Workload{workload.ByName("art-mcf-vpr-swim")})
	for _, tech := range []string{"DCRA", "HILL-WIPC", "RAND-HILL"} {
		if rows[0].Scores[tech] <= 0 {
			t.Fatalf("%s missing: %v", tech, rows[0].Scores)
		}
	}
}

func TestFigure12Trace(t *testing.T) {
	cfg := tiny()
	rows := Figure12(cfg, workload.ByName("gzip-bzip2"))
	if len(rows) != cfg.Epochs {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Curve) == 0 {
			t.Fatal("empty curve")
		}
		if r.BestShare < 8 || r.BestShare > 248 {
			t.Fatalf("best share %d", r.BestShare)
		}
	}
	dist, frac := TrackingError(rows, cfg.OffLineStride)
	if dist < 0 || frac < 0 || frac > 1.001 {
		t.Fatalf("tracking error = (%f, %f)", dist, frac)
	}
	var buf bytes.Buffer
	WriteFigure12(&buf, rows)
	if !strings.Contains(buf.String(), "|") {
		t.Fatal("render missing curve")
	}
}

func TestSection5Rows(t *testing.T) {
	cfg := tiny()
	rows := Section5(cfg, []workload.Workload{workload.ByName("art-mcf")})
	if rows[0].Hill <= 0 || rows[0].PhaseHill <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	overall, tl := Section5Boost(rows)
	if overall < -1 || overall > 1 || tl < -1 || tl > 1 {
		t.Fatalf("boost = (%f, %f)", overall, tl)
	}
	var buf bytes.Buffer
	WriteSection5(&buf, rows)
	if !strings.Contains(buf.String(), "phase extension boost") {
		t.Fatal("render missing summary")
	}
}

func TestConfigs(t *testing.T) {
	d, p := Default(), Paper()
	if d.EpochSize != core.DefaultEpochSize {
		t.Fatal("default epoch size wrong")
	}
	if p.Epochs <= d.Epochs || p.OffLineStride >= d.OffLineStride {
		t.Fatal("paper config is not larger-scale than default")
	}
}

func TestQualitativeScenarios(t *testing.T) {
	cfg := tiny()
	cfg.Epochs = 3
	rows := Qualitative(cfg)
	if len(rows) != 2 {
		t.Fatalf("%d scenarios", len(rows))
	}
	for _, r := range rows {
		if r.BestShare < 8 || r.BestShare > 248 {
			t.Errorf("%s best share %.1f out of range", r.Scenario, r.BestShare)
		}
		if r.DCRAShare < 1 || r.DCRAShare > 256 {
			t.Errorf("%s DCRA share %.1f out of range", r.Scenario, r.DCRAShare)
		}
		if r.BestScore <= 0 || r.DCRAScore <= 0 {
			t.Errorf("%s scores %.3f/%.3f", r.Scenario, r.BestScore, r.DCRAScore)
		}
	}
	var buf bytes.Buffer
	WriteQualitative(&buf, rows)
	if !strings.Contains(buf.String(), "clustering") {
		t.Fatal("render missing scenario")
	}
}
