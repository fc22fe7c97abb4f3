package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smthill/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares v, JSON-encoded with full float precision,
// against testdata/<name>.golden.json. Any difference is a change to a
// reproduced figure: regenerate with
// `go test ./internal/experiment -run Golden -update` and review the diff.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiment -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s deviates from %s (re-run with -update if intentional)\ngot:\n%s", name, path, got)
	}
}

// TestFigureGoldens pins the tiny-scale rows of the reproduced figures
// absolutely: the OFF-LINE comparison (fig4), the on-line
// HILL-WIPC comparison against the baselines (fig9), the hill-width
// analysis (fig7), HILL vs OFF-LINE and RAND-HILL (fig11), the
// exhaustive search synchronised to HILL (fig12), and the qualitative
// scenarios. The relative tests (serial vs parallel, cached vs fresh)
// cannot see a change that shifts every run the same way; these can.
func TestFigureGoldens(t *testing.T) {
	cfg := tiny()
	four := []workload.Workload{workload.ByName("ammp-applu-art-mcf")}
	cases := []struct {
		name string
		rows func() any
	}{
		{"fig4", func() any { return Figure4(cfg, tinyLoads()) }},
		{"fig9", func() any { return Figure9(cfg, tinyLoads()) }},
		{"fig7", func() any { return HillWidths(cfg, tinyLoads()) }},
		{"fig11-2t", func() any { return Figure11TwoThread(cfg, tinyLoads()) }},
		{"fig11-4t", func() any { return Figure11FourThread(cfg, four) }},
		{"fig12", func() any { return Figure12(cfg, workload.ByName("gzip-bzip2")) }},
		{"qual", func() any { return Qualitative(cfg) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.rows()) })
	}
}
