package simjob

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smthill/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTechniqueGoldens pins, for every technique Techniques() lists, the
// Result JSON and the telemetry JSONL of a tiny run: single-core on a
// 2-thread workload, and 2-core (every technique but the single-core-only
// HILL-PHASE) on a 4-application one. A technique name that stops
// reaching its learner, or a learner whose decisions drift, changes
// these bytes. Regenerate with
// `go test ./internal/simjob -run Golden -update` and review the diff.
func TestTechniqueGoldens(t *testing.T) {
	var got bytes.Buffer
	run := func(s Spec) {
		var trace bytes.Buffer
		sink := telemetry.NewJSONL(&trace)
		res, err := Run(context.Background(), s, sink)
		if err != nil {
			t.Fatalf("%s: %v", s.Key(), err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(b)
		got.WriteByte('\n')
		got.Write(trace.Bytes())
	}
	for _, tech := range Techniques() {
		run(Spec{Workload: "art-mcf", Tech: tech, Epochs: 4, EpochSize: 4096, Warmup: 1})
	}
	for _, tech := range Techniques() {
		if tech == "HILL-PHASE" {
			continue
		}
		run(Spec{Workload: "art,mcf,fma3d,gcc", Tech: tech, Epochs: 4, EpochSize: 4096, Warmup: 1, Cores: 2})
	}

	path := filepath.Join("testdata", "techniques.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/simjob -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("technique runs deviate from %s (re-run with -update if intentional)\ngot:\n%s", path, got.Bytes())
	}
}
