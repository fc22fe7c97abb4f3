package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"smthill/internal/fabric"
	"smthill/internal/serve"
)

// TestFabricWiring checks the serve-side fabric plumbing that
// cmd/smtserved's coordinator role uses: the coordinator's store backs
// the engine, its counters extend /metrics in scrape format, and its
// peer state extends /healthz — all without disturbing the base series.
func TestFabricWiring(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{Logf: t.Logf})
	_, ts := newTestServer(t, serve.Config{
		Workers:      2,
		Backend:      coord.Backend(),
		Remote:       coord,
		ExtraMetrics: []func(io.Writer){coord.Registry().Write},
		ExtraHealth:  coord.Health,
	})

	// An empty fabric declines every job: the sim must still complete
	// locally, with the result landing in the coordinator's store.
	v, _ := submit(t, ts.URL, tinySpec())
	waitState(t, ts.URL, v.ID, "done")
	if _, ok := coord.Backend().Get(context.Background(), tinySpec().Key()); !ok {
		t.Error("completed job result missing from the coordinator store")
	}

	body := getText(t, ts.URL+"/metrics")
	for _, want := range []string{
		// Base series stay intact, including the new remote carve-out.
		"smtserved_sweep_jobs_total 1",
		"smtserved_sweep_remote_total 0",
		// The fabric section follows in the same exposition.
		`smtserved_fabric_peers{state="alive"} 0`,
		"smtserved_fabric_local_fallback_total 1",
		`smtserved_fabric_dispatch_total{kind="owner"} 0`,
		`smtserved_fabric_exec_ms_bucket{le="+Inf"} 0`,
		"smtserved_fabric_exec_ms_count 0",
		`smtserved_fabric_store_requests_total{op="get",outcome="hit"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status          string          `json:"status"`
		FabricRole      string          `json:"fabric_role"`
		FabricAlive     int             `json:"fabric_peers_alive"`
		FabricStoreKeys json.RawMessage `json:"fabric_store_keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.FabricRole != "coordinator" {
		t.Errorf("healthz = status %q role %q, want ok/coordinator", h.Status, h.FabricRole)
	}
	if string(h.FabricStoreKeys) == "" || string(h.FabricStoreKeys) == "0" {
		t.Errorf("healthz fabric_store_keys = %s, want > 0 after a completed job", h.FabricStoreKeys)
	}
}
