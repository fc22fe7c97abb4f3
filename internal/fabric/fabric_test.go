package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/sweep"
)

// fabricCfg keeps the integration sweeps cheap; it mirrors the
// experiment package's own scaled-down test configuration.
func fabricCfg() experiment.Config {
	return experiment.Config{
		EpochSize:     8 * 1024,
		Epochs:        4,
		WarmupEpochs:  1,
		OffLineStride: 64,
		RandHillIters: 6,
		SoloCycles:    16 * 1024,
	}
}

// namedRun regenerates one named experiment on the installed global
// engine and returns its exact output bytes.
func namedRun(t *testing.T, cfg experiment.Config, name string, opts experiment.RunOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiment.RunNamed(cfg, name, opts, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.Bytes()
}

// testNode is one in-process fabric worker: its own engine, its own
// read-through store client, and an httptest exec endpoint.
type testNode struct {
	id     string
	w      *Worker
	srv    *httptest.Server
	cancel context.CancelFunc
}

// startTestWorker brings up a worker against the coordinator. The exec
// server must exist before the worker (the worker advertises its URL),
// so the handler late-binds through an atomic pointer — the same shape
// cmd/smtserved uses when the listener comes up before the worker.
func startTestWorker(t *testing.T, id, coordURL string) *testNode {
	t.Helper()
	wp := new(atomic.Pointer[Worker])
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w := wp.Load(); w != nil {
			w.Handler().ServeHTTP(rw, r)
			return
		}
		http.Error(rw, "worker not ready", http.StatusServiceUnavailable)
	}))
	eng := sweep.NewEngine(2)
	store := NewStoreClient(coordURL, NewMemStore(), nil)
	eng.SetBackend(store)
	w := NewWorker(WorkerConfig{
		ID: id, CoordinatorURL: coordURL, AdvertiseURL: srv.URL,
		HeartbeatEvery: 25 * time.Millisecond, Logf: t.Logf,
	}, eng, store)
	wp.Store(w)
	ctx, cancel := context.WithCancel(context.Background())
	w.Start(ctx)
	n := &testNode{id: id, w: w, srv: srv, cancel: cancel}
	t.Cleanup(n.kill)
	return n
}

// kill simulates a worker crash: the control loop stops and the exec
// endpoint drops connections.
func (n *testNode) kill() {
	n.cancel()
	n.srv.Close()
}

// waitAlive blocks until the coordinator sees `want` live workers.
func waitAlive(t *testing.T, c *Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		alive := 0
		for _, p := range c.Peers() {
			if p.Alive {
				alive++
			}
		}
		if alive == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d live workers (peers: %+v)", want, c.Peers())
}

// startFabric builds a coordinator with its engine installed as the
// experiment engine, so RunNamed dispatches over the fabric.
func startFabric(t *testing.T) (*Coordinator, string) {
	t.Helper()
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: 2 * time.Second, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	eng := sweep.NewEngine(2)
	eng.SetBackend(coord.Backend())
	eng.SetRemote(coord)
	experiment.SetEngine(eng)
	t.Cleanup(func() { experiment.SetEngine(sweep.NewEngine(0)) })
	return coord, srv.URL
}

// TestFabricClusterByteIdentical is the tentpole acceptance test: a
// coordinator plus two workers produce fig4, fig9, and table2 byte for
// byte identical to a serial single-engine run.
func TestFabricClusterByteIdentical(t *testing.T) {
	cfg := fabricCfg()
	runs := []struct {
		name string
		opts experiment.RunOptions
	}{
		{"fig4", experiment.RunOptions{Workloads: "gzip-bzip2,art-mcf"}},
		{"fig9", experiment.RunOptions{Workloads: "art-gzip,swim-twolf"}},
		{"table2", experiment.RunOptions{}},
		{"mcpair", experiment.RunOptions{}},
	}

	// Serial reference: one plain engine, no fabric.
	experiment.SetEngine(sweep.NewEngine(0))
	want := map[string][]byte{}
	for _, r := range runs {
		want[r.name] = namedRun(t, cfg, r.name, r.opts)
	}

	coord, coordURL := startFabric(t)
	startTestWorker(t, "w1", coordURL)
	startTestWorker(t, "w2", coordURL)
	waitAlive(t, coord, 2)

	for _, r := range runs {
		got := namedRun(t, cfg, r.name, r.opts)
		if !bytes.Equal(got, want[r.name]) {
			t.Errorf("%s over the fabric differs from serial:\nserial:\n%s\nfabric:\n%s",
				r.name, want[r.name], got)
		}
	}

	// The fabric must actually have carried the work: every job the
	// engine saw was dispatched (owner, stolen, or affinity), none failed
	// through to local fallback.
	dispatched := coord.dispatches.With("owner").Value() +
		coord.dispatches.With("stolen").Value() +
		coord.dispatches.With("affinity").Value()
	failed, fellBack := coord.dispatchFailed.Value(), coord.localFallback.Value()
	if dispatched == 0 {
		t.Error("no jobs were dispatched; the fabric sat idle")
	}
	if failed != 0 || fellBack != 0 {
		t.Errorf("healthy cluster had dispatchFailed=%d localFallback=%d, want 0", failed, fellBack)
	}
	if h := coord.Health(); h["fabric_store_keys"].(uint64) == 0 {
		t.Error("shared store is empty after a full sweep")
	}

	var metrics strings.Builder
	coord.Registry().Write(&metrics)
	for _, want := range []string{
		"smtserved_fabric_peers{state=\"alive\"} 2",
		"smtserved_fabric_dispatch_total{kind=\"owner\"}",
		"smtserved_fabric_store_requests_total",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("coordinator metrics missing %q:\n%s", want, metrics.String())
		}
	}
}

// TestFabricWorkerDeathMidSweep kills one of two workers while a sweep
// is in flight, then restarts it, checking byte-identical output
// throughout — the re-dispatch acceptance criterion.
func TestFabricWorkerDeathMidSweep(t *testing.T) {
	cfg := fabricCfg()
	fig9 := experiment.RunOptions{Workloads: "art-mcf,gzip-bzip2,art-gzip,swim-twolf"}

	experiment.SetEngine(sweep.NewEngine(0))
	wantFig9 := namedRun(t, cfg, "fig9", fig9)
	wantTable2 := namedRun(t, cfg, "table2", experiment.RunOptions{})

	coord, coordURL := startFabric(t)
	victim := startTestWorker(t, "w1", coordURL)
	startTestWorker(t, "w2", coordURL)
	waitAlive(t, coord, 2)

	// Kill the victim shortly into the sweep. Whether the kill lands
	// mid-dispatch or between jobs is timing-dependent; the output must
	// be byte-identical either way, and the suspect/re-dispatch path is
	// exercised whenever a dispatch was in flight or routed to the dead
	// worker afterwards.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(50 * time.Millisecond)
		victim.kill()
	}()
	got := namedRun(t, cfg, "fig9", fig9)
	<-killed
	if !bytes.Equal(got, wantFig9) {
		t.Errorf("fig9 with a worker dying mid-sweep differs from serial:\nserial:\n%s\nfabric:\n%s",
			wantFig9, got)
	}

	// Restart the dead worker under its old identity; it must rejoin the
	// ring via its register/heartbeat with no special handshake, and the
	// next sweep must again match serial bytes.
	startTestWorker(t, "w1", coordURL)
	waitAlive(t, coord, 2)
	if got := namedRun(t, cfg, "table2", experiment.RunOptions{}); !bytes.Equal(got, wantTable2) {
		t.Errorf("table2 after worker restart differs from serial:\nserial:\n%s\nfabric:\n%s",
			wantTable2, got)
	}
}
