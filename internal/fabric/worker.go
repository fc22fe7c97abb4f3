package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smthill/internal/experiment"
	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// recentKeysCap bounds the computed-keys buffer between heartbeats; a
// worker churning faster than it can gossip drops the oldest hints.
const recentKeysCap = 1024

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// ID names this worker in the coordinator's membership (required;
	// usually host:port).
	ID string
	// CoordinatorURL is the coordinator's base URL (required).
	CoordinatorURL string
	// AdvertiseURL is the base URL the coordinator dials back for exec
	// requests (required).
	AdvertiseURL string
	// HeartbeatEvery is the beat interval (default 2s). Keep it well
	// under the coordinator's HeartbeatTimeout.
	HeartbeatEvery time.Duration
	// Client performs control-plane HTTP (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
	// Tracer, when set, records a server span per exec request (with
	// engine and epoch child spans beneath it) and backhauls the spans
	// of sampled cross-node traces in the exec response for the
	// coordinator to adopt.
	Tracer *obs.Tracer
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker is a fabric execution node: it registers with the coordinator,
// heartbeats liveness plus memo-gossip, and serves /fabric/v1/exec by
// rebuilding jobs from their keys on its local engine. Every key goes
// through experiment.ExecKeyOn, which runs simjob specs and experiment
// families alike; a key it does not recognise, or refuses as malformed,
// the coordinator computes locally.
type Worker struct {
	cfg     WorkerConfig
	eng     *sweep.Engine
	store   *StoreClient // may be nil (no shared store)
	handler http.Handler

	inflight atomic.Int64
	lastSeq  atomic.Uint64

	reg     *obs.Registry
	execVec *obs.CounterVec // outcome
	hbVec   *obs.CounterVec // outcome

	recentMu sync.Mutex
	recent   []string // guarded by recentMu
}

// NewWorker builds a worker around an engine. Like the engine's other
// configuration hooks it must be called before the engine's first Run —
// it installs an observer that collects computed keys for gossip. store
// may be nil; when set, it should also be the engine's backend so
// remote results read through it.
func NewWorker(cfg WorkerConfig, eng *sweep.Engine, store *StoreClient) *Worker {
	reg := obs.NewRegistry()
	w := &Worker{
		cfg: cfg.withDefaults(), eng: eng, store: store,
		reg: reg,
		execVec: reg.CounterVec("smtserved_fabric_exec_served_total",
			"exec requests by outcome", "outcome"),
		hbVec: reg.CounterVec("smtserved_fabric_heartbeats_total",
			"heartbeat round-trips by outcome", "outcome"),
	}
	for _, o := range []string{"ok", "error", "unknown"} {
		w.execVec.With(o)
	}
	w.hbVec.With("ok")
	w.hbVec.With("error")
	reg.GaugeFunc("smtserved_fabric_exec_inflight",
		"exec requests currently executing",
		func() float64 { return float64(w.inflight.Load()) })
	if store != nil {
		reg.Attach(store.Registry())
	}
	eng.AddObserver(func(ev sweep.Event) {
		if ev.Kind == sweep.JobDone && ev.Source == sweep.FromRun {
			w.noteRecent(ev.Key)
		}
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/exec", w.handleExec)
	// A worker's own exposition endpoint: this is what the coordinator's
	// federation scrapes (AdvertiseURL + /metrics). On a full smtserved
	// node the serve mux fronts this handler; standalone harnesses mount
	// Handler() directly and still federate.
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.reg.Write(rw)
	})
	w.handler = mux
	return w
}

func (w *Worker) noteRecent(key string) {
	w.recentMu.Lock()
	w.recent = append(w.recent, key)
	if len(w.recent) > recentKeysCap {
		w.recent = w.recent[len(w.recent)-recentKeysCap:]
	}
	w.recentMu.Unlock()
}

// drainRecent takes the gossip batch for one heartbeat.
func (w *Worker) drainRecent() []string {
	w.recentMu.Lock()
	defer w.recentMu.Unlock()
	out := w.recent
	w.recent = nil
	return out
}

// requeueRecent puts an unsent gossip batch back (heartbeat failed) so
// the hints survive a flaky beat.
func (w *Worker) requeueRecent(keys []string) {
	if len(keys) == 0 {
		return
	}
	w.recentMu.Lock()
	w.recent = append(keys, w.recent...)
	if len(w.recent) > recentKeysCap {
		w.recent = w.recent[:recentKeysCap]
	}
	w.recentMu.Unlock()
}

// Handler returns the worker's HTTP surface (exec, metrics).
func (w *Worker) Handler() http.Handler { return w.handler }

// Registry returns the worker's metric registry (exec and heartbeat
// series, plus the store client's when present), for attachment into a
// node-wide one.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// handleExec executes one key and returns the engine's stored bytes.
// Status codes are the dispatch contract: 200 success, 404 unknown key
// family (coordinator computes locally), 422 the key failed to execute
// (deterministic — retrying elsewhere would fail identically), 400
// protocol mismatch.
//
// When the request carries a sampled traceparent, the whole execution
// runs under a server span continuing that trace, and every span this
// worker recorded for the trace rides back in the response for the
// coordinator to adopt.
func (w *Worker) handleExec(rw http.ResponseWriter, r *http.Request) {
	var req ExecRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("bad exec request: %v", err), http.StatusBadRequest)
		return
	}
	if err := checkProtoVersion(req.Version); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Key == "" {
		http.Error(rw, "exec requires key", http.StatusBadRequest)
		return
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	parent := obs.Extract(r.Header)
	ctx, span := w.cfg.Tracer.StartRemote(r.Context(), parent, "fabric.exec", obs.KindServer)
	span.SetAttr("key", req.Key)
	raw, ok, err := w.execKey(ctx, req.Key)
	switch {
	case err != nil:
		w.execVec.With("error").Inc()
		span.SetAttr("outcome", "error")
		span.End(err)
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
	case !ok:
		w.execVec.With("unknown").Inc()
		span.SetAttr("outcome", "unknown")
		span.End(fmt.Errorf("unknown key family: %s", req.Key))
		http.Error(rw, fmt.Sprintf("unknown key family: %s", req.Key), http.StatusNotFound)
	default:
		w.execVec.With("ok").Inc()
		span.SetAttr("outcome", "ok")
		span.End(nil)
		var spans []obs.SpanData
		if parent.Valid() && parent.Sampled {
			spans = w.cfg.Tracer.CollectTrace(parent.Trace)
		}
		writeProtoJSON(rw, ExecResponse{
			Version: ProtocolVersion, Key: req.Key, Result: raw,
			QueueDepth: int(w.inflight.Load()) - 1, // exclude this request
			Spans:      spans,
		})
	}
}

// execKey resolves one key: warm engine state first, then the one
// by-key executor.
func (w *Worker) execKey(ctx context.Context, key string) (json.RawMessage, bool, error) {
	if raw, _, ok := w.eng.Lookup(ctx, key); ok {
		return raw, true, nil
	}
	return experiment.ExecKeyOn(ctx, w.eng, key)
}

// Start registers with the coordinator (retrying until ctx ends) and
// then heartbeats until ctx ends. It returns immediately; the control
// loop runs in a goroutine. Exec requests are served regardless of
// registration state — the handler is mounted by the caller.
func (w *Worker) Start(ctx context.Context) {
	go func() {
		backoff := 100 * time.Millisecond
		for {
			err := w.Register(ctx)
			if err == nil {
				break
			}
			w.cfg.Logf("fabric: register with %s: %v (retrying in %s)", w.cfg.CoordinatorURL, err, backoff)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		w.cfg.Logf("fabric: registered with %s as %s", w.cfg.CoordinatorURL, w.cfg.ID)
		t := time.NewTicker(w.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.Heartbeat(ctx); err != nil {
					w.cfg.Logf("fabric: heartbeat: %v", err)
				}
			}
		}
	}()
}

// Register performs one registration round-trip.
func (w *Worker) Register(ctx context.Context) error {
	var resp RegisterResponse
	err := w.post(ctx, "/fabric/v1/register",
		RegisterRequest{Version: ProtocolVersion, ID: w.cfg.ID, Addr: w.cfg.AdvertiseURL}, &resp)
	if err != nil {
		return err
	}
	if err := checkProtoVersion(resp.Version); err != nil {
		return err
	}
	w.lastSeq.Store(resp.StoreSeq)
	return nil
}

// Heartbeat performs one beat: liveness + queue depth + gossip up,
// store news down.
func (w *Worker) Heartbeat(ctx context.Context) error {
	recent := w.drainRecent()
	hb := Heartbeat{
		Version: ProtocolVersion, ID: w.cfg.ID, Addr: w.cfg.AdvertiseURL,
		QueueDepth: int(w.inflight.Load()), Seq: w.lastSeq.Load(), RecentKeys: recent,
	}
	var resp HeartbeatResponse
	if err := w.post(ctx, "/fabric/v1/heartbeat", hb, &resp); err != nil {
		w.hbVec.With("error").Inc()
		w.requeueRecent(recent)
		return err
	}
	if err := checkProtoVersion(resp.Version); err != nil {
		w.hbVec.With("error").Inc()
		return err
	}
	w.hbVec.With("ok").Inc()
	w.lastSeq.Store(resp.StoreSeq)
	if w.store != nil && len(resp.NewKeys) > 0 {
		w.store.MarkKnown(ctx, resp.NewKeys)
	}
	return nil
}

func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.CoordinatorURL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// Health returns the worker's /healthz contribution.
func (w *Worker) Health() map[string]any {
	h := map[string]any{
		"fabric_role":          "worker",
		"fabric_coordinator":   w.cfg.CoordinatorURL,
		"fabric_exec_inflight": w.inflight.Load(),
		"fabric_heartbeats_ok": w.hbVec.With("ok").Value(),
	}
	if w.store != nil {
		h["fabric_store_known_keys"] = w.store.KnownKeys()
	}
	return h
}
