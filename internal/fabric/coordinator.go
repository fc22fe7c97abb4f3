package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// CoordinatorConfig parameterises a Coordinator. The zero value of
// every field selects a default.
type CoordinatorConfig struct {
	// Store is the backing result store (default: a fresh MemStore).
	// Wire the coordinator's disk cache here to persist across runs.
	Store sweep.Backend
	// HeartbeatTimeout is how long a silent worker stays in the ring
	// before being reaped (default 10s).
	HeartbeatTimeout time.Duration
	// ExecTimeout bounds one dispatched job execution (default 10m,
	// matching serve's job timeout).
	ExecTimeout time.Duration
	// StealDepth triggers work-stealing: when the ring owner's reported
	// queue is more than StealDepth jobs deeper than the least-loaded
	// worker's, the job goes to the latter (default 4).
	StealDepth int
	// Vnodes is the ring's virtual-node count per worker (default 64).
	Vnodes int
	// AffinityKeys caps the key->worker affinity index (default 65536).
	AffinityKeys int
	// Client performs dispatch HTTP (default http.DefaultClient).
	Client *http.Client
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
	// Tracer, when set, records dispatch client spans (with placement
	// decisions as span events) and adopts the spans workers backhaul
	// in exec responses, so the coordinator's ring holds whole
	// cross-node traces.
	Tracer *obs.Tracer
	// ScrapeInterval rate-limits federation: a worker's /metrics is
	// scraped at most once per interval, triggered by its heartbeats
	// (default 2s, the default worker heartbeat cadence).
	ScrapeInterval time.Duration
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 10 * time.Minute
	}
	if c.StealDepth <= 0 {
		c.StealDepth = 4
	}
	if c.AffinityKeys <= 0 {
		c.AffinityKeys = 65536
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 2 * time.Second
	}
	return c
}

// member is the coordinator's view of one worker.
type member struct {
	id       string
	addr     string
	lastSeen time.Time
	depth    int
	alive    bool
}

// Coordinator owns the fabric's control plane: worker membership and
// liveness, the consistent-hash ring, the shared result store (served
// over HTTP with a gossip log), and job dispatch. It implements
// sweep.Remote, so installing it on an engine (sweep.SetRemote) makes
// every engine job transparently eligible for distribution; any
// dispatch failure falls back to local execution in the engine.
type Coordinator struct {
	cfg CoordinatorConfig
	now func() time.Time // injectable for liveness tests

	store    *storeLog
	storeSrv *StoreServer
	handler  http.Handler
	fed      *obs.Federator

	mu       sync.Mutex
	members  map[string]*member // guarded by mu
	ring     *Ring              // guarded by mu
	affinity map[string]string  // guarded by mu
	affOrder []string           // guarded by mu; affinity insertion order, for cap eviction

	reg            *obs.Registry
	peersGauge     *obs.GaugeVec   // state
	dispatches     *obs.CounterVec // kind
	redispatched   *obs.Counter
	dispatchFailed *obs.Counter
	localFallback  *obs.Counter
	reapedTotal    *obs.Counter
	registeredTot  *obs.Counter
	execMS         *obs.Hist
}

// NewCoordinator builds a coordinator. Mount Handler under /fabric/v1/
// next to the serve API, install the coordinator on the serving
// engine with SetRemote(c) and SetBackend(c.Backend()), and workers do
// the rest.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:      cfg,
		now:      time.Now,
		store:    newStoreLog(cfg.Store),
		fed:      obs.NewFederator(cfg.Client),
		members:  map[string]*member{},
		ring:     NewRing(cfg.Vnodes),
		affinity: map[string]string{},
		reg:      reg,
		peersGauge: reg.GaugeVec("smtserved_fabric_peers",
			"registered workers by liveness state", "state"),
		dispatches: reg.CounterVec("smtserved_fabric_dispatch_total",
			"successful dispatches by placement kind", "kind"),
		redispatched: reg.Counter("smtserved_fabric_redispatch_total",
			"dispatch attempts after the first, per job"),
		dispatchFailed: reg.Counter("smtserved_fabric_dispatch_failed_total",
			"jobs every candidate worker failed to serve"),
		localFallback: reg.Counter("smtserved_fabric_local_fallback_total",
			"jobs declined to the local engine (no live workers or non-retryable rejection)"),
		reapedTotal: reg.Counter("smtserved_fabric_workers_reaped_total",
			"workers removed after missing heartbeats"),
		registeredTot: reg.Counter("smtserved_fabric_workers_registered_total",
			"distinct workers ever registered"),
		execMS: reg.Hist("smtserved_fabric_exec_ms",
			"end-to-end dispatch latency in milliseconds"),
	}
	// Materialize the full label vocabulary so zero-valued series render.
	c.peersGauge.With("alive")
	c.peersGauge.With("dead")
	for _, k := range []string{"owner", "stolen", "affinity"} {
		c.dispatches.With(k)
	}
	c.storeSrv = NewStoreServer(c.store)
	c.storeSrv.SetTracer(cfg.Tracer)
	reg.Attach(c.storeSrv.Registry())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	mux.Handle("/fabric/v1/store", c.storeSrv)
	c.handler = mux
	return c
}

// Handler returns the coordinator's HTTP surface (register, heartbeat,
// store).
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Backend returns the result store as a sweep.Backend. Install it on
// the coordinator's own engine so locally computed results enter the
// store (and its gossip log) exactly like worker uploads.
func (c *Coordinator) Backend() sweep.Backend { return c.store }

// Registry returns the coordinator's metric registry (dispatch,
// liveness, and store-server series), for attachment into a node-wide
// registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	_, span := c.cfg.Tracer.StartFrom(r.Context(), obs.Extract(r.Header), "fabric.register", obs.KindServer)
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad register request: %v", err), http.StatusBadRequest)
		span.End(err)
		return
	}
	if err := checkProtoVersion(req.Version); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		span.End(err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		http.Error(w, "register requires id and addr", http.StatusBadRequest)
		span.End(fmt.Errorf("register missing id/addr"))
		return
	}
	c.admit(req.ID, req.Addr, 0)
	span.SetAttr("worker", req.ID)
	span.End(nil)
	writeProtoJSON(w, RegisterResponse{Version: ProtocolVersion, StoreSeq: c.store.seq()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	_, span := c.cfg.Tracer.StartFrom(r.Context(), obs.Extract(r.Header), "fabric.heartbeat", obs.KindServer)
	var hb Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&hb); err != nil {
		http.Error(w, fmt.Sprintf("bad heartbeat: %v", err), http.StatusBadRequest)
		span.End(err)
		return
	}
	if err := checkProtoVersion(hb.Version); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		span.End(err)
		return
	}
	if hb.ID == "" || hb.Addr == "" {
		http.Error(w, "heartbeat requires id and addr", http.StatusBadRequest)
		span.End(fmt.Errorf("heartbeat missing id/addr"))
		return
	}
	c.admit(hb.ID, hb.Addr, hb.QueueDepth)
	c.absorbRecent(hb.ID, hb.RecentKeys)
	c.reap()
	// Federation rides the heartbeat cadence: each beat may trigger one
	// asynchronous scrape of the worker's /metrics, rate-limited per
	// node so heartbeat retry bursts don't multiply scrapes.
	now := c.now()
	if c.fed.Due(hb.ID, now, c.cfg.ScrapeInterval) {
		metricsURL := hb.Addr + "/metrics"
		go func() {
			if err := c.fed.Scrape(hb.ID, metricsURL, now); err != nil {
				c.cfg.Logf("fabric: federation scrape of %s failed: %v", hb.ID, err)
			}
		}()
	}
	newKeys, seq := c.store.since(hb.Seq)
	span.SetAttr("worker", hb.ID)
	span.End(nil)
	writeProtoJSON(w, HeartbeatResponse{Version: ProtocolVersion, StoreSeq: seq, NewKeys: newKeys})
}

// peerLiveness returns id->alive for every registered member.
func (c *Coordinator) peerLiveness() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.members))
	for id, m := range c.members {
		out[id] = m.alive
	}
	return out
}

// HandleClusterMetrics serves GET /metrics/cluster: every fresh node's
// scraped series re-labeled with node="<id>", aggregates across fresh
// nodes, and staleness markers for suspect or silent peers. Mount it
// next to /metrics on a coordinator node.
func (c *Coordinator) HandleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.fed.WriteCluster(w, c.peerLiveness(), c.now(), c.cfg.HeartbeatTimeout)
}

func writeProtoJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// admit registers or refreshes a member: a register, a heartbeat, and a
// re-appearing reaped worker all land here, so a worker that restarts
// (or outlives a coordinator restart) rejoins on its next beat with no
// special handshake.
func (c *Coordinator) admit(id, addr string, depth int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		m = &member{id: id}
		c.members[id] = m
		c.registeredTot.Inc()
	}
	if !m.alive {
		c.ring.Add(id)
		if ok {
			c.cfg.Logf("fabric: worker %s back, rejoining ring (%d live)", id, c.ring.Len())
		} else {
			c.cfg.Logf("fabric: worker %s registered at %s (%d live)", id, addr, c.ring.Len())
		}
	}
	m.addr = addr
	m.depth = depth
	m.alive = true
	m.lastSeen = c.now()
	c.updatePeerGauges()
}

// updatePeerGauges refreshes the alive/dead membership gauges. Callers
// hold mu.
func (c *Coordinator) updatePeerGauges() {
	alive, dead := 0, 0
	for _, m := range c.members {
		if m.alive {
			alive++
		} else {
			dead++
		}
	}
	c.peersGauge.With("alive").Set(float64(alive))
	c.peersGauge.With("dead").Set(float64(dead))
}

// absorbRecent updates dispatch affinity from gossiped recently
// computed keys: the next request for such a key prefers the worker
// whose memo is already warm.
func (c *Coordinator) absorbRecent(id string, keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		c.noteAffinity(k, id)
	}
}

// noteAffinity records key->worker with FIFO eviction at the cap.
// Callers hold mu.
func (c *Coordinator) noteAffinity(key, id string) {
	if _, ok := c.affinity[key]; !ok {
		c.affOrder = append(c.affOrder, key)
		for len(c.affOrder) > c.cfg.AffinityKeys {
			delete(c.affinity, c.affOrder[0])
			c.affOrder = c.affOrder[1:]
		}
	}
	c.affinity[key] = id
}

// reap removes workers silent past the liveness timeout from the
// ring. It takes mu itself and must not be called with mu held.
func (c *Coordinator) reap() {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := c.members[id]
		if m.alive && now.Sub(m.lastSeen) > c.cfg.HeartbeatTimeout {
			m.alive = false
			c.ring.Remove(id)
			c.reapedTotal.Inc()
			c.cfg.Logf("fabric: worker %s missed heartbeats for %s, reaped (%d live)",
				id, now.Sub(m.lastSeen).Round(time.Millisecond), c.ring.Len())
		}
	}
	c.updatePeerGauges()
}

// suspect marks a worker dead after a failed dispatch, without waiting
// for the heartbeat timeout: the connection already told us.
func (c *Coordinator) suspect(id string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok && m.alive {
		m.alive = false
		c.ring.Remove(id)
		c.cfg.Logf("fabric: worker %s unreachable (%v), re-dispatching (%d live)", id, err, c.ring.Len())
	}
	c.updatePeerGauges()
}

// dispatchTarget is one placement choice, labelled with why it was
// chosen (for the dispatch counters).
type dispatchTarget struct {
	id   string
	addr string
	kind string // "affinity", "stolen", "owner"
}

// plan produces the preference-ordered dispatch targets for key:
// affinity first (a memo-warm worker beats everything), then the ring
// owner — replaced by the least-loaded worker when the owner's queue is
// StealDepth deeper —, then the remaining ring walk as re-dispatch
// candidates. Empty means no live workers: run locally.
func (c *Coordinator) plan(key string) []dispatchTarget {
	c.reap()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.Len() == 0 {
		return nil
	}
	order := c.ring.Owners(key, c.ring.Len())
	targets := make([]dispatchTarget, 0, len(order))
	for i, id := range order {
		kind := "owner"
		if i > 0 {
			kind = "redispatch"
		}
		targets = append(targets, dispatchTarget{id: id, addr: c.members[id].addr, kind: kind})
	}

	// Work-stealing: hand the job to the least-loaded live worker when
	// the owner is substantially deeper. Ties break by id so placement
	// is deterministic given the same load report.
	owner := c.members[targets[0].id]
	minID, minDepth := "", 0
	ids := make([]string, 0, len(order))
	ids = append(ids, order...)
	sort.Strings(ids)
	for _, id := range ids {
		if m := c.members[id]; minID == "" || m.depth < minDepth {
			minID, minDepth = id, m.depth
		}
	}
	if minID != "" && minID != targets[0].id && owner.depth-minDepth > c.cfg.StealDepth {
		targets = moveToFront(targets, minID, "stolen")
	}

	// Affinity: a worker that already computed this key serves it from
	// its memo; prefer it even over the steal choice.
	if id, ok := c.affinity[key]; ok {
		if m, live := c.members[id]; live && m.alive {
			targets = moveToFront(targets, id, "affinity")
		}
	}
	return targets
}

// moveToFront promotes the target with the given id (relabelled kind)
// to the head of the plan, preserving the relative order of the rest.
func moveToFront(ts []dispatchTarget, id, kind string) []dispatchTarget {
	for i, t := range ts {
		if t.id == id {
			t.kind = kind
			copy(ts[1:i+1], ts[:i])
			ts[0] = t
			return ts
		}
	}
	return ts
}

// Exec implements sweep.Remote: dispatch the key to a worker, walking
// the placement plan until one answers. Transport failures mark the
// worker dead and re-dispatch to the next candidate — this is the
// mid-sweep worker-death recovery path. A worker that *rejects* the key
// (bad key, execution error) ends dispatch with handled=false so the
// local engine computes it and surfaces the authoritative error.
// handled=false is always safe: the engine falls back to local
// execution, which produces identical bytes by the determinism
// contract.
//
// Placement decisions land on the dispatch span as events — plan order,
// steals, re-dispatches, suspects — and a successful response's
// backhauled worker spans are adopted into the coordinator tracer, so
// one /debug/traces lookup shows the whole cross-node journey.
func (c *Coordinator) Exec(ctx context.Context, key string) (json.RawMessage, bool, error) {
	plan := c.plan(key)
	if len(plan) == 0 {
		c.localFallback.Inc()
		return nil, false, nil
	}
	ctx, span := obs.Start(ctx, "fabric.dispatch", obs.KindClient)
	span.SetAttr("key", key)
	for _, t := range plan {
		span.Event("plan", "worker", t.id, "kind", t.kind)
	}
	start := c.now()
	for i, t := range plan {
		if i > 0 {
			c.redispatched.Inc()
			span.Event("redispatch", "worker", t.id)
		}
		raw, spans, retryable, err := c.execOn(ctx, t.addr, key)
		if err == nil {
			c.finishDispatch(t, key, start)
			span.SetAttr("worker", t.id)
			span.SetAttr("kind", t.kind)
			span.End(nil)
			c.cfg.Tracer.Adopt(spans)
			return raw, true, nil
		}
		if !retryable {
			c.localFallback.Inc()
			span.Event("rejected", "worker", t.id)
			span.End(nil)
			return nil, false, nil
		}
		c.suspect(t.id, err)
		span.Event("suspect", "worker", t.id)
		if ctx.Err() != nil {
			// The batch is being cancelled; let the engine see it locally.
			span.End(nil)
			return nil, false, nil
		}
	}
	c.dispatchFailed.Inc()
	span.End(fmt.Errorf("fabric: every candidate failed for %s", key))
	return nil, false, nil
}

// execOn performs one dispatch attempt. retryable distinguishes "this
// worker is broken, try another" (transport error, 5xx) from "this job
// is broken everywhere" (4xx: version skew, unknown or failing key),
// which must not burn through the whole ring.
func (c *Coordinator) execOn(ctx context.Context, addr, key string) (raw json.RawMessage, spans []obs.SpanData, retryable bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ExecTimeout)
	defer cancel()
	body, _ := json.Marshal(ExecRequest{Version: ProtocolVersion, Key: key})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/fabric/v1/exec", bytes.NewReader(body))
	if err != nil {
		return nil, nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("fabric: exec %s on %s: HTTP %d: %s", key, addr, resp.StatusCode, bytes.TrimSpace(msg))
		return nil, nil, resp.StatusCode >= 500, err
	}
	var er ExecResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBytes)).Decode(&er); err != nil {
		return nil, nil, true, fmt.Errorf("fabric: exec %s on %s: %v", key, addr, err)
	}
	if err := checkProtoVersion(er.Version); err != nil {
		return nil, nil, false, err
	}
	if er.Key != key || len(er.Result) == 0 || !json.Valid(er.Result) {
		return nil, nil, true, fmt.Errorf("fabric: exec %s on %s: malformed response", key, addr)
	}
	return er.Result, er.Spans, false, nil
}

// finishDispatch records a successful dispatch: counters by kind, the
// new affinity, and the end-to-end latency.
func (c *Coordinator) finishDispatch(t dispatchTarget, key string, start time.Time) {
	elapsed := c.now().Sub(start)
	switch t.kind {
	case "affinity", "stolen":
		c.dispatches.With(t.kind).Inc()
	default:
		c.dispatches.With("owner").Inc()
	}
	c.execMS.Observe(int(elapsed.Milliseconds()))
	c.mu.Lock()
	c.noteAffinity(key, t.id)
	c.mu.Unlock()
}

// PeerStatus is one worker's liveness as reported by Health.
type PeerStatus struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Alive      bool   `json:"alive"`
	QueueDepth int    `json:"queue_depth"`
	LastSeenMS int64  `json:"last_seen_ms"`
}

// Peers returns the membership sorted by id.
func (c *Coordinator) Peers() []PeerStatus {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerStatus, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, PeerStatus{
			ID: m.id, Addr: m.addr, Alive: m.alive, QueueDepth: m.depth,
			LastSeenMS: now.Sub(m.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health returns the coordinator's /healthz contribution, including the
// federation roll-up (node freshness and scraped-series counts).
func (c *Coordinator) Health() map[string]any {
	peers := c.Peers()
	alive := 0
	for _, p := range peers {
		if p.Alive {
			alive++
		}
	}
	h := map[string]any{
		"fabric_role":        "coordinator",
		"fabric_peers":       peers,
		"fabric_peers_alive": alive,
		"fabric_store_keys":  c.store.seq(),
	}
	for k, v := range c.fed.Summary(c.peerLiveness(), c.now(), c.cfg.HeartbeatTimeout) {
		h[k] = v
	}
	return h
}

// storeLog wraps the backing store with an append-only log of stored
// keys, the source of heartbeat gossip. Every write path — worker
// uploads through the HTTP store, the coordinator engine's own cache
// writes — funnels through Put, so the log sees everything.
type storeLog struct {
	backend sweep.Backend

	mu   sync.Mutex
	base uint64   // guarded by mu; sequence number of log[0]; sequences start at 1
	log  []string // guarded by mu; most recent stored keys, oldest first
	next uint64   // guarded by mu; next sequence to assign (== total keys ever logged + 1)
}

// storeLogCap bounds the retained gossip window. A worker further than
// this behind simply misses the older keys — gossip is a hint; the
// store remains authoritative via ordinary Gets.
const storeLogCap = 8192

func newStoreLog(backend sweep.Backend) *storeLog {
	return &storeLog{backend: backend, base: 1, next: 1}
}

// Get implements sweep.Backend.
func (l *storeLog) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	return l.backend.Get(ctx, key)
}

// Put implements sweep.Backend, recording the key in the gossip log on
// success. Duplicate puts of a key (several nodes computing it
// concurrently) log once per burst: the log tail is checked, which
// suffices to keep steady-state re-logging out.
func (l *storeLog) Put(ctx context.Context, key string, raw json.RawMessage) error {
	if err := l.backend.Put(ctx, key, raw); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.log); n > 0 && l.log[n-1] == key {
		return nil
	}
	l.log = append(l.log, key)
	l.next++
	if len(l.log) > storeLogCap {
		drop := len(l.log) - storeLogCap
		l.log = l.log[drop:]
		l.base += uint64(drop)
	}
	return nil
}

// seq returns the latest assigned sequence (0 when nothing is stored).
func (l *storeLog) seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// since returns the keys stored after sequence s (capped to the
// retained window) and the latest sequence.
func (l *storeLog) since(s uint64) ([]string, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	latest := l.next - 1
	if s >= latest {
		return nil, latest
	}
	from := 0
	if s+1 >= l.base {
		from = int(s + 1 - l.base)
	}
	out := append([]string(nil), l.log[from:]...)
	return out, latest
}
