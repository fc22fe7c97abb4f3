package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"smthill/internal/obs"
	"smthill/internal/sweep"
)

// StoreClient is a sweep.Backend backed by a remote fabric store with a
// local read-through cache: Get consults the local backend first, then
// fetches from the store (caching what it finds); Put writes through to
// both. A worker plugs a StoreClient into its engine, so every memo
// miss transparently checks whether any other node already computed the
// key before burning cycles on it.
//
// The remote side is strictly best-effort: an unreachable store makes
// Get a local-only lookup and Put a local-only write. Nothing blocks on
// the network holding a lock, and no store failure can fail a job.
//
// Requests propagate the caller's trace context as a traceparent
// header, so store round-trips show up as client spans inside the
// job's distributed trace.
type StoreClient struct {
	base  string // store endpoint, e.g. "http://coord:8080/fabric/v1/store"
	local sweep.Backend
	hc    *http.Client

	mu    sync.Mutex
	known map[string]bool // guarded by mu; keys gossip says the store holds

	reg      *obs.Registry
	outcomes *obs.CounterVec // outcome
}

// NewStoreClient builds a client for the store mounted under baseURL
// (the node base, e.g. "http://coord:8080"; the store path is
// appended). local is the read-through cache — typically the node's
// disk cache, or a MemStore — and may be nil for remote-only operation.
// hc may be nil for http.DefaultClient.
func NewStoreClient(baseURL string, local sweep.Backend, hc *http.Client) *StoreClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	reg := obs.NewRegistry()
	c := &StoreClient{
		base:  baseURL + "/fabric/v1/store",
		local: local,
		hc:    hc,
		known: map[string]bool{},
		reg:   reg,
		outcomes: reg.CounterVec("smtserved_fabric_store_client_total",
			"store client operations by outcome", "outcome"),
	}
	for _, o := range []string{
		"local_hit", "remote_hit", "miss", "put", "put_error",
		"revalidated", "refreshed", "net_error",
	} {
		c.outcomes.With(o)
	}
	reg.GaugeFunc("smtserved_fabric_store_known_keys",
		"distinct keys gossip or local puts say the store holds",
		func() float64 { return float64(c.KnownKeys()) })
	return c
}

// Registry returns the client's metric registry, for attachment into a
// node-wide one.
func (c *StoreClient) Registry() *obs.Registry { return c.reg }

func (c *StoreClient) keyURL(key string) string {
	return c.base + "?key=" + url.QueryEscape(key)
}

// Get implements sweep.Backend: local cache first, then the store; a
// store hit is written back locally so the next lookup is free.
func (c *StoreClient) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	if c.local != nil {
		if raw, ok := c.local.Get(ctx, key); ok {
			c.outcomes.With("local_hit").Inc()
			return raw, true
		}
	}
	raw, ok := c.fetch(ctx, key, "")
	if !ok {
		return nil, false
	}
	c.outcomes.With("remote_hit").Inc()
	if c.local != nil {
		_ = c.local.Put(ctx, key, raw)
	}
	return raw, true
}

// fetch GETs one key, optionally conditionally. ok=false covers miss
// and network failure alike (each counted); a 304 returns ok=false with
// notModified=true.
func (c *StoreClient) fetch(ctx context.Context, key, ifNoneMatch string) (raw json.RawMessage, ok bool) {
	ctx, span := obs.Start(ctx, "store.get", obs.KindClient)
	span.SetAttr("key", key)
	outcome := func(o string, err error) {
		span.SetAttr("outcome", o)
		span.End(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(key), nil)
	if err != nil {
		c.outcomes.With("net_error").Inc()
		outcome("net_error", err)
		return nil, false
	}
	obs.Inject(ctx, req.Header)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.outcomes.With("net_error").Inc()
		outcome("net_error", err)
		return nil, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
		if err != nil || !json.Valid(raw) {
			c.outcomes.With("net_error").Inc()
			outcome("net_error", fmt.Errorf("fabric: store get %s: bad body", key))
			return nil, false
		}
		outcome("remote_hit", nil)
		return raw, true
	case http.StatusNotModified:
		c.outcomes.With("revalidated").Inc()
		outcome("revalidated", nil)
		return nil, false
	case http.StatusNotFound:
		c.outcomes.With("miss").Inc()
		outcome("miss", nil)
		return nil, false
	default:
		c.outcomes.With("net_error").Inc()
		outcome("net_error", fmt.Errorf("fabric: store get %s: HTTP %d", key, resp.StatusCode))
		return nil, false
	}
}

// Put implements sweep.Backend: the local write always happens; the
// remote write is best-effort (the engine treats Put errors as
// non-fatal, and the gossip log means a missed upload only costs a
// recompute elsewhere).
func (c *StoreClient) Put(ctx context.Context, key string, raw json.RawMessage) error {
	if c.local != nil {
		_ = c.local.Put(ctx, key, raw)
	}
	ctx, span := obs.Start(ctx, "store.put", obs.KindClient)
	span.SetAttr("key", key)
	err := c.putRemote(ctx, key, raw)
	span.End(err)
	return err
}

func (c *StoreClient) putRemote(ctx context.Context, key string, raw json.RawMessage) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(key), bytes.NewReader(raw))
	if err != nil {
		c.outcomes.With("put_error").Inc()
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.outcomes.With("put_error").Inc()
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		c.outcomes.With("put_error").Inc()
		return fmt.Errorf("fabric: store put %s: HTTP %d", key, resp.StatusCode)
	}
	c.outcomes.With("put").Inc()
	c.mu.Lock()
	c.known[key] = true
	c.mu.Unlock()
	return nil
}

// MarkKnown records gossiped keys (results some node has stored). Keys
// already held locally are revalidated with a conditional fetch — the
// ETag is the content hash, so the client recomputes it from its local
// copy and a match costs only headers. Keys not held locally are just
// remembered; they fetch lazily if the engine ever asks.
//
// ctx bounds the revalidation fetches: it is the heartbeat's context,
// so a worker shutting down mid-gossip abandons the network work
// instead of hanging on it (the keys are still recorded).
func (c *StoreClient) MarkKnown(ctx context.Context, keys []string) {
	for _, key := range keys {
		c.mu.Lock()
		seen := c.known[key]
		c.known[key] = true
		c.mu.Unlock()
		if seen || c.local == nil {
			continue
		}
		local, ok := c.local.Get(ctx, key)
		if !ok {
			continue
		}
		if raw, ok := c.fetch(ctx, key, etagFor(local)); ok {
			// The store holds different bytes than we do. Determinism
			// makes this near-impossible for a same-version cluster, but
			// the store is authoritative: adopt its copy.
			_ = c.local.Put(ctx, key, raw)
			c.outcomes.With("refreshed").Inc()
		}
	}
}

// KnownKeys returns how many distinct keys gossip (or our own puts)
// says the store holds.
func (c *StoreClient) KnownKeys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.known)
}
