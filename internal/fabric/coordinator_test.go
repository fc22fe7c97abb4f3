package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeWorker is a canned exec endpoint: it answers every key with a
// fixed result and records what it served.
type fakeWorker struct {
	srv    *httptest.Server
	result json.RawMessage
	served []string
}

func newFakeWorker(t *testing.T, result json.RawMessage) *fakeWorker {
	t.Helper()
	f := &fakeWorker{result: result}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ExecRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.served = append(f.served, req.Key)
		writeProtoJSON(w, ExecResponse{Version: ProtocolVersion, Key: req.Key, Result: f.result})
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// testClock is an injectable wall clock for liveness tests (advanced
// only between coordinator calls, never concurrently).
type testClock struct{ now time.Time }

func (c *testClock) time() time.Time         { return c.now }
func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// keyOwnedBy finds a key whose ring owner is id, so dispatch-path tests
// can force the first placement choice.
func keyOwnedBy(t *testing.T, c *Coordinator, id string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("v1|solo|app=probe-%d|cycles=1024", i)
		c.mu.Lock()
		owners := c.ring.Owners(key, 1)
		c.mu.Unlock()
		if len(owners) == 1 && owners[0] == id {
			return key
		}
	}
	t.Fatalf("no key owned by %s in 10000 probes", id)
	return ""
}

// TestFabricRedispatchAfterMissedHeartbeats is the worker-death unit
// test: a worker that stops heartbeating is reaped from the ring, and a
// job that would have been its lands on a surviving worker.
func TestFabricRedispatchAfterMissedHeartbeats(t *testing.T) {
	clock := &testClock{now: time.Unix(1_000_000, 0)}
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: time.Second, Logf: t.Logf})
	c.now = clock.time

	survivor := newFakeWorker(t, json.RawMessage(`{"ok":true}`))
	c.admit("dead", "http://127.0.0.1:1", 0) // nothing listens there
	c.admit("live", survivor.srv.URL, 0)

	key := keyOwnedBy(t, c, "dead")

	// The dead worker misses its heartbeats; the survivor keeps beating.
	clock.advance(1500 * time.Millisecond)
	c.admit("live", survivor.srv.URL, 0)
	c.reap()

	c.mu.Lock()
	reaped, inRing := c.reapedTotal.Value(), c.ring.ids["dead"]
	c.mu.Unlock()
	if reaped != 1 || inRing {
		t.Fatalf("after missed heartbeats: reaped=%d inRing=%v, want 1 and false", reaped, inRing)
	}

	raw, handled, err := c.Exec(context.Background(), key)
	if err != nil || !handled {
		t.Fatalf("Exec after reap: handled=%v err=%v", handled, err)
	}
	if !bytes.Equal(raw, []byte(`{"ok":true}`)) {
		t.Fatalf("Exec result = %s", raw)
	}
	if len(survivor.served) != 1 || survivor.served[0] != key {
		t.Fatalf("survivor served %v, want [%s]", survivor.served, key)
	}

	// The dead worker's next heartbeat readmits it.
	c.admit("dead", "http://127.0.0.1:1", 0)
	c.mu.Lock()
	back := c.ring.ids["dead"]
	c.mu.Unlock()
	if !back {
		t.Fatal("re-heartbeating worker did not rejoin the ring")
	}
}

// TestFabricRedispatchOnConnectionFailure covers the faster path: the
// worker is still believed alive, but the dispatch connection fails, so
// the job re-dispatches immediately and the worker is marked dead
// without waiting for the liveness timeout.
func TestFabricRedispatchOnConnectionFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	survivor := newFakeWorker(t, json.RawMessage(`7`))
	c.admit("dead", "http://127.0.0.1:1", 0)
	c.admit("live", survivor.srv.URL, 0)
	key := keyOwnedBy(t, c, "dead")

	raw, handled, err := c.Exec(context.Background(), key)
	if err != nil || !handled || !bytes.Equal(raw, []byte(`7`)) {
		t.Fatalf("Exec = %s, %v, %v", raw, handled, err)
	}
	c.mu.Lock()
	redispatched, deadAlive := c.redispatched.Value(), c.members["dead"].alive
	c.mu.Unlock()
	if redispatched != 1 {
		t.Fatalf("redispatched = %d, want 1", redispatched)
	}
	if deadAlive {
		t.Fatal("unreachable worker still marked alive")
	}
}

// TestFabricExecDeclinesWithNoWorkers: an empty fabric falls back to
// local computation, never errors.
func TestFabricExecDeclinesWithNoWorkers(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	raw, handled, err := c.Exec(context.Background(), "v1|solo|app=art|cycles=1024")
	if raw != nil || handled || err != nil {
		t.Fatalf("Exec on empty fabric = %s, %v, %v; want declined", raw, handled, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.localFallback.Value() != 1 {
		t.Fatalf("localFallback = %d, want 1", c.localFallback.Value())
	}
}

// TestFabricWorkerRejectionEndsDispatch: a 4xx from a worker means the
// key itself is bad; the coordinator must not retry it around the ring.
func TestFabricWorkerRejectionEndsDispatch(t *testing.T) {
	rejections := 0
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rejections++
		http.Error(w, "unknown key family", http.StatusNotFound)
	}))
	defer rejecting.Close()
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	other := newFakeWorker(t, json.RawMessage(`1`))
	c.admit("rejector", rejecting.URL, 0)
	c.admit("other", other.srv.URL, 0)
	key := keyOwnedBy(t, c, "rejector")

	raw, handled, err := c.Exec(context.Background(), key)
	if raw != nil || handled || err != nil {
		t.Fatalf("Exec = %s, %v, %v; want local fallback", raw, handled, err)
	}
	if rejections != 1 || len(other.served) != 0 {
		t.Fatalf("rejections=%d otherServed=%v; a deterministic rejection must not ring-walk",
			rejections, other.served)
	}
}

// TestFabricStealing: a deeply queued owner loses the job to the
// least-loaded worker; affinity overrides the steal.
func TestFabricStealing(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{StealDepth: 4, Logf: t.Logf})
	c.admit("deep", "http://deep", 10)
	c.admit("idle", "http://idle", 0)
	key := keyOwnedBy(t, c, "deep")

	plan := c.plan(key)
	if len(plan) != 2 || plan[0].id != "idle" || plan[0].kind != "stolen" {
		t.Fatalf("plan with deep owner = %+v, want idle stolen first", plan)
	}

	// Equal load: the ring owner keeps the job.
	c.admit("deep", "http://deep", 1)
	plan = c.plan(key)
	if plan[0].id != "deep" || plan[0].kind != "owner" {
		t.Fatalf("plan with balanced load = %+v, want deep owner first", plan)
	}

	// A memo-warm worker beats both placements.
	c.admit("deep", "http://deep", 10)
	c.absorbRecent("deep", []string{key})
	plan = c.plan(key)
	if plan[0].id != "deep" || plan[0].kind != "affinity" {
		t.Fatalf("plan with affinity = %+v, want deep affinity first", plan)
	}
}

// TestFabricHeartbeatGossip drives the HTTP control plane end to end:
// register, store writes, and the incremental key log across beats.
func TestFabricHeartbeatGossip(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path string, body, out any) int {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK && out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var reg RegisterResponse
	if code := post("/fabric/v1/register",
		RegisterRequest{Version: ProtocolVersion, ID: "w1", Addr: "http://w1"}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	if reg.StoreSeq != 0 {
		t.Fatalf("fresh store seq = %d", reg.StoreSeq)
	}

	// Version skew is refused at the door.
	if code := post("/fabric/v1/register",
		RegisterRequest{Version: ProtocolVersion + 1, ID: "w2", Addr: "http://w2"}, nil); code != http.StatusBadRequest {
		t.Fatalf("future-version register: HTTP %d, want 400", code)
	}

	// Results stored through the coordinator's backend appear in the
	// next heartbeat's gossip.
	if err := c.Backend().Put(context.Background(), "key-a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Backend().Put(context.Background(), "key-b", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	var hb1 HeartbeatResponse
	post("/fabric/v1/heartbeat", Heartbeat{Version: ProtocolVersion, ID: "w1", Addr: "http://w1", Seq: reg.StoreSeq}, &hb1)
	if len(hb1.NewKeys) != 2 || hb1.NewKeys[0] != "key-a" || hb1.NewKeys[1] != "key-b" {
		t.Fatalf("first beat NewKeys = %v", hb1.NewKeys)
	}
	var hb2 HeartbeatResponse
	post("/fabric/v1/heartbeat", Heartbeat{Version: ProtocolVersion, ID: "w1", Addr: "http://w1", Seq: hb1.StoreSeq}, &hb2)
	if len(hb2.NewKeys) != 0 {
		t.Fatalf("caught-up beat NewKeys = %v", hb2.NewKeys)
	}

	// RecentKeys gossip feeds dispatch affinity.
	post("/fabric/v1/heartbeat", Heartbeat{
		Version: ProtocolVersion, ID: "w1", Addr: "http://w1",
		Seq: hb2.StoreSeq, RecentKeys: []string{"key-a"},
	}, nil)
	c.mu.Lock()
	aff := c.affinity["key-a"]
	c.mu.Unlock()
	if aff != "w1" {
		t.Fatalf("affinity[key-a] = %q, want w1", aff)
	}
}

func TestFabricStoreLogWindow(t *testing.T) {
	l := newStoreLog(NewMemStore())
	for i := 0; i < storeLogCap+10; i++ {
		if err := l.Put(context.Background(), fmt.Sprintf("k%d", i), json.RawMessage(`0`)); err != nil {
			t.Fatal(err)
		}
	}
	// A reader from the beginning only sees the retained window.
	keys, seq := l.since(0)
	if len(keys) != storeLogCap {
		t.Fatalf("since(0) returned %d keys, want the %d-key window", len(keys), storeLogCap)
	}
	if seq != uint64(storeLogCap+10) {
		t.Fatalf("seq = %d, want %d", seq, storeLogCap+10)
	}
	if keys[len(keys)-1] != fmt.Sprintf("k%d", storeLogCap+9) {
		t.Fatalf("window ends at %s", keys[len(keys)-1])
	}
	// A caught-up reader sees exactly the new keys.
	if err := l.Put(context.Background(), "fresh", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	keys, _ = l.since(seq)
	if len(keys) != 1 || keys[0] != "fresh" {
		t.Fatalf("incremental since = %v", keys)
	}
	// Consecutive duplicate puts log once.
	if err := l.Put(context.Background(), "fresh", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if keys, _ := l.since(seq); len(keys) != 1 {
		t.Fatalf("duplicate put re-logged: %v", keys)
	}
}
