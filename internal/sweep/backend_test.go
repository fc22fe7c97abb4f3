package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// memBackend is a minimal in-memory Backend for tests.
type memBackend struct {
	mu sync.Mutex
	m  map[string]json.RawMessage
}

func newMemBackend() *memBackend { return &memBackend{m: map[string]json.RawMessage{}} }

func (b *memBackend) Get(_ context.Context, key string) (json.RawMessage, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	raw, ok := b.m[key]
	return raw, ok
}

func (b *memBackend) Put(_ context.Context, key string, raw json.RawMessage) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append(json.RawMessage(nil), raw...)
	return nil
}

func TestParseKeyRoundTrip(t *testing.T) {
	cases := []struct {
		prefix string
		params map[string]string
	}{
		{"v1|simjob", map[string]string{"wl": "art-mcf", "tech": "HILL-WIPC", "ep": "50"}},
		{"v1|solo", map[string]string{"app": "art", "cycles": "65536"}},
		{"v1|hill", map[string]string{"wl": "ammp-applu-art-mcf", "metric": "WIPC"}},
		{"v2|weird", map[string]string{"a|b": "c=d", "pct": "100%"}},
		{"plain", map[string]string{}},
	}
	for _, c := range cases {
		key := KeyFrom(c.prefix, c.params)
		prefix, params, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if prefix != c.prefix || !reflect.DeepEqual(params, c.params) {
			t.Fatalf("ParseKey(%q) = %q %v, want %q %v", key, prefix, params, c.prefix, c.params)
		}
	}
}

func TestParseKeyRejectsMalformed(t *testing.T) {
	for _, key := range []string{
		"v1|a=1|loose", // prefix segment after parameters
		"v1|a=1|a=2",   // duplicate parameter
		"v1|a=%zz",     // unknown escape
		"v1|a=%2",      // truncated escape
	} {
		if _, _, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) accepted, want error", key)
		}
	}
}

// TestParseKeySprintfGrammar pins that keys assembled with fmt.Sprintf
// in the experiment package's "name=value" grammar parse identically to
// KeyFrom-built ones — the fabric executes both families by key.
func TestParseKeySprintfGrammar(t *testing.T) {
	key := fmt.Sprintf("v%d|hillwidth|wl=%s|es=%d|ep=%d", 1, "art-mcf", 65536, 40)
	prefix, params, err := ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if prefix != "v1|hillwidth" {
		t.Fatalf("prefix = %q", prefix)
	}
	want := map[string]string{"wl": "art-mcf", "es": "65536", "ep": "40"}
	if !reflect.DeepEqual(params, want) {
		t.Fatalf("params = %v, want %v", params, want)
	}
}

func TestSetBackendServesHits(t *testing.T) {
	b := newMemBackend()
	if err := b.Put(context.Background(), "k", json.RawMessage(`42`)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(1)
	e.SetBackend(b)
	ran := false
	res, err := Run(context.Background(), e, []Job[int]{{
		Key: "k",
		Run: func(context.Context) (int, error) { ran = true; return 7, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("job ran despite backend hit")
	}
	if res["k"] != 42 {
		t.Fatalf("result = %d, want 42 from backend", res["k"])
	}
}

func TestSetBackendReceivesStores(t *testing.T) {
	b := newMemBackend()
	e := NewEngine(1)
	e.SetBackend(b)
	if _, err := Run(context.Background(), e, []Job[int]{{
		Key: "k",
		Run: func(context.Context) (int, error) { return 9, nil },
	}}); err != nil {
		t.Fatal(err)
	}
	raw, ok := b.Get(context.Background(), "k")
	if !ok || string(raw) != "9" {
		t.Fatalf("backend entry = %q, %v; want \"9\", true", raw, ok)
	}
}

// remoteFunc adapts a function to the Remote interface.
type remoteFunc func(ctx context.Context, key string) (json.RawMessage, bool, error)

func (f remoteFunc) Exec(ctx context.Context, key string) (json.RawMessage, bool, error) {
	return f(ctx, key)
}

func TestRemoteHandlesJob(t *testing.T) {
	e := NewEngine(1)
	var sources []Source
	e.AddObserver(func(ev Event) {
		if ev.Kind == JobDone {
			sources = append(sources, ev.Source)
		}
	})
	e.SetRemote(remoteFunc(func(_ context.Context, key string) (json.RawMessage, bool, error) {
		if key != "k" {
			t.Errorf("remote asked for %q", key)
		}
		return json.RawMessage(`123`), true, nil
	}))
	localRan := false
	res, err := Run(context.Background(), e, []Job[int]{{
		Key: "k",
		Run: func(context.Context) (int, error) { localRan = true; return -1, nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if localRan {
		t.Fatal("local Run executed despite remote handling the job")
	}
	if res["k"] != 123 {
		t.Fatalf("result = %d, want remote 123", res["k"])
	}
	if len(sources) != 1 || sources[0] != FromRemote {
		t.Fatalf("done sources = %v, want [remote]", sources)
	}
	// The remote bytes are memoised: a second batch hits the memo.
	if raw, src, ok := e.Lookup(context.Background(), "k"); !ok || src != FromMemo || string(raw) != "123" {
		t.Fatalf("Lookup after remote = %q %v %v", raw, src, ok)
	}
}

func TestRemoteDeclinedFallsBackLocal(t *testing.T) {
	e := NewEngine(1)
	e.SetRemote(remoteFunc(func(context.Context, string) (json.RawMessage, bool, error) {
		return nil, false, nil
	}))
	res, err := Run(context.Background(), e, []Job[int]{{
		Key: "k",
		Run: func(context.Context) (int, error) { return 5, nil },
	}})
	if err != nil || res["k"] != 5 {
		t.Fatalf("res = %v, err = %v; want local 5", res, err)
	}
}

func TestRemoteMalformedFallsBackLocal(t *testing.T) {
	e := NewEngine(1)
	e.SetRemote(remoteFunc(func(context.Context, string) (json.RawMessage, bool, error) {
		return json.RawMessage(`{not json`), true, nil
	}))
	res, err := Run(context.Background(), e, []Job[int]{{
		Key: "k",
		Run: func(context.Context) (int, error) { return 5, nil },
	}})
	if err != nil || res["k"] != 5 {
		t.Fatalf("res = %v, err = %v; want local 5 after malformed remote answer", res, err)
	}
}
