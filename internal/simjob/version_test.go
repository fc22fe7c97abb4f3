package simjob

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpecVersionRoundTrip(t *testing.T) {
	s := Spec{Version: WireVersion, Workload: "art-mcf", Tech: "HILL-WIPC"}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"version":2`) {
		t.Fatalf("marshalled spec missing version: %s", b)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round-trip = %+v, want %+v", back, s)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("current-version spec rejected: %v", err)
	}
	// Version never enters the cache key: the same simulation at
	// different wire versions shares one entry.
	if s.Key() != (Spec{Workload: "art-mcf", Tech: "HILL-WIPC"}).Key() {
		t.Fatal("Version leaked into Spec.Key")
	}
}

func TestSpecVersionZeroOmitted(t *testing.T) {
	b, err := json.Marshal(Spec{Workload: "art-mcf", Tech: "ICOUNT"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "version") {
		t.Fatalf("zero version serialised: %s", b)
	}
}

func TestSpecUnknownVersionRejected(t *testing.T) {
	s := Spec{Version: WireVersion + 1, Workload: "art-mcf", Tech: "ICOUNT"}
	err := s.Validate()
	if err == nil {
		t.Fatal("future wire version accepted")
	}
	if !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
	if (Spec{Version: -1, Workload: "art-mcf", Tech: "ICOUNT"}).Validate() == nil {
		t.Fatal("negative wire version accepted")
	}
}

func TestSpecFromKeyRoundTrip(t *testing.T) {
	specs := []Spec{
		{Workload: "art-mcf", Tech: "HILL-WIPC"},
		{Workload: "art,mcf,gzip", Tech: "ICOUNT", Epochs: 7, EpochSize: 1024, Warmup: 1, Seed: 42},
		{Workload: "ammp-applu-art-mcf", Tech: "DCRA", Delta: 8},
	}
	for _, s := range specs {
		key := s.Key()
		back, ok, err := SpecFromKey(key)
		if err != nil || !ok {
			t.Fatalf("SpecFromKey(%q) = %v, %v", key, ok, err)
		}
		if back.Key() != key {
			t.Fatalf("rebuilt spec %+v keys to %q, want %q", back, back.Key(), key)
		}
		if back != s.Normalize() {
			t.Fatalf("SpecFromKey(%q) = %+v, want %+v", key, back, s.Normalize())
		}
	}
}

func TestSpecFromKeyForeignFamily(t *testing.T) {
	if _, ok, err := SpecFromKey("v1|hill|wl=art-mcf|metric=WIPC|es=1024|ep=3|wu=1"); ok || err != nil {
		t.Fatalf("foreign family: ok=%v err=%v, want false, nil", ok, err)
	}
}

func TestSpecFromKeyRejectsBadKeys(t *testing.T) {
	for _, key := range []string{
		"v1|simjob|wl=art-mcf", // missing fields
		"v1|simjob|wl=no-such-wl|tech=ICOUNT|ep=3|es=1024|wu=1|d=4|seed=0", // unknown workload
	} {
		if _, _, err := SpecFromKey(key); err == nil {
			t.Errorf("SpecFromKey(%q) accepted", key)
		}
	}
}

// FuzzSpecFromKey feeds arbitrary strings to the decoder a fabric worker
// runs on every received key. It must never panic, and every key it
// accepts must re-encode to itself and name a valid spec.
func FuzzSpecFromKey(f *testing.F) {
	f.Add(Spec{Workload: "art-mcf", Tech: "HILL-WIPC"}.Key())
	f.Add(Spec{Workload: "art,mcf,fma3d,gcc", Tech: "HILL-WIPC", Epochs: 6, EpochSize: 8192, Warmup: 1,
		Cores: 2, Pairing: "ipc-pred"}.Key())
	f.Add(Spec{Workload: "gzip", Tech: "STATIC", Seed: 7}.Key())
	f.Add("v1|hill|ep=6|es=8192|metric=weighted-ipc|wl=art-mcf|wu=1")
	f.Add("v1|simjob|wl=art-mcf")
	f.Add("v1|simjob|d=4|ep=-1|es=1024|seed=0|tech=ICOUNT|wl=art-mcf|wu=1")
	f.Add("v1|simjob|d=4|ep=3|es=1024|seed=0|tech=ICOUNT|wl=art%7Cmcf|wu=1")
	f.Fuzz(func(t *testing.T, key string) {
		s, ok, err := SpecFromKey(key)
		if !ok || err != nil {
			return
		}
		if got := s.Key(); got != key {
			t.Fatalf("SpecFromKey(%q) accepted a key that re-encodes to %q", key, got)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("SpecFromKey(%q) accepted an invalid spec: %v", key, err)
		}
	})
}

// FuzzSpecJSON feeds arbitrary bytes through the path the daemon's
// submit handler runs on a request body: decode with unknown fields
// rejected, Normalize, Validate, Key. It must never panic. A spec naming
// a wire version outside [0, WireVersion] must not validate, and a spec
// that validates must be a fixed point of Normalize with a Key that a
// second Normalize leaves unchanged.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"workload":"art-mcf","tech":"HILL-WIPC"}`))
	f.Add([]byte(`{"version":2,"workload":"art,mcf,fma3d,gcc","tech":"STEEP-WIPC","epochs":6,` +
		`"epoch_size":8192,"warmup":1,"cores":2,"pairing":"ipc-pred"}`))
	f.Add([]byte(`{"workload":"gzip","tech":"STATIC","delta":8,"seed":7}`))
	f.Add([]byte(`{"version":3,"workload":"art-mcf"}`))
	f.Add([]byte(`{"version":-1,"workload":"art-mcf"}`))
	f.Add([]byte(`{"workload":"art-mcf","epochs":-1}`))
	f.Add([]byte(`{"workload":"art-mcf","bogus":1}`))
	f.Add([]byte(`{"workload":"art-mcf","pairing":"random"}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var s Spec
		if err := dec.Decode(&s); err != nil {
			return
		}
		s = s.Normalize()
		err := s.Validate()
		if s.Version < 0 || s.Version > WireVersion {
			if err == nil {
				t.Fatalf("%s: wire version %d accepted", body, s.Version)
			}
			return
		}
		if err != nil {
			return
		}
		if n := s.Normalize(); n != s {
			t.Fatalf("%s: Normalize is not idempotent: %+v -> %+v", body, s, n)
		}
		if k, k2 := s.Key(), s.Normalize().Key(); k != k2 {
			t.Fatalf("%s: Key %q changes to %q after a second Normalize", body, k, k2)
		}
	})
}
