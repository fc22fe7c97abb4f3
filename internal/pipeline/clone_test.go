package pipeline

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"smthill/internal/resource"
	"smthill/internal/telemetry"
)

// copyKind is how Machine.CloneInto treats one struct field.
type copyKind int

const (
	// deepCopied fields get storage of their own with equal contents.
	deepCopied copyKind = iota
	// byValue fields are plain values copied as they are.
	byValue
	// reset fields are not carried over: the copy holds the zero value.
	reset
)

// machineFields classifies every field of Machine. A field missing here
// fails TestCloneFieldClassification: decide how CloneInto copies it,
// then list it.
var machineFields = map[string]copyKind{
	"cfg":           byValue,
	"now":           byValue,
	"threads":       deepCopied,
	"res":           deepCopied,
	"mem":           deepCopied,
	"bp":            deepCopied,
	"fetchDisabled": deepCopied,
	"slab":          deepCopied,
	"free":          deepCopied,
	"readyQ":        deepCopied,
	"dispStamp":     byValue,
	"doneRing":      deepCopied,
	"policy":        deepCopied,
	"cycles":        byValue,
	"rec":           reset,
	"stallUntil":    byValue,
	"inv":           deepCopied,
}

// threadFields classifies every field of threadState, as machineFields
// does for Machine.
var threadFields = map[string]copyKind{
	"stream":            deepCopied,
	"pending":           deepCopied,
	"pendingHead":       byValue,
	"dispatchCur":       byValue,
	"fetchCur":          byValue,
	"mispredictSeq":     byValue,
	"rob":               deepCopied,
	"robHead":           byValue,
	"rename":            byValue,
	"fetchStall":        byValue,
	"mispredictPending": byValue,
	"fetchStallICache":  byValue,
	"lastFetchBlock":    byValue,
	"exhausted":         byValue,
	"addrBase":          byValue,
	"outstandingL2":     byValue,
	"outstandingDMiss":  byValue,
	"bbv":               byValue,
	"stats":             byValue,
}

// TestCloneFieldClassification checks every field of Machine and
// threadState against its classification, for a fresh Clone and for a
// CloneInto over a dirty destination: deep-copied fields hold equal
// contents in storage of their own, by-value fields are equal, and reset
// fields are zero in the copy. It fails on any field it does not list.
func TestCloneFieldClassification(t *testing.T) {
	s := wakeupScenarios()[2]
	src := New(DefaultConfig(2), s.streams(), nil)
	src.SetInvariantChecks(true)
	src.SetRecorder(telemetry.NewRecorder(2))
	src.Resources().SetShares(resource.Shares{96, 160})
	advanceToBacklog(t, src, s, 1500)
	dirty := src.Clone()
	dirty.CycleN(700)

	for name, c := range map[string]*Machine{"Clone": src.Clone(), "CloneInto": src.CloneInto(dirty)} {
		checkFields(t, name, reflect.ValueOf(src).Elem(), reflect.ValueOf(c).Elem(), machineFields)
		for th := range src.threads {
			checkFields(t, name, reflect.ValueOf(&src.threads[th]).Elem(),
				reflect.ValueOf(&c.threads[th]).Elem(), threadFields)
		}
	}
}

func checkFields(t *testing.T, label string, src, dst reflect.Value, kinds map[string]copyKind) {
	t.Helper()
	typ := src.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		kind, ok := kinds[name]
		if !ok {
			t.Errorf("%s.%s is not classified: decide how CloneInto copies it, then list it", typ.Name(), name)
			continue
		}
		s, d := src.Field(i), dst.Field(i)
		switch kind {
		case deepCopied, byValue:
			if kind == deepCopied && s.Kind() == reflect.Slice && s.Len() == 0 {
				t.Errorf("fixture leaves %s.%s empty, so its copy is not tested", typ.Name(), name)
			}
			if !sameState(s, d) {
				t.Errorf("%s: %s.%s differs from the source", label, typ.Name(), name)
			}
			if kind == deepCopied && sharesStorage(s, d) {
				t.Errorf("%s: %s.%s shares storage with the source", label, typ.Name(), name)
			}
		case reset:
			if s.IsZero() {
				t.Errorf("fixture leaves %s.%s zero, so its reset is not tested", typ.Name(), name)
			}
			if !d.IsZero() {
				t.Errorf("%s: %s.%s was carried over, want it reset", label, typ.Name(), name)
			}
		}
	}
	for name := range kinds {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("classified field %s.%s no longer exists", typ.Name(), name)
		}
	}
}

// sameState compares two values structurally, reading unexported
// fields. Unlike reflect.DeepEqual it treats a nil slice and an empty
// one as equal: CloneInto may reuse either.
func sameState(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Pointer() == b.Pointer() || sameState(a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && sameState(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameState(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameState(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.String:
		return a.String() == b.String()
	}
	panic("sameState: unhandled kind " + a.Kind().String())
}

// sharesStorage reports whether two fields alias: the same pointer, the
// same slice backing array, or the same pointer behind an interface.
func sharesStorage(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return !a.IsNil() && a.Pointer() == b.Pointer()
	case reflect.Slice:
		return a.Cap() > 0 && unsafe.Pointer(a.Pointer()) == unsafe.Pointer(b.Pointer())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return false
		}
		return sharesStorage(a.Elem(), b.Elem())
	}
	return false
}

// TestCloneIntoMatchesCloneAndOriginal checkpoints each wakeup scenario
// at seeded cycles and advances three machines in step: the original, a
// fresh Clone, and a CloneInto over a dirty destination that was built
// and advanced elsewhere. With invariant checks on, all three must hash
// identically after every cycle.
func TestCloneIntoMatchesCloneAndOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range wakeupScenarios() {
		t.Run(s.name, func(t *testing.T) {
			for k := 0; k < 3; k++ {
				orig := New(DefaultConfig(2), s.streams(), nil)
				orig.SetInvariantChecks(true)
				at := advanceToBacklog(t, orig, s, 100+rng.Intn(s.cycles-1000))

				// The dirty destination runs other shares, carries a
				// recorder and sits at another cycle: CloneInto must
				// overwrite all of it.
				dirty := New(DefaultConfig(2), s.streams(), nil)
				dirty.SetRecorder(telemetry.NewRecorder(2))
				dirty.Resources().SetShares(resource.Shares{64, 192})
				dirty.CycleN(at/2 + 333)

				fresh := orig.Clone()
				into := orig.CloneInto(dirty)
				for c := at; c < s.cycles; c++ {
					stepScenario(orig, s, c)
					stepScenario(fresh, s, c)
					stepScenario(into, s, c)
					h := traceHash(orig)
					if got := traceHash(fresh); got != h {
						t.Fatalf("checkpoint %d: Clone diverges at cycle %d: %016x != %016x", at, c, got, h)
					}
					if got := traceHash(into); got != h {
						t.Fatalf("checkpoint %d: CloneInto diverges at cycle %d: %016x != %016x", at, c, got, h)
					}
				}
				if orig.Stats() != into.Stats() || into.Recorder() != nil || !into.InvariantChecks() {
					t.Fatalf("checkpoint %d: CloneInto copy ended with stats %+v (recorder %v, checks %v), original %+v",
						at, into.Stats(), into.Recorder() != nil, into.InvariantChecks(), orig.Stats())
				}
			}
		})
	}
}

// stepScenario runs cycle c of scenario s on m, injecting the scenario's
// flushes.
func stepScenario(m *Machine, s wakeupScenario, c int) {
	if s.flushEvery > 0 && c > 0 && c%s.flushEvery == 0 {
		m.FlushAfter(0, m.Committed(0)+s.keep)
	}
	m.Cycle()
}

// advanceToBacklog runs a fresh machine m through cycle target of
// scenario s, then on until a cycle ends with ready instructions left
// unissued, so that a checkpoint taken there carries a non-empty ready
// queue. It returns the next cycle to run.
func advanceToBacklog(t *testing.T, m *Machine, s wakeupScenario, target int) int {
	t.Helper()
	for c := 0; c < s.cycles; c++ {
		stepScenario(m, s, c)
		if c >= target && len(m.readyQ) > 0 {
			return c + 1
		}
	}
	t.Fatalf("%s: no cycle after %d ends with a ready backlog", s.name, target)
	return 0
}
