package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestObserverFanOut subscribes several observers to one engine and
// asserts each sees the full, identical event stream — the contract the
// service daemon relies on to feed SSE subscribers, metrics, and
// progress reporting from one engine.
func TestObserverFanOut(t *testing.T) {
	e := NewEngine(2)
	var mu sync.Mutex
	var a, b []Event
	e.AddObserver(func(ev Event) { mu.Lock(); a = append(a, ev); mu.Unlock() })
	e.AddObserver(func(ev Event) { mu.Lock(); b = append(b, ev); mu.Unlock() })

	jobs := make([]Job[int], 6)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("f-%d", i),
			Run: func(context.Context) (int, error) { return i, nil },
		}
	}
	if _, err := Run(context.Background(), e, jobs); err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("observers diverged: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
