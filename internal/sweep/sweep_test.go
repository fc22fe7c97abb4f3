package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// job returns a trivial float job computing f(i) with a counted body.
func countedJob(i int, runs *atomic.Int64) Job[float64] {
	return Job[float64]{
		Key: fmt.Sprintf("job-%d", i),
		Run: func(context.Context) (float64, error) {
			runs.Add(1)
			return float64(i) * 1.5, nil
		},
	}
}

func TestRunAllJobs(t *testing.T) {
	var runs atomic.Int64
	jobs := make([]Job[float64], 50)
	for i := range jobs {
		jobs[i] = countedJob(i, &runs)
	}
	res, err := Run(context.Background(), NewEngine(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 50 || runs.Load() != 50 {
		t.Fatalf("%d results, %d runs", len(res), runs.Load())
	}
	for i := range jobs {
		if got := res[fmt.Sprintf("job-%d", i)]; got != float64(i)*1.5 {
			t.Fatalf("job-%d = %v", i, got)
		}
	}
}

func TestDuplicateKeysComputeOnce(t *testing.T) {
	var runs atomic.Int64
	jobs := []Job[float64]{countedJob(7, &runs), countedJob(7, &runs), countedJob(7, &runs)}
	res, err := Run(context.Background(), NewEngine(4), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || runs.Load() != 1 {
		t.Fatalf("%d results, %d runs", len(res), runs.Load())
	}
}

func TestMemoAcrossBatches(t *testing.T) {
	var runs atomic.Int64
	e := NewEngine(2)
	jobs := []Job[float64]{countedJob(1, &runs), countedJob(2, &runs)}
	if _, err := Run(context.Background(), e, jobs); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("recomputed memoised jobs: %d runs", runs.Load())
	}
	if res["job-2"] != 3.0 {
		t.Fatalf("memo result = %v", res["job-2"])
	}
}

func TestPanicBecomesError(t *testing.T) {
	jobs := []Job[float64]{
		{Key: "ok", Run: func(context.Context) (float64, error) { return 1, nil }},
		{Key: "boom", Run: func(context.Context) (float64, error) { panic("diverged") }},
	}
	_, err := Run(context.Background(), NewEngine(2), jobs)
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("error missing key/cause: %v", err)
	}
}

func TestErrorIsEarliestJob(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context) (int, error) { return 0, errA }},
		{Key: "b", Run: func(context.Context) (int, error) { return 0, errB }},
	}
	// Serial execution makes the outcome order deterministic; the engine
	// must report the earliest-submitted failure regardless.
	_, err := Run(context.Background(), NewEngine(1), jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("got %v, want %v", err, errA)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	block := make(chan struct{})
	jobs := make([]Job[int], 20)
	for i := range jobs {
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("slow-%d", i),
			Run: func(context.Context) (int, error) {
				once.Do(func() { close(started) })
				<-block
				return 0, nil
			},
		}
	}
	done := make(chan error)
	go func() {
		_, err := Run(ctx, NewEngine(2), jobs)
		done <- err
	}()
	<-started
	cancel()
	close(block) // release the in-flight jobs so workers can drain
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkerPoolConcurrency drives genuinely concurrent jobs through one
// shared engine (memo map, counters, observer) so `go test -race` can
// see into every engine code path. This is the CI race check for the
// worker pool.
func TestWorkerPoolConcurrency(t *testing.T) {
	e := NewEngine(4)
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.SetCache(c)
	var events atomic.Int64
	e.AddObserver(func(Event) { events.Add(1) })

	// A rendezvous barrier: the first four jobs must all be in flight at
	// once before any may finish, proving the pool really is parallel.
	var arrived atomic.Int64
	release := make(chan struct{})
	jobs := make([]Job[[]float64], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[[]float64]{
			Key: fmt.Sprintf("conc-%d", i),
			Run: func(context.Context) ([]float64, error) {
				if arrived.Add(1) == 4 {
					close(release)
				}
				<-release
				return []float64{float64(i), float64(i) / 3}, nil
			},
		}
	}
	res, err := Run(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 32 {
		t.Fatalf("%d results", len(res))
	}
	if events.Load() == 0 {
		t.Fatal("observer never fired")
	}

	// Second pass: everything is memoised; a fresh engine on the same
	// cache dir gets disk hits. Both must reproduce identical values.
	var hits atomic.Int64
	e2 := NewEngine(4)
	e2.SetCache(c)
	e2.AddObserver(func(ev Event) {
		if ev.Kind == JobDone && ev.Source == FromCache {
			hits.Add(1)
		}
	})
	res2, err := Run(context.Background(), e2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 32 {
		t.Fatalf("%d disk-cache hits, want 32", hits.Load())
	}
	for k, v := range res {
		v2 := res2[k]
		if len(v2) != len(v) || v2[0] != v[0] || v2[1] != v[1] {
			t.Fatalf("%s: cache round-trip changed result: %v vs %v", k, v, v2)
		}
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	_, err := Run(context.Background(), NewEngine(1), []Job[int]{{Key: "", Run: func(context.Context) (int, error) { return 0, nil }}})
	if err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestNilEngineAndNoJobs(t *testing.T) {
	res, err := Run(context.Background(), nil, []Job[int]{})
	if err != nil || len(res) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
