package bpred

import (
	"testing"

	"smthill/internal/rng"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(Default(1))
	pc := uint64(0x400100)
	for i := 0; i < 16; i++ {
		p.Update(0, pc, true)
	}
	if !p.Predict(0, pc) {
		t.Fatal("did not learn an always-taken branch")
	}
}

func TestLearnsAlwaysNotTaken(t *testing.T) {
	p := New(Default(1))
	pc := uint64(0x400200)
	for i := 0; i < 16; i++ {
		p.Update(0, pc, false)
	}
	if p.Predict(0, pc) {
		t.Fatal("did not learn an always-not-taken branch")
	}
}

func TestLearnsPeriodicPattern(t *testing.T) {
	// gshare should learn a short repeating pattern almost perfectly;
	// the hybrid must therefore do so too.
	p := New(Default(1))
	pc := uint64(0x400300)
	pattern := []bool{true, true, false, true, false}
	miss := 0
	const n = 5000
	for i := 0; i < n; i++ {
		taken := pattern[i%len(pattern)]
		if p.Update(0, pc, taken) {
			miss++
		}
	}
	if rate := float64(miss) / n; rate > 0.05 {
		t.Fatalf("periodic pattern mispredict rate %.3f", rate)
	}
}

func TestRandomBranchesHardToPredict(t *testing.T) {
	p := New(Default(1))
	r := rng.New(5)
	pc := uint64(0x400400)
	miss := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Update(0, pc, r.Bool(0.5)) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate < 0.3 {
		t.Fatalf("random outcomes predicted with rate %.3f misses; predictor is cheating", rate)
	}
}

func TestContextsHaveIndependentHistory(t *testing.T) {
	p := New(Default(2))
	// Context 1's updates must not corrupt context 0's history-based
	// prediction of a learned pattern.
	r := rng.New(7)
	pcA, pcB := uint64(0x400500), uint64(0x500500)
	pattern := []bool{true, false, false, true}
	missA := 0
	const n = 8000
	for i := 0; i < n; i++ {
		if p.Update(0, pcA, pattern[i%len(pattern)]) {
			missA++
		}
		p.Update(1, pcB, r.Bool(0.5))
	}
	if rate := float64(missA) / n; rate > 0.15 {
		t.Fatalf("context 0 pattern mispredict rate %.3f with noisy context 1", rate)
	}
}

func TestBTBHitAfterUpdate(t *testing.T) {
	p := New(Default(1))
	p.BTBUpdate(0x400100, 0x400800)
	target, ok := p.BTBLookup(0x400100)
	if !ok || target != 0x400800 {
		t.Fatalf("BTB lookup = (%#x, %v)", target, ok)
	}
}

func TestBTBMissOnUnknown(t *testing.T) {
	p := New(Default(1))
	if _, ok := p.BTBLookup(0x999999); ok {
		t.Fatal("BTB hit on never-installed branch")
	}
}

func TestBTBEvictsLRU(t *testing.T) {
	cfg := Default(1)
	cfg.BTBSets = 1
	cfg.BTBWays = 2
	p := New(cfg)
	p.BTBUpdate(4, 100)
	p.BTBUpdate(8, 200)
	p.BTBLookup(4) // touch 4 so 8 is LRU
	p.BTBUpdate(12, 300)
	if _, ok := p.BTBLookup(8); ok {
		t.Fatal("LRU entry was not evicted")
	}
	if _, ok := p.BTBLookup(4); !ok {
		t.Fatal("MRU entry was evicted")
	}
	if tg, ok := p.BTBLookup(12); !ok || tg != 300 {
		t.Fatal("new entry missing")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(Default(2))
	pc := uint64(0x400100)
	for i := 0; i < 100; i++ {
		p.Update(0, pc, i%3 != 0)
	}
	p.BTBUpdate(pc, 0x400900)

	c := p.CloneInto(nil)
	// Diverge the original.
	for i := 0; i < 100; i++ {
		p.Update(0, pc, false)
	}
	p.BTBUpdate(pc, 0xdead)

	// Clone must retain the checkpointed behaviour.
	if tg, ok := c.BTBLookup(pc); !ok || tg != 0x400900 {
		t.Fatalf("clone BTB = (%#x, %v)", tg, ok)
	}
}

func TestCloneReplaysIdentically(t *testing.T) {
	mk := func() *Predictor { return New(Default(1)) }
	warm := func(p *Predictor, r *rng.Rng, n int) {
		for i := 0; i < n; i++ {
			pc := uint64(0x400000 + 4*(r.Intn(512)))
			p.Update(0, pc, r.Bool(0.6))
		}
	}
	p := mk()
	r := rng.New(3)
	warm(p, &r, 5000)
	c := p.CloneInto(nil)
	r2 := r // replay same stimulus
	missP, missC := 0, 0
	for i := 0; i < 5000; i++ {
		pc := uint64(0x400000 + 4*(r.Intn(512)))
		if p.Update(0, pc, r.Bool(0.6)) {
			missP++
		}
	}
	for i := 0; i < 5000; i++ {
		pc := uint64(0x400000 + 4*(r2.Intn(512)))
		if c.Update(0, pc, r2.Bool(0.6)) {
			missC++
		}
	}
	if missP != missC {
		t.Fatalf("clone diverged: %d vs %d mispredicts", missP, missC)
	}
}

func TestMispredictRate(t *testing.T) {
	p := New(Default(1))
	if p.MispredictRate() != 0 {
		t.Fatal("rate nonzero before any update")
	}
	for i := 0; i < 1000; i++ {
		p.Update(0, 0x400100, true)
	}
	if r := p.MispredictRate(); r < 0 || r > 0.1 {
		t.Fatalf("always-taken rate = %f", r)
	}
}
