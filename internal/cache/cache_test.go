package cache

import (
	"testing"
	"testing/quick"

	"smthill/internal/rng"
)

func small() Config { return Config{SizeBytes: 1024, BlockSize: 64, Ways: 2, Latency: 1} }

func TestSets(t *testing.T) {
	if got := small().Sets(); got != 8 {
		t.Fatalf("Sets = %d, want 8", got)
	}
	if got := DefaultHierarchy().DL1.Sets(); got != 512 {
		t.Fatalf("DL1 sets = %d, want 512", got)
	}
	if got := DefaultHierarchy().UL2.Sets(); got != 4096 {
		t.Fatalf("UL2 sets = %d, want 4096", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := NewCache(small())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030) { // same 64-byte line
		t.Fatal("same-line access missed")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := NewCache(small()) // 8 sets, 2 ways, 64B lines
	// Three addresses mapping to set 0: tags differ by multiples of 8 lines.
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a becomes MRU
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("MRU line evicted")
	}
	if !c.Access(d) {
		t.Fatal("new line absent")
	}
	if c.Access(b) {
		t.Fatal("LRU line survived")
	}
}

func TestWorkingSetFitsMeansLowMissRate(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	r := rng.New(1)
	// 32KB working set fits in the 64KB DL1.
	for i := 0; i < 200000; i++ {
		addr := uint64(r.Intn(32<<10)) &^ 7
		h.Load(addr)
	}
	if mr := h.DL1.Stats.MissRate(); mr > 0.01 {
		t.Fatalf("fitting working set missed at rate %.4f", mr)
	}
}

func TestLargeWorkingSetMissesL1(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	r := rng.New(2)
	// 8MB working set: misses DL1 and mostly misses the 1MB UL2.
	for i := 0; i < 200000; i++ {
		addr := uint64(r.Intn(8<<20)) &^ 7
		h.Load(addr)
	}
	if mr := h.DL1.Stats.MissRate(); mr < 0.5 {
		t.Fatalf("thrashing working set DL1 miss rate only %.4f", mr)
	}
	if mr := h.UL2.Stats.MissRate(); mr < 0.5 {
		t.Fatalf("thrashing working set UL2 miss rate only %.4f", mr)
	}
}

func TestLoadLatencies(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	lat, l2miss := h.Load(0x1000)
	wantMem := cfg.DL1.Latency + cfg.UL2.Latency + cfg.MemFirst
	if lat != wantMem || !l2miss {
		t.Fatalf("cold load = (%d, %v), want (%d, true)", lat, l2miss, wantMem)
	}
	lat, l2miss = h.Load(0x1000)
	if lat != cfg.DL1.Latency || l2miss {
		t.Fatalf("hot load = (%d, %v)", lat, l2miss)
	}
	// Evict from DL1 but not UL2: touch enough conflicting lines.
	for i := 1; i <= 4; i++ {
		h.Load(0x1000 + uint64(i)*uint64(cfg.DL1.Sets())*64)
	}
	lat, l2miss = h.Load(0x1000)
	if lat != cfg.DL1.Latency+cfg.UL2.Latency || l2miss {
		t.Fatalf("L2-hit load = (%d, %v), want (%d, false)", lat, l2miss, cfg.DL1.Latency+cfg.UL2.Latency)
	}
}

func TestFetchLatency(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)
	if lat := h.Fetch(0x400000); lat != cfg.IL1.Latency+cfg.UL2.Latency+cfg.MemFirst {
		t.Fatalf("cold fetch latency = %d", lat)
	}
	if lat := h.Fetch(0x400000); lat != cfg.IL1.Latency {
		t.Fatalf("hot fetch latency = %d", lat)
	}
}

func TestStoreFills(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.Store(0x2000)
	if lat, _ := h.Load(0x2000); lat != h.cfg.DL1.Latency {
		t.Fatalf("load after store latency = %d", lat)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	h.Load(0x1000)
	c := h.CloneInto(nil)
	// Evict 0x1000 from the original's DL1.
	for i := 1; i <= 4; i++ {
		h.Load(0x1000 + uint64(i)*uint64(h.cfg.DL1.Sets())*64)
	}
	if lat, _ := c.Load(0x1000); lat != c.cfg.DL1.Latency {
		t.Fatalf("clone lost its DL1 line: latency %d", lat)
	}
}

func TestCloneReplays(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := NewHierarchy(DefaultHierarchy())
		r := rng.New(seed)
		for i := 0; i < 2000; i++ {
			h.Load(uint64(r.Intn(4<<20)) &^ 7)
		}
		c := h.CloneInto(nil)
		r2 := r
		for i := 0; i < 2000; i++ {
			a, _ := h.Load(uint64(r.Intn(4<<20)) &^ 7)
			b, _ := c.Load(uint64(r2.Intn(4<<20)) &^ 7)
			if a != b {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateZeroWhenIdle(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate nonzero")
	}
}

func TestStrideAccessExploitsSpatialLocality(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	// An 8-byte stride walk over a huge region misses once per 64-byte
	// line: miss rate ~= 1/8.
	for i := 0; i < 100000; i++ {
		h.Load(uint64(i) * 8)
	}
	mr := h.DL1.Stats.MissRate()
	if mr < 0.10 || mr > 0.15 {
		t.Fatalf("stride walk DL1 miss rate = %.4f, want ~0.125", mr)
	}
}
