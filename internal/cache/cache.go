// Package cache implements the memory hierarchy of the paper's SMT model
// (Table 1): a 64KB 2-way instruction L1, a 64KB 2-way data L1, a unified
// 1MB 4-way L2, and a 300-cycle main memory. Caches are physically shared
// by all hardware contexts, as in a real SMT processor.
//
// The model is a latency model: an access probes the hierarchy, performs
// the fills/evictions, and returns the load-to-use latency. Bandwidth is
// modelled structurally by the pipeline (memory ports), not here.
//
// All state lives in flat slices so the hierarchy can be deep-copied for
// machine checkpointing.
package cache

// Config sizes one cache level.
type Config struct {
	SizeBytes int // total capacity
	BlockSize int // line size in bytes
	Ways      int // associativity
	Latency   int // hit latency in cycles
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockSize * c.Ways) }

// HierarchyConfig describes the full memory system.
type HierarchyConfig struct {
	IL1, DL1, UL2 Config
	// MemFirst is the latency of the first chunk from memory; MemInter
	// the inter-chunk latency (Table 1: 300 / 6). The simulator charges
	// MemFirst for the critical word.
	MemFirst, MemInter int
}

// DefaultHierarchy returns the Table 1 memory system.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		IL1:      Config{SizeBytes: 64 << 10, BlockSize: 64, Ways: 2, Latency: 1},
		DL1:      Config{SizeBytes: 64 << 10, BlockSize: 64, Ways: 2, Latency: 1},
		UL2:      Config{SizeBytes: 1 << 20, BlockSize: 64, Ways: 4, Latency: 20},
		MemFirst: 300,
		MemInter: 6,
	}
}

type line struct {
	tag   uint64
	lru   uint32
	valid bool
}

// Stats counts accesses and misses at one level.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative level with LRU replacement.
type Cache struct {
	cfg   Config
	sets  int
	shift uint // log2(BlockSize)
	lines []line
	tick  uint32
	Stats Stats
}

// NewCache builds one level.
func NewCache(cfg Config) *Cache {
	sets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		shift: shift,
		lines: make([]line, sets*cfg.Ways),
	}
}

// CloneInto copies c's state into dst, reusing dst's line and stats
// arrays, and returns dst. A nil dst yields a fresh deep copy.
func (c *Cache) CloneInto(dst *Cache) *Cache {
	if dst == nil || dst == c {
		dst = &Cache{}
	}
	lines := dst.lines
	*dst = *c
	dst.lines = append(lines[:0], c.lines...)
	return dst
}

// Access probes the cache for addr, fills on miss, and reports whether it
// hit.
func (c *Cache) Access(addr uint64) (hit bool) {
	tag := addr >> c.shift
	set := int(tag % uint64(c.sets))
	base := set * c.cfg.Ways
	c.Stats.Accesses++
	c.tick++
	victim := base
	for i := 0; i < c.cfg.Ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return true
		}
		if !l.valid {
			victim = base + i
		} else if c.lines[victim].valid && l.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	c.Stats.Misses++
	c.lines[victim] = line{tag: tag, lru: c.tick, valid: true}
	return false
}

// Hierarchy is the full three-level memory system. In the single-core
// model a UL2 miss goes straight to memory; a multicore System attaches
// a SharedL3, and then UL2 misses are serviced through it instead.
type Hierarchy struct {
	cfg HierarchyConfig
	IL1 *Cache
	DL1 *Cache
	UL2 *Cache
	// l3 is the shared last-level cache, nil in the single-core model.
	// It is shared state, not owned: CloneInto copies the pointer.
	l3   *SharedL3
	core int
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		IL1: NewCache(cfg.IL1),
		DL1: NewCache(cfg.DL1),
		UL2: NewCache(cfg.UL2),
	}
}

// CloneInto copies h's state into dst, reusing dst's caches, and returns
// dst. A nil dst yields a fresh deep copy of the private levels. The
// shared L3 pointer (if any) is carried over shallowly: the L3 belongs
// to the System, not to any one core's checkpoint. This is the
// checkpoint fast path: the L2 alone is hundreds of kilobytes of line
// state, so reusing the destination arrays dominates the savings of
// pipeline.Machine.CloneInto.
func (h *Hierarchy) CloneInto(dst *Hierarchy) *Hierarchy {
	if dst == nil || dst == h {
		dst = &Hierarchy{}
	}
	il1, dl1, ul2 := dst.IL1, dst.DL1, dst.UL2
	*dst = *h
	dst.IL1 = h.IL1.CloneInto(il1)
	dst.DL1 = h.DL1.CloneInto(dl1)
	dst.UL2 = h.UL2.CloneInto(ul2)
	return dst
}

// AttachL3 routes this hierarchy's UL2 misses through the given shared
// last-level cache, identifying itself as core c for the L3's occupancy
// and contention accounting. Call before simulation; the single-core
// model never attaches one and is unaffected.
func (h *Hierarchy) AttachL3(l3 *SharedL3, c int) {
	h.l3 = l3
	h.core = c
}

// DetachL3 disconnects the hierarchy from the shared last-level cache;
// UL2 misses go straight to memory again. Speculative probe clones (the
// steepest climber's candidate evaluations) detach so their phantom
// execution cannot pollute the real system's shared L3 state.
func (h *Hierarchy) DetachL3() {
	h.l3 = nil
	h.core = 0
}

// Load performs a data load and returns the load-to-use
// latency plus whether the access missed in the L2 (a long-latency,
// memory-bound miss — the trigger for FLUSH/STALL-style policies).
func (h *Hierarchy) Load(addr uint64) (latency int, l2miss bool) {
	if h.DL1.Access(addr) {
		return h.cfg.DL1.Latency, false
	}
	if h.UL2.Access(addr) {
		return h.cfg.DL1.Latency + h.cfg.UL2.Latency, false
	}
	if h.l3 != nil {
		extra, _ := h.l3.Access(h.core, addr)
		return h.cfg.DL1.Latency + h.cfg.UL2.Latency + extra, true
	}
	return h.cfg.DL1.Latency + h.cfg.UL2.Latency + h.cfg.MemFirst, true
}

// Store performs a data store (write-allocate, write-back;
// retirement-time write, so no latency is returned to the pipeline).
func (h *Hierarchy) Store(addr uint64) {
	if h.DL1.Access(addr) {
		return
	}
	if !h.UL2.Access(addr) && h.l3 != nil {
		h.l3.Fill(h.core, addr)
	}
}

// Fetch performs an instruction fetch and returns the fetch latency.
func (h *Hierarchy) Fetch(pc uint64) (latency int) {
	if h.IL1.Access(pc) {
		return h.cfg.IL1.Latency
	}
	if h.UL2.Access(pc) {
		return h.cfg.IL1.Latency + h.cfg.UL2.Latency
	}
	if h.l3 != nil {
		extra, _ := h.l3.Access(h.core, pc)
		return h.cfg.IL1.Latency + h.cfg.UL2.Latency + extra
	}
	return h.cfg.IL1.Latency + h.cfg.UL2.Latency + h.cfg.MemFirst
}
