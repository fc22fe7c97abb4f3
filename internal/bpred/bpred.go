// Package bpred implements the branch predictor of the paper's SMT model
// (Table 1): a hybrid predictor with an 8192-entry gshare component, a
// 2048-entry bimodal component, an 8192-entry meta chooser, a 2048-entry
// 4-way set-associative BTB, and a 64-entry return address stack.
//
// In an SMT processor the predictor tables are shared across hardware
// contexts, but each context keeps its own global history register and
// return address stack; this package follows that organisation.
//
// All state lives in plain slices so a Predictor can be deep-copied for
// machine checkpointing (CloneInto).
package bpred

// Config sizes the predictor components. The zero value is invalid; use
// Default for the paper's Table 1 configuration.
type Config struct {
	GshareEntries  int // pattern history table entries (power of two)
	BimodalEntries int // bimodal table entries (power of two)
	MetaEntries    int // meta chooser entries (power of two)
	BTBSets        int // BTB sets
	BTBWays        int // BTB associativity
	RASEntries     int // return address stack depth per context (reported only; see Predictor)
	Contexts       int // hardware thread contexts
}

// Default returns the Table 1 configuration for the given number of
// hardware contexts.
func Default(contexts int) Config {
	return Config{
		GshareEntries:  8192,
		BimodalEntries: 2048,
		MetaEntries:    8192,
		BTBSets:        2048 / 4,
		BTBWays:        4,
		RASEntries:     64,
		Contexts:       contexts,
	}
}

type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint32
	valid  bool
}

// Predictor is the hybrid gshare/bimodal predictor with BTB and
// per-context history. Table 1's return address stack is listed in
// Config but not simulated: the synthetic instruction streams carry no
// call/return pairs, so nothing would push or pop it.
type Predictor struct {
	cfg     Config
	gshare  []uint8 // 2-bit counters
	bimodal []uint8
	meta    []uint8 // 2-bit chooser: >=2 selects gshare
	btb     []btbEntry
	history []uint64 // per-context global history
	lruTick uint32

	// Statistics (monotonic; survive CloneInto).
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor with all counters initialised to weakly taken.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		gshare:  make([]uint8, cfg.GshareEntries),
		bimodal: make([]uint8, cfg.BimodalEntries),
		meta:    make([]uint8, cfg.MetaEntries),
		btb:     make([]btbEntry, cfg.BTBSets*cfg.BTBWays),
		history: make([]uint64, cfg.Contexts),
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.meta {
		p.meta[i] = 2
	}
	return p
}

// CloneInto copies p's state into dst, reusing dst's tables, and returns
// dst. A nil dst yields a fresh deep copy for checkpointing.
func (p *Predictor) CloneInto(dst *Predictor) *Predictor {
	if dst == nil || dst == p {
		dst = &Predictor{}
	}
	old := *dst
	*dst = *p
	dst.gshare = append(old.gshare[:0], p.gshare...)
	dst.bimodal = append(old.bimodal[:0], p.bimodal...)
	dst.meta = append(old.meta[:0], p.meta...)
	dst.btb = append(old.btb[:0], p.btb...)
	dst.history = append(old.history[:0], p.history...)
	return dst
}

func (p *Predictor) gshareIndex(ctx int, pc uint64) int {
	return int((pc>>2)^p.history[ctx]) & (p.cfg.GshareEntries - 1)
}

func (p *Predictor) bimodalIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.BimodalEntries - 1)
}

func (p *Predictor) metaIndex(pc uint64) int {
	return int(pc>>2) & (p.cfg.MetaEntries - 1)
}

// Predict returns the predicted direction for a conditional branch at pc
// executed by hardware context ctx. It does not update any state.
func (p *Predictor) Predict(ctx int, pc uint64) bool {
	g := p.gshare[p.gshareIndex(ctx, pc)] >= 2
	b := p.bimodal[p.bimodalIndex(pc)] >= 2
	if p.meta[p.metaIndex(pc)] >= 2 {
		return g
	}
	return b
}

func bump(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Update trains the predictor with the resolved outcome of a conditional
// branch and reports whether the pre-update prediction was wrong.
// The caller passes the same (ctx, pc) it predicted with; Update also
// advances the context's global history.
func (p *Predictor) Update(ctx int, pc uint64, taken bool) (mispredicted bool) {
	gi := p.gshareIndex(ctx, pc)
	bi := p.bimodalIndex(pc)
	mi := p.metaIndex(pc)
	g := p.gshare[gi] >= 2
	b := p.bimodal[bi] >= 2
	pred := b
	if p.meta[mi] >= 2 {
		pred = g
	}
	mispredicted = pred != taken

	// Train the chooser toward whichever component was right (only when
	// they disagree).
	if g != b {
		bump(&p.meta[mi], g == taken)
	}
	bump(&p.gshare[gi], taken)
	bump(&p.bimodal[bi], taken)
	p.history[ctx] = (p.history[ctx] << 1) | boolBit(taken)

	p.Lookups++
	if mispredicted {
		p.Mispredicts++
	}
	return mispredicted
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTBLookup returns the predicted target for a taken branch at pc, or
// ok=false on a BTB miss.
func (p *Predictor) BTBLookup(pc uint64) (target uint64, ok bool) {
	set := int(pc>>2) % p.cfg.BTBSets
	base := set * p.cfg.BTBWays
	for i := 0; i < p.cfg.BTBWays; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == pc {
			p.lruTick++
			e.lru = p.lruTick
			return e.target, true
		}
	}
	return 0, false
}

// BTBUpdate installs or refreshes the target for the branch at pc,
// evicting the least recently used way on a conflict.
func (p *Predictor) BTBUpdate(pc, target uint64) {
	set := int(pc>>2) % p.cfg.BTBSets
	base := set * p.cfg.BTBWays
	victim := base
	for i := 0; i < p.cfg.BTBWays; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == pc {
			victim = base + i
			break
		}
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < p.btb[victim].lru {
			victim = base + i
		}
	}
	p.lruTick++
	p.btb[victim] = btbEntry{tag: pc, target: target, lru: p.lruTick, valid: true}
}

// MispredictRate returns the fraction of updated branches that were
// mispredicted, or 0 before any update.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}
