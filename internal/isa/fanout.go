package isa

import "fmt"

// Fanout lets many readers consume the identical instruction sequence of
// one source Stream while production — trace generation and decode —
// happens exactly once per instruction. It is the shared-decode half of
// batched lock-step simulation: sibling configuration trials re-simulate
// the same committed-path prefix under different resource partitions, so
// without a fan-out every trial would re-run the generator's per-
// instruction work K times for byte-identical results.
//
// The fan-out keeps a sliding window of produced instructions:
//
//	absolute position:  0 ....... base ............. frontier
//	                    (trimmed) [ buf, len(buf) )  (not yet produced)
//
// Positions are absolute indices into the sequence counted from the
// source's position at NewFanout time. Readers hold only their absolute
// position; reading past the frontier pulls more instructions from the
// source into the window, and TrimTo discards the prefix every live
// reader has passed. The window therefore stays bounded as long as the
// orchestrator (pipeline.MachineBatch) trims it at each refill.
//
// A Fanout is not safe for concurrent use: the batch advances its
// members one after another, and whichever reader runs ahead fills the
// window for the rest.
type Fanout struct {
	src Stream
	buf []Inst
	// base is the absolute position of buf[0].
	base uint64
	// exhausted is set when src has run dry; frontier is then final.
	exhausted bool
}

// NewFanout wraps src, taking ownership of it: the caller must not
// advance src directly afterwards. Absolute position 0 is src's position
// at the time of the call.
func NewFanout(src Stream) *Fanout {
	return &Fanout{src: src}
}

// Origin returns a reader at the oldest retained position — position 0
// on a freshly built fan-out. Further readers come from CloneStream on
// an existing one.
func (f *Fanout) Origin() *FanoutReader {
	return &FanoutReader{f: f, pos: f.base}
}

// Frontier returns the absolute position one past the newest produced
// instruction.
func (f *Fanout) Frontier() uint64 { return f.base + uint64(len(f.buf)) }

// fill produces instructions from the source until the window covers
// absolute position pos, reporting whether it does. The window's backing
// array is retained across trims, so steady-state filling does not
// allocate once the high-water window size has been reached.
func (f *Fanout) fill(pos uint64) bool {
	for !f.exhausted && pos >= f.Frontier() {
		f.buf = append(f.buf, Inst{})
		if !f.src.Next(&f.buf[len(f.buf)-1]) {
			f.buf = f.buf[:len(f.buf)-1]
			f.exhausted = true
		}
	}
	return pos < f.Frontier()
}

// TrimTo discards the window prefix below absolute position pos,
// reclaiming space once every live reader has advanced past it. Readers
// behind the trim point become invalid and panic on their next read.
// Positions beyond the frontier are clamped to it.
func (f *Fanout) TrimTo(pos uint64) {
	if pos <= f.base {
		return
	}
	if fr := f.Frontier(); pos > fr {
		pos = fr
	}
	n := int(pos - f.base)
	copy(f.buf, f.buf[n:])
	f.buf = f.buf[:len(f.buf)-n]
	f.base = pos
}

// FanoutReader is one consumer's cursor into a Fanout. Its CloneStream
// yields another reader of the same fan-out, which is what makes
// checkpoint clones share decode.
type FanoutReader struct {
	f   *Fanout
	pos uint64
}

// Pos returns the reader's absolute position: the index of the next
// instruction it will consume.
func (r *FanoutReader) Pos() uint64 { return r.pos }

// Fanout returns the shared fan-out this reader consumes.
func (r *FanoutReader) Fanout() *Fanout { return r.f }

// Next implements Stream.
func (r *FanoutReader) Next(out *Inst) bool {
	f := r.f
	if r.pos < f.base {
		panic(fmt.Sprintf("isa: fanout reader at %d behind trimmed window base %d", r.pos, f.base))
	}
	if r.pos >= f.base+uint64(len(f.buf)) && !f.fill(r.pos) {
		return false
	}
	*out = f.buf[r.pos-f.base]
	r.pos++
	return true
}

// CloneStream implements Stream. The clone shares the fan-out, so a
// checkpointed sibling replays the identical decoded sequence without
// re-running the generator. A FanoutReader dst, even one of a different
// fan-out, is retargeted in place: pooled machines are redirected
// wholesale.
func (r *FanoutReader) CloneStream(dst Stream) Stream {
	d, ok := dst.(*FanoutReader)
	if !ok || d == r {
		d = &FanoutReader{}
	}
	d.f, d.pos = r.f, r.pos
	return d
}
