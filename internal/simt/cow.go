package simt

import "math/bits"

// Copy-on-write SM memory. A sharded grid launch gives every SM a
// private view of global memory; before this file that view was a full
// copy of the initial image per SM, so the fixed cost of a launch scaled
// with memWords × SMs no matter how little the kernel wrote. A cowMem
// instead shares the launch template's image read-only and materializes
// a private 4 KiB page on the first store to it, tracking stored words
// in a per-page bitmap. The deterministic merge walks pages in ascending
// index order and dirty bits in ascending word order, which visits
// exactly the same addresses in exactly the same order as the old
// whole-image dirty bitmap — CrossSMConflicts accounting is bit-for-bit
// identical (pinned by TestCoWMatchesFullCopySM).
//
// The base image is never written while SMs execute (the merge runs
// after every SM retires), so concurrent SMs may read it freely.

const (
	cowPageShift = 9
	// cowPageWords is the CoW page size: 512 words = 4 KiB.
	cowPageWords = 1 << cowPageShift
	cowPageMask  = cowPageWords - 1
)

// cowPage is one materialized page: a private copy of the base page plus
// a bitmap of the words stored through it.
type cowPage struct {
	words []uint64 // nil until the first store faults the page in
	dirty []uint64 // cowPageWords/64 bitmap of stored words
}

// cowMem is one SM's copy-on-write view of global memory.
type cowMem struct {
	base  []uint64
	pages []cowPage
}

func newCowMem(base []uint64) *cowMem {
	return &cowMem{
		base:  base,
		pages: make([]cowPage, (len(base)+cowPageMask)>>cowPageShift),
	}
}

func (c *cowMem) load(a int64) uint64 {
	if w := c.pages[a>>cowPageShift].words; w != nil {
		return w[a&cowPageMask]
	}
	return c.base[a]
}

func (c *cowMem) store(a int64, v uint64) {
	p := &c.pages[a>>cowPageShift]
	if p.words == nil {
		c.materialize(p, int(a>>cowPageShift))
	}
	off := a & cowPageMask
	p.words[off] = v
	p.dirty[off>>6] |= 1 << (uint(off) & 63)
}

// materialize faults page pi in: it allocates the page and copies the
// base page over it. The last page may be partial; its tail words are
// never addressable (addr() bounds-checks against the image length).
func (c *cowMem) materialize(p *cowPage, pi int) {
	p.words = make([]uint64, cowPageWords)
	p.dirty = make([]uint64, cowPageWords/64)
	start := pi << cowPageShift
	end := min(start+cowPageWords, len(c.base))
	copy(p.words[:end-start], c.base[start:end])
}

// mergeInto folds this SM's stored words into the final image in
// ascending address order: pages by index, words by dirty bit. A word an
// earlier SM already wrote with a different final value counts as a
// cross-SM conflict, exactly as the full-copy merge did.
func (c *cowMem) mergeInto(final, written []uint64, m *Metrics) {
	for pi := range c.pages {
		p := &c.pages[pi]
		if p.words == nil {
			continue
		}
		base := pi << cowPageShift
		for dw, mask := range p.dirty {
			for mm := mask; mm != 0; mm &= mm - 1 {
				off := dw*64 + bits.TrailingZeros64(mm)
				a := base + off
				v := p.words[off]
				gw, gb := a>>6, uint(a)&63
				if written[gw]&(1<<gb) != 0 && final[a] != v {
					m.CrossSMConflicts++
				}
				final[a] = v
				written[gw] |= 1 << gb
			}
		}
	}
}
