// Package memsys models each workstation's memory system in the detail
// the paper's back end simulates: a first-level direct-mapped data cache,
// a finite write buffer, a TLB, DRAM with setup+streaming costs, a shared
// memory bus with contention, and the PCI bus the protocol controller and
// network interface sit on.
package memsys

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated physical/virtual address (the DSM uses a single
// flat shared address space).
type Addr = int64

// Cache is a direct-mapped, tag-only timing model of the first-level data
// cache. Data values are not stored: the DSM keeps page contents in
// per-node page frames; the cache decides hit/miss timing only.
//
// Line size and line count are powers of two (params.Validate), so an
// address decodes to its line by a shift and to its set by a mask.
type Cache struct {
	lineShift uint
	setMask   Addr
	tags      []Addr // tags[i] = line address (addr >> lineShift), -1 invalid
	dirty     []bool

	Hits, Misses, Evictions, WriteBacks, Invalidations uint64
}

// NewCache builds a cache of totalBytes capacity with lineBytes lines.
// Both the line size and the line count must be powers of two.
func NewCache(totalBytes, lineBytes int) *Cache {
	n := totalBytes / lineBytes
	if lineBytes&(lineBytes-1) != 0 || n <= 0 || n&(n-1) != 0 || n*lineBytes != totalBytes {
		panic(fmt.Sprintf("memsys: cache of %d bytes in %d-byte lines is not a power-of-two geometry", totalBytes, lineBytes))
	}
	c := &Cache{lineShift: uint(bits.TrailingZeros(uint(lineBytes))), setMask: Addr(n - 1),
		tags: make([]Addr, n), dirty: make([]bool, n)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// Lines returns the number of lines.
func (c *Cache) Lines() int { return len(c.tags) }

// Lookup reports whether addr hits without changing state.
func (c *Cache) Lookup(addr Addr) bool {
	line := addr >> c.lineShift
	return c.tags[line&c.setMask] == line
}

// Access simulates a reference to addr. It returns whether it hit and, on
// a miss that evicted a dirty line, evictedDirty=true (the caller models
// the write-back bus traffic).
//
// markDirty applies to the (possibly newly filled) line — used for
// write-back caching of writes. allocate=false models write-no-allocate
// (write-through writes do not fill the cache on a miss).
func (c *Cache) Access(addr Addr, markDirty, allocate bool) (hit, evictedDirty bool) {
	line := addr >> c.lineShift
	i := line & c.setMask
	if c.tags[i] == line {
		c.Hits++
		if markDirty {
			c.dirty[i] = true
		}
		return true, false
	}
	c.Misses++
	if !allocate {
		return false, false
	}
	if c.tags[i] != -1 {
		c.Evictions++
		if c.dirty[i] {
			c.WriteBacks++
			evictedDirty = true
		}
	}
	c.tags[i] = line
	c.dirty[i] = markDirty
	return false, evictedDirty
}

// InvalidateRange drops every line overlapping [addr, addr+n). The
// computation processor must snoop and invalidate data written to local
// memory by the protocol controller (Section 3.1), e.g. when a remote
// diff is applied to a local page. Dirty data in the invalidated range is
// discarded: the protocol guarantees the incoming version supersedes it.
func (c *Cache) InvalidateRange(addr Addr, n int) int {
	first := addr >> c.lineShift
	last := (addr + Addr(n) - 1) >> c.lineShift
	dropped := 0
	for line := first; line <= last; line++ {
		i := line & c.setMask
		if c.tags[i] == line {
			c.tags[i] = -1
			c.dirty[i] = false
			dropped++
		}
	}
	c.Invalidations += uint64(dropped)
	return dropped
}

// Flush empties the whole cache (used between runs/phases in tests).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = -1
		c.dirty[i] = false
	}
}

// TLB is a FIFO-replacement translation buffer over page numbers.
//
// Heap pages are dense from 0 (a bump allocator), so residency is a
// page-indexed flag slice rather than a map; the FIFO itself is a ring
// of the resident pages in insertion order.
type TLB struct {
	present []bool // present[pg]: pg is resident
	fifo    []Addr // ring of resident pages, oldest at fifo[head]
	head    int

	Hits, Misses uint64
}

// NewTLB builds a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	return &TLB{fifo: make([]Addr, 0, entries)}
}

// Access touches the translation for page and reports whether it hit.
func (t *TLB) Access(page Addr) (hit bool) {
	if page < Addr(len(t.present)) && t.present[page] {
		t.Hits++
		return true
	}
	t.Misses++
	if page >= Addr(len(t.present)) {
		t.present = append(t.present, make([]bool, int(page)+1-len(t.present))...)
	}
	t.present[page] = true
	if len(t.fifo) < cap(t.fifo) {
		t.fifo = append(t.fifo, page)
		return false
	}
	t.present[t.fifo[t.head]] = false
	t.fifo[t.head] = page
	if t.head++; t.head == len(t.fifo) {
		t.head = 0
	}
	return false
}

// Entries returns the number of resident translations.
func (t *TLB) Entries() int { return len(t.fifo) }
