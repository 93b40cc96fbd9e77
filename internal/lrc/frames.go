package lrc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Frames is one node's physical copy of the shared address space, held at
// page granularity and allocated lazily (all pages start zeroed, which is
// the DSM's well-defined initial state on every node).
//
// The heap is a bump allocator from page 0, so page numbers are small and
// dense: frames are kept in a slice indexed by page number rather than a
// map, because Page sits on the path of every simulated memory access.
// For the same reason the page size is a power of two, so an address
// splits into page and offset by a shift and a mask.
type Frames struct {
	pageSize  int
	pageShift uint
	frames    [][]byte // frames[pg] is nil until materialized
}

// NewFrames builds an empty frame store; pageSize must be a power of two.
func NewFrames(pageSize int) *Frames {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("lrc: page size %d is not a power of two", pageSize))
	}
	return &Frames{pageSize: pageSize, pageShift: uint(bits.TrailingZeros(uint(pageSize)))}
}

// PageSize returns the page size in bytes.
func (f *Frames) PageSize() int { return f.pageSize }

// PageEntry returns a pointer to page pg's entry in a page-indexed
// table, first extending the table with zero entries to cover pg. Heap
// pages are dense from 0, so every per-page table on the path of a
// shared reference (frames, page states, profiles, directories, write
// vectors) is a slice indexed this way rather than a map.
func PageEntry[T any](table *[]T, pg int) *T {
	if pg >= len(*table) {
		*table = append(*table, make([]T, pg+1-len(*table))...)
	}
	return &(*table)[pg]
}

// Page returns the frame for page pg, allocating a zeroed one on demand.
func (f *Frames) Page(pg int) []byte {
	fr := PageEntry(&f.frames, pg)
	if *fr == nil {
		*fr = make([]byte, f.pageSize)
	}
	return *fr
}

// Resident reports whether a frame has been materialized.
func (f *Frames) Resident(pg int) bool {
	return pg < len(f.frames) && f.frames[pg] != nil
}

// CopyPage overwrites page pg with src (a whole-page transfer).
func (f *Frames) CopyPage(pg int, src []byte) {
	if len(src) != f.pageSize {
		panic(fmt.Sprintf("lrc: CopyPage got %d bytes, want %d", len(src), f.pageSize))
	}
	copy(f.Page(pg), src)
}

func (f *Frames) locate(addr int64, n int) ([]byte, int) {
	pg := int(addr >> f.pageShift)
	off := int(addr) & (f.pageSize - 1)
	if off+n > f.pageSize {
		panic(fmt.Sprintf("lrc: access of %d bytes at %d crosses page boundary", n, addr))
	}
	return f.Page(pg), off
}

// ReadU32 loads a 32-bit word.
func (f *Frames) ReadU32(addr int64) uint32 {
	fr, off := f.locate(addr, 4)
	return binary.LittleEndian.Uint32(fr[off:])
}

// WriteU32 stores a 32-bit word.
func (f *Frames) WriteU32(addr int64, v uint32) {
	fr, off := f.locate(addr, 4)
	binary.LittleEndian.PutUint32(fr[off:], v)
}

// ReadU64 loads a 64-bit value (must not cross a page boundary).
func (f *Frames) ReadU64(addr int64) uint64 {
	fr, off := f.locate(addr, 8)
	return binary.LittleEndian.Uint64(fr[off:])
}

// WriteU64 stores a 64-bit value.
func (f *Frames) WriteU64(addr int64, v uint64) {
	fr, off := f.locate(addr, 8)
	binary.LittleEndian.PutUint64(fr[off:], v)
}

// ReadF64 loads a float64.
func (f *Frames) ReadF64(addr int64) float64 { return math.Float64frombits(f.ReadU64(addr)) }

// WriteF64 stores a float64.
func (f *Frames) WriteF64(addr int64, v float64) { f.WriteU64(addr, math.Float64bits(v)) }

// Heap is a bump allocator over the shared address space. Allocation is
// performed identically on every node (apps allocate deterministically
// before or between parallel phases), so an address means the same thing
// everywhere.
type Heap struct {
	pageSize int
	next     int64
}

// NewHeap starts allocation at page 0.
func NewHeap(pageSize int) *Heap { return &Heap{pageSize: pageSize} }

// Alloc reserves n bytes aligned to align (power of two) and returns the
// base address.
func (h *Heap) Alloc(n int, align int64) int64 {
	if align <= 0 {
		align = 8
	}
	h.next = (h.next + align - 1) &^ (align - 1)
	base := h.next
	h.next += int64(n)
	return base
}

// AllocPages reserves whole pages and returns the base address, which is
// page-aligned. Padding to page granularity is the classic defence
// against false sharing between unrelated data structures.
func (h *Heap) AllocPages(n int) int64 {
	ps := int64(h.pageSize)
	h.next = (h.next + ps - 1) / ps * ps
	base := h.next
	h.next += int64(n) * ps
	return base
}

// Brk returns the current top of the heap.
func (h *Heap) Brk() int64 { return h.next }

// PagesUsed returns the number of pages the heap spans.
func (h *Heap) PagesUsed() int {
	return int((h.next + int64(h.pageSize) - 1) / int64(h.pageSize))
}
