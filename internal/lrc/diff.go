package lrc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// WordBytes is the diff granularity (one machine word).
const WordBytes = 4

// Diff is an encoding of the modifications made to a page: the indices of
// the modified words and their new values — exactly what the paper's DMA
// engine produces from its bit vector (a scatter/gather record).
type Diff struct {
	Page  int
	Words []int32  // sorted word indices within the page
	Data  []uint32 // new values, parallel to Words

	// Owner tags the writer; the diff covers the writer's intervals
	// [OldSeq, Seq] (a diff accumulates all writes since the twin was
	// created, possibly spanning several intervals). Seq drives the
	// requester's "which diffs am I missing" filtering; OldSeq and VTS
	// (the vector timestamp of the span's OLDEST interval) drive the
	// happened-before ordering when diffs from several writers are
	// applied to one page.
	Owner  int
	Seq    int32
	OldSeq int32
	VTS    VTS
}

// CreateDiff compares cur against twin word by word and returns the diff
// (possibly empty). Both slices must be the same page-sized length.
func CreateDiff(page int, twin, cur []byte) *Diff {
	if len(twin) != len(cur) {
		panic(fmt.Sprintf("lrc: twin %d bytes vs page %d bytes", len(twin), len(cur)))
	}
	d := &Diff{Page: page}
	for w := 0; w+WordBytes <= len(cur); w += WordBytes {
		a := binary.LittleEndian.Uint32(twin[w:])
		b := binary.LittleEndian.Uint32(cur[w:])
		if a != b {
			d.Words = append(d.Words, int32(w/WordBytes))
			d.Data = append(d.Data, b)
		}
	}
	return d
}

// DiffFromVector builds a diff from a write bit vector and the current
// page contents — the hardware-assisted path: the snoop logic marked the
// written words; the DMA engine gathers them.
func DiffFromVector(page int, vec *WriteVector, cur []byte) *Diff {
	d := &Diff{Page: page}
	if n := vec.Count(); n > 0 {
		d.Words = make([]int32, 0, n)
		d.Data = make([]uint32, 0, n)
	}
	vec.ForEach(func(w int) {
		d.Words = append(d.Words, int32(w))
		d.Data = append(d.Data, binary.LittleEndian.Uint32(cur[w*WordBytes:]))
	})
	return d
}

// Apply scatters the diff's words into dst.
func (d *Diff) Apply(dst []byte) {
	for i, w := range d.Words {
		binary.LittleEndian.PutUint32(dst[int(w)*WordBytes:], d.Data[i])
	}
}

// Len returns the number of modified words.
func (d *Diff) Len() int { return len(d.Words) }

// WireBytes is the network size of the diff: a header, the page bit
// vector (one bit per word), and the modified words.
func (d *Diff) WireBytes(pageWords int) int {
	return 16 + (pageWords+7)/8 + WordBytes*len(d.Words)
}

// WriteVector is the per-page bit vector maintained by the controller's
// snoop logic: one bit per word, set when the computation processor
// writes the word through to the memory bus (Section 3.1).
type WriteVector struct {
	bits []uint64
	set  int
}

// NewWriteVector returns a vector for a page of pageWords words.
func NewWriteVector(pageWords int) *WriteVector {
	return &WriteVector{bits: make([]uint64, (pageWords+63)/64)}
}

// Mark sets the bit for word w (idempotent).
func (v *WriteVector) Mark(w int) {
	i, b := w/64, uint(w%64)
	if v.bits[i]&(1<<b) == 0 {
		v.bits[i] |= 1 << b
		v.set++
	}
}

// Count returns the number of marked words.
func (v *WriteVector) Count() int { return v.set }

// Clear resets every bit (generating the diff resets the vector).
func (v *WriteVector) Clear() {
	for i := range v.bits {
		v.bits[i] = 0
	}
	v.set = 0
}

// ForEach calls fn for each marked word index in ascending order.
func (v *WriteVector) ForEach(fn func(w int)) {
	for i, word := range v.bits {
		for word != 0 {
			fn(i*64 + bits.TrailingZeros64(word))
			word &= word - 1 // clear the lowest set bit
		}
	}
}
