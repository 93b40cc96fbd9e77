package lrc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVTSCovers(t *testing.T) {
	a := VTS{3, 2, 1}
	b := VTS{2, 2, 0}
	if !a.Covers(b) {
		t.Error("a should cover b")
	}
	if b.Covers(a) {
		t.Error("b should not cover a")
	}
	if !a.Covers(a) {
		t.Error("covers must be reflexive")
	}
	if !a.CoversEntry(0, 3) || a.CoversEntry(2, 2) {
		t.Error("CoversEntry wrong")
	}
}

func TestVTSMaxClone(t *testing.T) {
	a := VTS{1, 5, 0}
	c := a.Clone()
	a.Max(VTS{4, 2, 2})
	if !a.Equal(VTS{4, 5, 2}) {
		t.Errorf("Max = %v", a)
	}
	if !c.Equal(VTS{1, 5, 0}) {
		t.Errorf("Clone aliased: %v", c)
	}
	if a.WireBytes() != 12 {
		t.Errorf("WireBytes = %d", a.WireBytes())
	}
}

// Property: Max produces a vector covering both inputs, and Covers is a
// partial order (antisymmetric on non-equal vectors, transitive via Max).
func TestVTSLatticeProperty(t *testing.T) {
	f := func(x, y [4]int8) bool {
		a, b := NewVTS(4), NewVTS(4)
		for i := 0; i < 4; i++ {
			a[i], b[i] = int32(abs8(x[i])), int32(abs8(y[i]))
		}
		m := a.Clone()
		m.Max(b)
		if !m.Covers(a) || !m.Covers(b) {
			return false
		}
		if a.Covers(b) && b.Covers(a) && !a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs8(v int8) int8 {
	if v < 0 {
		if v == -128 {
			return 127
		}
		return -v
	}
	return v
}

func TestIntervalNotices(t *testing.T) {
	iv := &Interval{Owner: 3, Seq: 7, Pages: []int{10, 20}}
	ns := iv.Notices()
	if len(ns) != 2 || ns[0] != (WriteNotice{10, 3, 7}) || ns[1] != (WriteNotice{20, 3, 7}) {
		t.Fatalf("notices = %+v", ns)
	}
}

func TestCreateApplyDiffRoundtrip(t *testing.T) {
	const ps = 256
	twin := make([]byte, ps)
	cur := make([]byte, ps)
	copy(cur, twin)
	binary.LittleEndian.PutUint32(cur[8:], 0xdeadbeef)
	binary.LittleEndian.PutUint32(cur[252:], 42)
	d := CreateDiff(5, twin, cur)
	if d.Len() != 2 || d.Page != 5 {
		t.Fatalf("diff = %+v", d)
	}
	dst := make([]byte, ps)
	d.Apply(dst)
	if binary.LittleEndian.Uint32(dst[8:]) != 0xdeadbeef ||
		binary.LittleEndian.Uint32(dst[252:]) != 42 {
		t.Fatal("apply did not reproduce writes")
	}
	// Untouched words stay untouched.
	if dst[0] != 0 || dst[100] != 0 {
		t.Fatal("apply touched clean words")
	}
}

func TestEmptyDiff(t *testing.T) {
	page := make([]byte, 128)
	d := CreateDiff(0, page, page)
	if d.Len() != 0 {
		t.Fatalf("identical pages produced %d-word diff", d.Len())
	}
	// Still a sane wire size (header + bitvector).
	if d.WireBytes(32) != 16+4 {
		t.Fatalf("empty diff wire bytes = %d", d.WireBytes(32))
	}
}

// Property: for random twin/current pairs, twin+diff == current.
func TestDiffReconstructionProperty(t *testing.T) {
	f := func(seed []byte, edits []uint16) bool {
		const ps = 512
		twin := make([]byte, ps)
		copy(twin, seed)
		cur := make([]byte, ps)
		copy(cur, twin)
		for i, e := range edits {
			w := int(e) % (ps / 4)
			binary.LittleEndian.PutUint32(cur[w*4:], uint32(i+1)*2654435761)
		}
		d := CreateDiff(0, twin, cur)
		rebuilt := make([]byte, ps)
		copy(rebuilt, twin)
		d.Apply(rebuilt)
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteVector(t *testing.T) {
	v := NewWriteVector(1024)
	v.Mark(0)
	v.Mark(63)
	v.Mark(64)
	v.Mark(1023)
	v.Mark(64) // idempotent
	if v.Count() != 4 {
		t.Fatalf("count = %d, want 4", v.Count())
	}
	var got []int
	v.ForEach(func(w int) { got = append(got, w) })
	want := []int{0, 63, 64, 1023}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	v.Clear()
	if v.Count() != 0 {
		t.Fatal("clear failed")
	}

	// Random vectors, always including the word-boundary bits 0, 63 and
	// 64 and the page's last word, against a naive scan of a flag model.
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{16, 64, 65, 128, 1000, 1024} {
		for trial := 0; trial < 50; trial++ {
			v := NewWriteVector(words)
			marked := make([]bool, words)
			for _, w := range append([]int{0, 63, 64, words - 1}, rng.Perm(words)[:rng.Intn(words)]...) {
				if w < words {
					v.Mark(w)
					marked[w] = true
				}
			}
			var want []int
			for w, m := range marked {
				if m {
					want = append(want, w)
				}
			}
			var got []int
			v.ForEach(func(w int) { got = append(got, w) })
			if !reflect.DeepEqual(got, want) || v.Count() != len(want) {
				t.Fatalf("%d words: ForEach = %v (count %d), want %v", words, got, v.Count(), want)
			}
		}
	}
}

// Property: DiffFromVector equals CreateDiff when the vector marks
// exactly the modified words.
func TestVectorDiffEquivalenceProperty(t *testing.T) {
	f := func(edits []uint16) bool {
		const ps = 256
		twin := make([]byte, ps)
		cur := make([]byte, ps)
		vec := NewWriteVector(ps / 4)
		for i, e := range edits {
			w := int(e) % (ps / 4)
			val := uint32(i+7) * 2246822519
			if val == 0 { // ensure it differs from the zero twin
				val = 1
			}
			binary.LittleEndian.PutUint32(cur[w*4:], val)
			vec.Mark(w)
		}
		soft := CreateDiff(0, twin, cur)
		hard := DiffFromVector(0, vec, cur)
		// hard may include words whose final value equals the twin's if a
		// later edit restored it — here values are never zero, so sets of
		// marked words match modified words exactly.
		if len(hard.Words) < len(soft.Words) {
			return false
		}
		dst1 := make([]byte, ps)
		dst2 := make([]byte, ps)
		soft.Apply(dst1)
		hard.Apply(dst2)
		return bytes.Equal(dst1, dst2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFramesRW(t *testing.T) {
	f := NewFrames(4096)
	f.WriteU32(100, 77)
	if f.ReadU32(100) != 77 {
		t.Fatal("u32 roundtrip failed")
	}
	f.WriteF64(4096+8, 3.25)
	if f.ReadF64(4096+8) != 3.25 {
		t.Fatal("f64 roundtrip failed")
	}
	if !f.Resident(0) || !f.Resident(1) || f.Resident(2) {
		t.Fatal("residency wrong")
	}
	// Unwritten data reads as zero.
	if f.ReadU32(8192) != 0 {
		t.Fatal("fresh page not zeroed")
	}
}

func TestFramesCrossPagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on page-crossing access")
		}
	}()
	f := NewFrames(4096)
	f.ReadU64(4092)
}

func TestFramesCopyPage(t *testing.T) {
	f := NewFrames(64)
	src := make([]byte, 64)
	src[10] = 9
	f.CopyPage(3, src)
	if f.Page(3)[10] != 9 {
		t.Fatal("CopyPage failed")
	}
}

func TestHeapAlloc(t *testing.T) {
	h := NewHeap(4096)
	a := h.Alloc(10, 8)
	b := h.Alloc(10, 8)
	if a != 0 || b != 16 {
		t.Fatalf("allocs = %d, %d", a, b)
	}
	p := h.AllocPages(2)
	if p != 4096 {
		t.Fatalf("page alloc = %d, want 4096", p)
	}
	if h.PagesUsed() != 3 {
		t.Fatalf("pages used = %d, want 3", h.PagesUsed())
	}
	if h.Brk() != 3*4096 {
		t.Fatalf("brk = %d", h.Brk())
	}
}

// Property: allocations never overlap and respect alignment.
func TestHeapNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := NewHeap(4096)
		var prevEnd int64
		for _, s := range sizes {
			n := int(s)%100 + 1
			a := h.Alloc(n, 8)
			if a%8 != 0 || a < prevEnd {
				return false
			}
			prevEnd = a + int64(n)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: applying word-disjoint diffs commutes — any order yields the
// same page (the data-race-free guarantee orderDiffs relies on for
// concurrent writers).
func TestDisjointDiffCommutativityProperty(t *testing.T) {
	f := func(editsA, editsB []uint8) bool {
		const ps = 512
		// Build two diffs over disjoint word sets: A uses even words,
		// B odd words.
		base := make([]byte, ps)
		curA := make([]byte, ps)
		curB := make([]byte, ps)
		for i, e := range editsA {
			w := (int(e) % (ps / 8)) * 2
			binary.LittleEndian.PutUint32(curA[w*4:], uint32(i+1)*2654435761|1)
		}
		for i, e := range editsB {
			w := (int(e)%(ps/8))*2 + 1
			binary.LittleEndian.PutUint32(curB[w*4:], uint32(i+1)*2246822519|1)
		}
		dA := CreateDiff(0, base, curA)
		dB := CreateDiff(0, base, curB)

		p1 := make([]byte, ps)
		dA.Apply(p1)
		dB.Apply(p1)
		p2 := make([]byte, ps)
		dB.Apply(p2)
		dA.Apply(p2)
		return bytes.Equal(p1, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for SAME-word writers, last-applied wins — which is why the
// protocols must order overlapping diffs by happened-before.
func TestOverlappingDiffLastWriterWins(t *testing.T) {
	base := make([]byte, 64)
	cur1 := make([]byte, 64)
	cur2 := make([]byte, 64)
	binary.LittleEndian.PutUint32(cur1[8:], 111)
	binary.LittleEndian.PutUint32(cur2[8:], 222)
	d1 := CreateDiff(0, base, cur1)
	d2 := CreateDiff(0, base, cur2)
	page := make([]byte, 64)
	d1.Apply(page)
	d2.Apply(page)
	if got := binary.LittleEndian.Uint32(page[8:]); got != 222 {
		t.Fatalf("last writer did not win: %d", got)
	}
}
