package memsys

import (
	"testing"
	"testing/quick"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(1024, 32)
	hit, _ := c.Access(100, false, true)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _ = c.Access(100, false, true)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different word.
	hit, _ = c.Access(96, false, true)
	if !hit {
		t.Fatal("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := NewCache(1024, 32) // 32 lines
	c.Access(0, true, true) // dirty line 0
	// Address mapping to the same index: 32 lines * 32 bytes = 1024 apart.
	hit, evictedDirty := c.Access(1024, false, true)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !evictedDirty {
		t.Fatal("dirty victim not reported")
	}
	if c.WriteBacks != 1 || c.Evictions != 1 {
		t.Fatalf("writebacks=%d evictions=%d", c.WriteBacks, c.Evictions)
	}
	// Original line is gone.
	if c.Lookup(0) {
		t.Fatal("evicted line still present")
	}
}

func TestCacheWriteNoAllocate(t *testing.T) {
	c := NewCache(1024, 32)
	hit, _ := c.Access(64, false, false)
	if hit {
		t.Fatal("cold write hit")
	}
	if c.Lookup(64) {
		t.Fatal("no-allocate access filled the cache")
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	c := NewCache(4096, 32)
	for a := Addr(0); a < 256; a += 32 {
		c.Access(a, true, true)
	}
	n := c.InvalidateRange(0, 256)
	if n != 8 {
		t.Fatalf("invalidated %d lines, want 8", n)
	}
	for a := Addr(0); a < 256; a += 32 {
		if c.Lookup(a) {
			t.Fatalf("line %d still cached after invalidate", a)
		}
	}
	// Invalidating again is a no-op.
	if n := c.InvalidateRange(0, 256); n != 0 {
		t.Fatalf("second invalidate dropped %d lines", n)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(1024, 32)
	c.Access(0, true, true)
	c.Flush()
	if c.Lookup(0) {
		t.Fatal("line survived flush")
	}
}

// Property: after Access(addr, _, true), Lookup(addr) always hits, and a
// re-access of the same address is always a hit.
func TestCacheAccessThenLookupProperty(t *testing.T) {
	c := NewCache(8192, 32)
	f := func(raw []uint32) bool {
		for _, r := range raw {
			a := Addr(r % (1 << 20))
			c.Access(a, r%2 == 0, true)
			if !c.Lookup(a) {
				return false
			}
			hit, _ := c.Access(a, false, true)
			if !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBFIFOReplacement(t *testing.T) {
	tlb := NewTLB(2)
	if tlb.Access(1) {
		t.Fatal("cold TLB hit")
	}
	tlb.Access(2)
	if !tlb.Access(1) {
		t.Fatal("page 1 should still be resident")
	}
	tlb.Access(3) // evicts 1 (FIFO order: 1 was inserted first)
	if tlb.Access(1) {
		t.Fatal("page 1 should have been evicted by FIFO")
	}
	if tlb.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", tlb.Entries())
	}
}

// Property: on random page streams, a TLB of every capacity from 1 to 8
// agrees access by access with a reference model (a set of resident
// pages plus a FIFO queue of them): each hit or miss, Hits, Misses and
// Entries, so eviction order is checked too, not just capacity.
func TestTLBCapacityProperty(t *testing.T) {
	f := func(stream []uint16) bool {
		for size := 1; size <= 8; size++ {
			tlb := NewTLB(size)
			resident := map[Addr]bool{}
			var fifo []Addr
			var hits, misses uint64
			for _, r := range stream {
				// Few distinct pages, so pages hit and get evicted; the
				// high bit jumps far out to grow the residency table.
				pg := Addr(r % 12)
				if r&0x8000 != 0 {
					pg += 1000
				}
				want := resident[pg]
				if want {
					hits++
				} else {
					misses++
					if len(fifo) == size {
						delete(resident, fifo[0])
						fifo = fifo[1:]
					}
					resident[pg] = true
					fifo = append(fifo, pg)
				}
				if tlb.Access(pg) != want || tlb.Hits != hits || tlb.Misses != misses || tlb.Entries() != len(fifo) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
