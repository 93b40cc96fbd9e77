package memsys

import (
	"testing"

	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// charge installs the accounting hook the protocols install: busy
// cycles count as busy time, every memory-system stall as "others".
func charge(p *sim.Proc, st *stats.ProcStats) {
	p.OnUnblock = func(reason string, waited sim.Time) {
		if reason == ReasonBusy {
			st.Add(stats.Busy, waited)
			return
		}
		st.Add(stats.Other, waited)
	}
}

func TestFastPathLazyBusy(t *testing.T) {
	n, eng, _ := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	var afterHits, afterFlush sim.Time
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		f.Read(p, 0, &st) // miss: flushes + stalls
		base := p.Now()
		for i := 0; i < 10; i++ {
			f.Read(p, 0, &st) // hits: no time advances
		}
		afterHits = p.Now() - base
		f.Flush(p)
		afterFlush = p.Now() - base
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if afterHits != 0 {
		t.Fatalf("hits advanced time by %d, want 0 (lazy)", afterHits)
	}
	if afterFlush != 10 {
		t.Fatalf("flush slept %d, want 10", afterFlush)
	}
	if st.SharedReads != 11 || st.CacheMisses != 1 {
		t.Fatalf("reads=%d misses=%d", st.SharedReads, st.CacheMisses)
	}
}

func TestFastPathMissMatchesNodeRead(t *testing.T) {
	// A fast-path read miss on a TLB-resident page costs what the node's
	// memory system charges for one line: 1 busy + line fill.
	cfg := params.Default()
	eng := sim.NewEngine()
	n := NewNode(0, &cfg, eng)
	f := NewFastPath(n)
	var st stats.ProcStats
	var took sim.Time
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		start := p.Now()
		f.Read(p, 64, &st)
		f.Flush(p)
		took = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 1+cfg.MemLineTime() {
		t.Fatalf("miss took %d, want %d", took, 1+cfg.MemLineTime())
	}
}

func TestFastPathWriteThroughStalls(t *testing.T) {
	cfg := params.Default()
	cfg.WriteBufferSize = 1
	eng := sim.NewEngine()
	n := NewNode(0, &cfg, eng)
	f := NewFastPath(n)
	var st stats.ProcStats
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		f.WriteThrough(p, 0, &st)
		f.WriteThrough(p, 4, &st) // buffer of 1: must stall
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.WriteBuffStalls != 1 {
		t.Fatalf("stalls = %d, want 1", st.WriteBuffStalls)
	}
	if st.SharedWrites != 2 {
		t.Fatalf("writes = %d", st.SharedWrites)
	}
}

func TestFastPathChargesViaHooks(t *testing.T) {
	n, eng, cfg := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	p := eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		f.Read(p, 0, &st) // TLB miss + cache miss
		f.Flush(p)
	})
	charge(p, &st)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Cycles[stats.Busy] != 1 {
		t.Fatalf("busy = %d, want 1", st.Cycles[stats.Busy])
	}
	wantOther := cfg.TLBFillTime + cfg.MemLineTime()
	if st.Cycles[stats.Other] != wantOther {
		t.Fatalf("other = %d, want %d", st.Cycles[stats.Other], wantOther)
	}
}

func TestFastPathWriteBackDirtyEviction(t *testing.T) {
	n, eng, _ := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		f.WriteBack(p, 0, &st)
		wb := n.Cache.WriteBacks
		f.Read(p, Addr(n.Cache.Lines()*n.Cache.LineSize()), &st) // conflicts
		if n.Cache.WriteBacks != wb+1 {
			t.Error("dirty line not written back on eviction")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// A read miss costs its one busy cycle plus one line fill on the memory
// bus; a hit costs only the busy cycle, slept at the next flush.
func TestReadTimingHitVsMiss(t *testing.T) {
	n, eng, cfg := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	var miss, hit sim.Time
	p := eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0) // isolate the cache miss from the TLB fill
		start := p.Now()
		f.Read(p, 64, &st)
		f.Flush(p)
		miss = p.Now() - start
		start = p.Now()
		f.Read(p, 64, &st)
		f.Flush(p)
		hit = p.Now() - start
	})
	charge(p, &st)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if miss != 1+cfg.MemLineTime() {
		t.Fatalf("miss latency = %d, want %d", miss, 1+cfg.MemLineTime())
	}
	if hit != 1 {
		t.Fatalf("hit latency = %d, want 1", hit)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.CacheMisses)
	}
	if st.Cycles[stats.Other] != cfg.MemLineTime() || st.Cycles[stats.Busy] != 2 {
		t.Fatalf("other/busy = %d/%d, want %d/2", st.Cycles[stats.Other], st.Cycles[stats.Busy], cfg.MemLineTime())
	}
}

// Each page's first reference fills its translation; later references
// to the page do not.
func TestTLBMissCharged(t *testing.T) {
	n, eng, cfg := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	p := eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		f.Read(p, 0, &st)
		f.Read(p, 8, &st)
		f.Read(p, Addr(cfg.PageSize), &st)
	})
	charge(p, &st)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.TLBMisses != 2 || n.TLB.Misses != 2 || n.TLB.Hits != 1 {
		t.Fatalf("tlb misses = %d (TLB %d/%d hits/misses), want 2 (1/2)", st.TLBMisses, n.TLB.Hits, n.TLB.Misses)
	}
	if want := 2 * (cfg.TLBFillTime + cfg.MemLineTime()); st.Cycles[stats.Other] != want {
		t.Fatalf("other cycles = %d, want %d (two fills, two line misses)", st.Cycles[stats.Other], want)
	}
}

// Write-through words drain through the write buffer: the processor
// stalls only once every entry is in flight, and then only until the
// oldest drain completes.
func TestWriteThroughDrainsAndStalls(t *testing.T) {
	cfg := params.Default()
	cfg.WriteBufferSize = 2
	eng := sim.NewEngine()
	n := NewNode(0, &cfg, eng)
	f := NewFastPath(n)
	var st stats.ProcStats
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		f.WriteThrough(p, 0, &st)
		f.WriteThrough(p, 4, &st)
		if st.WriteBuffStalls != 0 {
			t.Errorf("stalled with the buffer not yet full")
		}
		f.WriteThrough(p, 8, &st)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.WriteBuffStalls != 1 || st.SharedWrites != 3 {
		t.Fatalf("stalls/writes = %d/%d, want 1/3", st.WriteBuffStalls, st.SharedWrites)
	}
	// The first word was written at cycle 1 and drains for one word
	// time; the third was written at cycle 3.
	if want := 1 + cfg.WriteThroughWordTime() - 3; n.WB.StallCycles != want {
		t.Fatalf("stall = %d cycles, want %d", n.WB.StallCycles, want)
	}
}

// Write-back writes allocate and dirty their line: evicting it costs a
// write-back, where evicting a line that was only read does not.
func TestWriteBackAllocatesAndDirties(t *testing.T) {
	n, eng, _ := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	conflict := Addr(n.Cache.Lines() * n.Cache.LineSize())
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		f.Read(p, 0, &st)
		f.Read(p, conflict, &st)
		if n.Cache.WriteBacks != 0 {
			t.Error("clean victim written back")
		}
		f.WriteBack(p, 128, &st)
		if !n.Cache.Lookup(128) {
			t.Error("write-back write did not allocate")
		}
		f.Read(p, 128+conflict, &st)
		if n.Cache.WriteBacks != 1 {
			t.Error("dirty victim not written back")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 4 {
		t.Fatalf("cache misses = %d, want 4", st.CacheMisses)
	}
}
