package memsys

import (
	"testing"

	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

func newTestNode() (*Node, *sim.Engine, *params.Config) {
	cfg := params.Default()
	eng := sim.NewEngine()
	n := NewNode(0, &cfg, eng)
	return n, eng, &cfg
}

func TestWriteBufferReap(t *testing.T) {
	wb := NewWriteBuffer(2)
	if s := wb.Push(0, 10); s != 0 {
		t.Fatalf("stall = %d, want 0", s)
	}
	if s := wb.Push(0, 20); s != 0 {
		t.Fatalf("stall = %d, want 0", s)
	}
	// Buffer full; pushing at t=5 stalls until t=10.
	if s := wb.Push(5, 30); s != 5 {
		t.Fatalf("stall = %d, want 5", s)
	}
	// At t=25 only the t=30 drain remains in flight.
	if p := wb.Pending(25); p != 1 {
		t.Fatalf("pending = %d, want 1", p)
	}
}

func TestMemBusContention(t *testing.T) {
	n, eng, cfg := newTestNode()
	var st0, st1 stats.ProcStats
	var end0, end1 sim.Time
	f0, f1 := NewFastPath(n), NewFastPath(n)
	eng.NewProc(0, "a", 0, func(p *sim.Proc) {
		n.TLB.Access(0)
		f0.Read(p, 0, &st0)
		end0 = p.Now()
	})
	eng.NewProc(1, "b", 0, func(p *sim.Proc) {
		n.TLB.Access(Addr(cfg.PageOf(1 << 20)))
		f1.Read(p, 1<<20, &st1) // different line, same bus
		end1 = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The second miss must queue behind the first on the memory bus.
	if end1-end0 < cfg.MemLineTime() {
		t.Fatalf("no bus serialization: end0=%d end1=%d", end0, end1)
	}
}

func TestDMAOccupiesBothBuses(t *testing.T) {
	n, eng, cfg := newTestNode()
	eng.At(0, func() {
		end := n.DMA(4096)
		want := cfg.MemBlockTime(4096) // memory path dominates PCI here? both 3/word; equal setup
		if end < want {
			t.Errorf("DMA end = %d, want >= %d", end, want)
		}
		if n.PCIBus.BusyCycles() == 0 || n.MemBus.BusyCycles() == 0 {
			t.Error("DMA did not occupy both buses")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidatePage(t *testing.T) {
	n, eng, cfg := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		for a := Addr(0); a < Addr(cfg.PageSize); a += Addr(cfg.CacheLineSize) {
			f.Read(p, a, &st)
		}
		n.InvalidatePage(0)
		for a := Addr(0); a < Addr(cfg.PageSize); a += Addr(cfg.CacheLineSize) {
			if n.Cache.Lookup(a) {
				t.Errorf("line %d survived page invalidation", a)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
