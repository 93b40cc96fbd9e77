package memsys

import (
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// Stall reasons used by FastPath sleeps. Protocol layers install
// sim.Proc.OnUnblock hooks that map these to the paper's time categories.
const (
	ReasonBusy      = "busy"
	ReasonTLBFill   = "tlb-fill"
	ReasonCacheMiss = "cache-miss"
	ReasonWBFull    = "wbuf-full"
)

// FastPath is the per-processor access engine used by the protocols. It
// accumulates busy cycles lazily so that cache hits cost no simulation
// events: the accumulated time is slept (in one event) just before any
// interaction that must observe an accurate clock — a bus reservation, a
// miss, a fault, a synchronization operation.
//
// FastPath charges nothing itself: all its stalls go through sim.Proc
// sleep reasons, so a single OnUnblock hook performs the category
// accounting.
type FastPath struct {
	Node *Node
	lazy sim.Time
}

// NewFastPath wraps a node's memory system.
func NewFastPath(n *Node) *FastPath { return &FastPath{Node: n} }

// AddBusy accumulates busy cycles without a simulation event.
func (f *FastPath) AddBusy(c sim.Time) { f.lazy += c }

// Pending returns the busy cycles accumulated but not yet slept.
func (f *FastPath) Pending() sim.Time { return f.lazy }

// Flush sleeps off the accumulated busy time so the simulated clock
// catches up with the processor's progress.
func (f *FastPath) Flush(p *sim.Proc) {
	if f.lazy > 0 {
		d := f.lazy
		f.lazy = 0
		p.SleepReason(d, ReasonBusy)
	}
}

func (f *FastPath) tlb(p *sim.Proc, addr Addr, st *stats.ProcStats) {
	if f.Node.TLB.Access(Addr(f.Node.Cfg.PageOf(addr))) {
		return
	}
	st.TLBMisses++
	f.Flush(p)
	p.SleepReason(f.Node.Cfg.TLBFillTime, ReasonTLBFill)
}

// Read simulates a data read: 1 busy cycle, TLB, then the cache; a miss
// stalls through the memory bus.
func (f *FastPath) Read(p *sim.Proc, addr Addr, st *stats.ProcStats) {
	st.SharedReads++
	f.lazy++
	f.tlb(p, addr, st)
	hit, evictedDirty := f.Node.Cache.Access(addr, false, true)
	if hit {
		return
	}
	st.CacheMisses++
	f.Flush(p)
	if evictedDirty {
		f.Node.MemBus.Reserve(f.Node.Eng, f.Node.Cfg.MemLineTime())
	}
	f.Node.MemBus.Use(p, f.Node.Cfg.MemLineTime(), ReasonCacheMiss)
}

// WriteBack simulates a write under write-back, write-allocate policy.
func (f *FastPath) WriteBack(p *sim.Proc, addr Addr, st *stats.ProcStats) {
	st.SharedWrites++
	f.lazy++
	f.tlb(p, addr, st)
	hit, evictedDirty := f.Node.Cache.Access(addr, true, true)
	if hit {
		return
	}
	st.CacheMisses++
	f.Flush(p)
	if evictedDirty {
		f.Node.MemBus.Reserve(f.Node.Eng, f.Node.Cfg.MemLineTime())
	}
	f.Node.MemBus.Use(p, f.Node.Cfg.MemLineTime(), ReasonCacheMiss)
}

// WriteThrough simulates a write under write-through, no-allocate policy:
// the word drains through the write buffer onto the memory bus (where the
// controller's snoop logic, or the Shrimp interface, observes it). The
// processor stalls only when the write buffer is full.
func (f *FastPath) WriteThrough(p *sim.Proc, addr Addr, st *stats.ProcStats) {
	st.SharedWrites++
	f.lazy++
	f.tlb(p, addr, st)
	f.Node.Cache.Access(addr, false, false)
	f.Flush(p)
	_, drainEnd := f.Node.MemBus.Reserve(f.Node.Eng, f.Node.Cfg.WriteThroughWordTime())
	stall := f.Node.WB.Push(p.Now(), drainEnd)
	if stall > 0 {
		st.WriteBuffStalls++
		p.SleepReason(stall, ReasonWBFull)
	}
}
