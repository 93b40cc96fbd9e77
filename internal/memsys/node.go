package memsys

import (
	"dsm96/internal/params"
	"dsm96/internal/sim"
)

// WriteBuffer models the finite processor write buffer: writes enqueue
// and drain through the memory bus; the processor stalls only when every
// entry is occupied.
type WriteBuffer struct {
	capacity int
	drains   []sim.Time // completion times of in-flight entries

	Stalls      uint64
	StallCycles sim.Time
}

// NewWriteBuffer builds a buffer with the given number of entries.
func NewWriteBuffer(entries int) *WriteBuffer {
	return &WriteBuffer{capacity: entries}
}

func (w *WriteBuffer) reap(now sim.Time) {
	i := 0
	for i < len(w.drains) && w.drains[i] <= now {
		i++
	}
	if i > 0 {
		w.drains = append(w.drains[:0], w.drains[i:]...)
	}
}

// Push records a write whose bus drain completes at drainEnd. It returns
// the cycles the processor must stall first because the buffer was full.
func (w *WriteBuffer) Push(now, drainEnd sim.Time) (stall sim.Time) {
	w.reap(now)
	if len(w.drains) >= w.capacity {
		stall = w.drains[0] - now
		w.Stalls++
		w.StallCycles += stall
		now = w.drains[0]
		w.reap(now)
	}
	w.drains = append(w.drains, drainEnd)
	return stall
}

// Pending returns the number of in-flight entries at time now.
func (w *WriteBuffer) Pending(now sim.Time) int {
	w.reap(now)
	return len(w.drains)
}

// Node is one workstation's memory system. The computation processor,
// the protocol controller (through the PCI bridge), and incoming network
// DMA all contend for MemBus; controller/network traffic additionally
// occupies PCIBus.
type Node struct {
	ID  int
	Cfg *params.Config
	Eng *sim.Engine

	Cache *Cache
	TLB   *TLB
	WB    *WriteBuffer

	MemBus sim.Resource
	PCIBus sim.Resource
}

// NewNode builds the memory system for node id.
func NewNode(id int, cfg *params.Config, eng *sim.Engine) *Node {
	return &Node{
		ID:     id,
		Cfg:    cfg,
		Eng:    eng,
		Cache:  NewCache(cfg.CacheSize, cfg.CacheLineSize),
		TLB:    NewTLB(cfg.TLBSize),
		WB:     NewWriteBuffer(cfg.WriteBufferSize),
		MemBus: sim.Resource{Name: "membus"},
		PCIBus: sim.Resource{Name: "pcibus"},
	}
}

// DMA occupies the PCI bus and the memory bus for an n-byte transfer
// between the controller (or network interface) and main memory, in
// engine context, returning the completion time. The two buses pipeline:
// completion is bounded by the slower of the two.
func (n *Node) DMA(bytes int) sim.Time {
	_, pciEnd := n.PCIBus.Reserve(n.Eng, n.Cfg.PCIBlockTime(bytes))
	_, memEnd := n.MemBus.Reserve(n.Eng, n.Cfg.MemBlockTime(bytes))
	if pciEnd > memEnd {
		return pciEnd
	}
	return memEnd
}

// MemTouch occupies only the memory bus for an n-byte transfer in engine
// context (processor-side protocol software touching memory), returning
// the completion time.
func (n *Node) MemTouch(bytes int) sim.Time {
	_, end := n.MemBus.Reserve(n.Eng, n.Cfg.MemBlockTime(bytes))
	return end
}

// InvalidatePage models the processor snoop invalidating all cached lines
// of the page containing addr after the controller wrote it.
func (n *Node) InvalidatePage(pageAddr Addr) {
	n.Cache.InvalidateRange(pageAddr, n.Cfg.PageSize)
}
