package aurc

import (
	"math/bits"

	"dsm96/internal/sim"
	"dsm96/internal/trace"
)

// updateHeaderBytes is the wire header of one automatic-update message.
const updateHeaderBytes = 8

// wcEntry is one write-cache entry: pending updates for one 32-byte block
// destined to one node, with a bit per word.
type wcEntry struct {
	dst   int
	block int64 // block-aligned address
	mask  uint8 // words 0..7 of the block
}

// writeCache models the Shrimp network interface's combining write cache:
// consecutive updates to the same block merge into one entry; when the
// cache overflows, the oldest entry is flushed onto the network as an
// automatic-update message. The sender's processor does not participate —
// that is the whole point of automatic updates — but the messages compete
// for link bandwidth with everything else.
type writeCache struct {
	n       *anode
	cap     int
	entries []wcEntry // FIFO order
}

func newWriteCache(n *anode, capacity int) *writeCache {
	return &writeCache{n: n, cap: capacity}
}

// add records a write of `size` bytes at addr destined to dst.
func (w *writeCache) add(p *sim.Proc, dst int, addr int64, size int) {
	w.addWord(p, dst, addr)
	if size == 8 {
		w.addWord(p, dst, addr+4)
	}
}

func (w *writeCache) addWord(p *sim.Proc, dst int, addr int64) {
	block := addr &^ 31
	bit := uint8(1) << uint((addr%32)/4)
	for i := range w.entries {
		e := &w.entries[i]
		if e.dst == dst && e.block == block {
			e.mask |= bit
			return
		}
	}
	if len(w.entries) >= w.cap {
		oldest := w.entries[0]
		copy(w.entries, w.entries[1:])
		w.entries = w.entries[:len(w.entries)-1]
		w.flushEntry(oldest)
	}
	w.entries = append(w.entries, wcEntry{dst: dst, block: block, mask: bit})
}

// flushAll drains the cache (done at releases and barriers so that the
// flush timestamps cover every update of the closing interval).
func (w *writeCache) flushAll() {
	entries := w.entries
	w.entries = w.entries[:0]
	for _, e := range entries {
		w.flushEntry(e)
	}
}

// flushEntry injects one automatic-update message. Values are captured
// from the sender's memory at flush time (combining semantics); the
// destination applies them on arrival and advances its arrival counter,
// which drain waiters (flush/lock timestamp checks) observe.
func (w *writeCache) flushEntry(e wcEntry) {
	n := w.n
	cfg := n.pr.cfg
	words := bits.OnesCount8(e.mask)
	bytes := updateHeaderBytes + 4*words
	// Capture the current values.
	type upd struct {
		addr int64
		val  uint32
	}
	var ups []upd
	for i := 0; i < 8; i++ {
		if e.mask&(1<<uint(i)) != 0 {
			a := e.block + int64(4*i)
			ups = append(ups, upd{a, n.frames.ReadU32(a)})
		}
	}
	dst := n.pr.nodes[e.dst]
	n.updatesSent[e.dst]++
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	pg := cfg.PageOf(e.block)
	n.emit(pg, trace.KindUpdate, "flush dst=%d words=%d", e.dst, words)
	n.pr.net.SendReliable(n.id, e.dst, bytes, cfg.AURCUpdateOverhead, func() {
		for _, u := range ups {
			dst.frames.WriteU32(u.addr, u.val)
		}
		// The receiving node's memory system absorbs the update and its
		// processor snoop invalidates stale cached lines.
		dst.mem.DMA(bytes)
		dst.mem.Cache.InvalidateRange(e.block, 32)
		dst.updatesArrived++
		dst.emit(pg, trace.KindUpdate, "apply from=%d words=%d", n.id, words)
		dst.checkDrainWaiters()
	})
}

// inflightTo returns how many update messages are bound for node d right
// now (sent minus arrived).
func (pr *Protocol) inflightTo(d int) uint64 {
	var sent uint64
	for _, n := range pr.nodes {
		sent += n.updatesSent[d]
	}
	return sent - pr.nodes[d].updatesArrived
}

// waitUpdatesDrained invokes fn once every update currently in flight
// toward this node has arrived (the flush-timestamp check a page fault
// performs before using home/partner data). Engine context.
func (n *anode) waitUpdatesDrained(fn func()) {
	var sent uint64
	for _, o := range n.pr.nodes {
		sent += o.updatesSent[n.id]
	}
	if n.updatesArrived >= sent {
		fn()
		return
	}
	n.drainWaiters = append(n.drainWaiters, &drainWaiter{need: sent, fn: fn})
}

func (n *anode) checkDrainWaiters() {
	kept := n.drainWaiters[:0]
	for _, w := range n.drainWaiters {
		if n.updatesArrived >= w.need {
			n.pr.eng.After(0, w.fn)
		} else {
			kept = append(kept, w)
		}
	}
	n.drainWaiters = kept
}
