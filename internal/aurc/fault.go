package aurc

import (
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/trace"
)

// fault brings an invalid page back. AURC has no diffs: the faulting
// processor waits until every automatic update currently in flight toward
// the data holder has drained (the flush/lock-timestamp check), then
// fetches the whole page from the home node or pairwise partner.
func (n *anode) fault(p *sim.Proc, pg int, pe *page, d *pageDir) {
	n.fp.Flush(p)
	p.SleepReason(n.pr.cfg.InterruptTime, reasonInterrupt)
	n.st.PageFaults++
	n.pr.profile(pg).Faults++
	n.emit(pg, trace.KindFault, "pending=%d", len(pe.pending))
	// The span opens after the trap, so its window is exactly the cycles
	// the fetch blocks the processor — one span per page fault, so span
	// counts equal the PageFaults counter.
	op := n.pr.sp.Begin(n.id, spans.OpReadFault, pg, p.Now())
	if f := pe.fetch; f != nil {
		if f.prefetch {
			n.st.UsefulPrefetch++
			f.prefetch = false
		}
		f.gate.Wait(p, reasonFetch)
		// The whole wait rode a transaction someone else started
		// (typically a prefetch): attribute it to remote service.
		op.Mark(spans.StageRemote, p.Now())
		n.pr.sp.End(op, p.Now())
		return
	}
	f := &fetchOp{op: op}
	pe.fetch = f
	n.startFetch(p, pg, pe, d, f)
	f.gate.Wait(p, reasonFetch)
	n.pr.sp.End(op, p.Now())
}

// startFetch launches the page transaction; p is the requesting
// processor when called from processor context, nil from engine context.
// It never blocks; completion opens f.gate.
func (n *anode) startFetch(p *sim.Proc, pg int, pe *page, d *pageDir, f *fetchOp) {
	f.snap = n.vts.Clone()
	src := d.source(n.id)
	if src < 0 || src == n.id {
		// This node is the data holder (home or pairwise member): its
		// copy is correct once in-flight updates have landed.
		n.waitUpdatesDrained(func() {
			// The whole wait was draining in-flight updates: the remote
			// writers' traffic is the "service" this fetch waited on.
			f.op.Mark(spans.StageRemote, n.pr.eng.Now())
			n.completeFetch(pg, pe, f)
		})
		return
	}
	holder := n.pr.nodes[src]
	reason := reasonFetch
	if f.prefetch {
		reason = reasonPrefetch
	}
	// Flush our own write cache first: any of our updates still buffered
	// (or in flight) must reach the holder before it captures the page,
	// or the incoming copy would clobber them. The holder's update drain
	// covers them once they are on the wire.
	n.wc.flushAll()
	deliver := func() {
		holder.servePageReq(n.id, pg, f)
	}
	if p != nil {
		n.sendFromProc(p, reason, src, requestWireBytes, deliver)
	} else {
		n.sendAsync(src, requestWireBytes, deliver)
	}
}

// servePageReq services a whole-page fetch at the data holder: the
// processor is interrupted (page requests — and particularly prefetch
// floods — need processor intervention, which is why prefetching hurts
// AURC), in-flight updates toward the holder drain, the page streams off
// memory, and the reply carries the full page.
func (n *anode) servePageReq(from, pg int, f *fetchOp) {
	cfg := n.pr.cfg
	requester := n.pr.nodes[from]
	// The request is off the wire; the serve window closes the queueing
	// stage and opens remote service.
	f.op.Mark(spans.StageWire, n.pr.eng.Now())
	n.serveCPUSpan(pageReqCost, f.op, func() {
		n.waitUpdatesDrained(func() {
			// Capture the page at this instant. The drain extended the
			// remote stage to here.
			f.op.Mark(spans.StageRemote, n.pr.eng.Now())
			data := append([]byte(nil), n.frames.Page(pg)...)
			n.mem.MemTouch(cfg.PageSize)
			bytes := updateHeaderBytes + cfg.PageSize
			n.sendAsync(from, bytes, func() {
				requester.receivePage(pg, data, f)
			})
		})
	})
}

// receivePage lands the page at the requester.
func (n *anode) receivePage(pg int, data []byte, f *fetchOp) {
	pe := n.page(pg)
	if pe.fetch != f {
		// Duplicated (or stale) page reply: its fetch already completed —
		// re-copying the snapshot would clobber updates applied since.
		n.st.DupMsgsSuppressed++
		return
	}
	f.op.Mark(spans.StageReply, n.pr.eng.Now())
	n.frames.CopyPage(pg, data)
	n.mem.DMA(len(data))
	n.mem.InvalidatePage(int64(pg) * int64(n.pr.cfg.PageSize))
	n.completeFetch(pg, pe, f)
}

// completeFetch finalizes: everything known as of the fault-time vector
// timestamp is now reflected locally.
func (n *anode) completeFetch(pg int, pe *page, f *fetchOp) {
	for o := range pe.applied {
		if f.snap[o] > pe.applied[o] {
			pe.applied[o] = f.snap[o]
		}
	}
	kept := pe.pending[:0]
	for _, wn := range pe.pending {
		if pe.applied[wn.Owner] < wn.Seq {
			kept = append(kept, wn)
		}
	}
	pe.pending = kept
	if len(pe.pending) == 0 {
		pe.state = stValid
		pe.prefetchedUnused = f.prefetch
	}
	pe.fetch = nil
	// A prefetch span closes when the page lands (nobody is waiting);
	// demand spans close in the waiter's proc context.
	if f.op != nil && f.op.Kind == spans.OpPrefetch {
		n.pr.sp.End(f.op, n.pr.eng.Now())
	}
	f.gate.Open(n.pr.eng)
}

// issuePrefetches mirrors the TreadMarks heuristic: after an acquire or
// barrier, fetch the invalidated pages this processor had cached and
// referenced. AURC prefetches whole pages from their homes; the home
// processor must service every one of them.
func (n *anode) issuePrefetches(p *sim.Proc) {
	queue := n.prefetchQueue
	n.prefetchQueue = nil
	for _, pg := range queue {
		pe := n.page(pg)
		pe.queuedPrefetch = false
		if pe.state != stInvalid || !pe.referenced || pe.fetch != nil {
			continue
		}
		d := n.pr.pageDir(pg)
		n.st.Prefetches++
		n.emit(pg, trace.KindPrefetch, "issue home=%d", d.home)
		// The prefetch gets its own span: issue overheads charge to it,
		// then it detaches and the span window is the flight time that
		// overlap accounting credits as hidden.
		op := n.pr.sp.Begin(n.id, spans.OpPrefetch, pg, p.Now())
		f := &fetchOp{prefetch: true, op: op}
		pe.fetch = f
		n.startFetch(p, pg, pe, d, f)
		n.pr.sp.Detach(n.id, op)
	}
}
