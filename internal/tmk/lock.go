package tmk

import (
	"dsm96/internal/controller"
	"dsm96/internal/lrc"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/trace"
)

// Lock implements dsm.System: a TreadMarks lock acquire. Locks form a
// distributed queue: the statically assigned home node redirects each
// request to the previous requester; the token (and the consistency
// information) travels directly from releaser to acquirer. The grant
// message carries every interval the acquirer has not seen; processing it
// invalidates the pages those intervals wrote (lazy release consistency:
// invalidation at acquire, data on demand at fault).
func (pr *Protocol) Lock(p *sim.Proc, id int, lock int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	n.st.LockAcquires++
	lk := n.lock(lock)
	op := pr.sp.Begin(id, spans.OpLock, lock, p.Now())
	if lk.hasToken && !lk.inCS && lk.next == nil {
		// Token cached locally: reacquire without messages. The whole
		// span is local work (StageUnblock).
		lk.inCS = true
		p.SleepReason(localLockCost, reasonLock)
		n.emit(-1, trace.KindLock, "acquired lock=%d (cached token)", lock)
		pr.sp.End(op, p.Now())
		return
	}
	gate := &sim.Gate{}
	lk.gate = gate
	home := lock % pr.cfg.Processors
	req := lockReq{from: id, vts: n.vts.Clone(), op: op}
	n.sendFromProc(p, reasonLock, home, requestWireBytes+n.vts.WireBytes(), func() {
		pr.nodes[home].homeForward(lock, req)
	})
	gate.Wait(p, reasonLock)
	pr.sp.End(op, p.Now())
	if pr.mode.Prefetch() {
		n.issuePrefetches(p)
	}
}

// homeForward redirects a lock request to the tail of the distributed
// queue (engine context at the home node).
func (n *pnode) homeForward(lock int, req lockReq) {
	// Request on the home's wire; forwarding hops extend StageWire via
	// the next milestone's gap.
	req.op.Mark(spans.StageWire, n.eng.Now())
	lk := n.lock(lock)
	prev := lk.tail
	lk.tail = req.from
	forward := func() {
		n.pr.nodes[prev].receiveLockReq(lock, req)
	}
	localFwd := func() {
		n.st.Interrupts++
		_, end := n.cpu.Reserve(n.eng, n.pr.cfg.InterruptTime+homeForwardCost)
		n.eng.At(end, forward)
	}
	remoteFwd := func() {
		n.st.Interrupts++
		_, end := n.cpu.Reserve(n.eng, n.pr.cfg.InterruptTime+homeForwardCost)
		n.eng.At(end, func() {
			n.sendAsync(prev, requestWireBytes+req.vts.WireBytes(), forward)
		})
	}
	if prev == n.id {
		// The home itself is the previous owner: handle locally after
		// the bookkeeping cost.
		if n.ctrlOK() {
			n.ctl.Submit(n.eng, &sim.Job{Name: "lock-fwd", Service: homeForwardCost, Done: forward},
				func() { n.st.CtrlFallbackJobs++; localFwd() })
		} else {
			localFwd()
		}
		return
	}
	if n.ctrlOK() {
		n.ctl.Submit(n.eng, &sim.Job{
			Name:    "lock-fwd",
			Service: homeForwardCost + n.pr.cfg.MessagingOverhead,
			Done: func() {
				n.st.MsgsSent++
				n.st.BytesSent += uint64(requestWireBytes + req.vts.WireBytes())
				n.pr.net.SendReliable(n.id, prev, requestWireBytes+req.vts.WireBytes(), 0, forward)
			},
		}, func() { n.st.CtrlFallbackJobs++; remoteFwd() })
		return
	}
	remoteFwd()
}

// receiveLockReq lands a forwarded request at the previous queue tail
// (engine context). If that node holds a free token the grant goes out
// now; otherwise the request waits for the node's release (or for its own
// pending grant to arrive).
func (n *pnode) receiveLockReq(lock int, req lockReq) {
	req.op.Mark(spans.StageQueue, n.eng.Now())
	lk := n.lock(lock)
	if lk.hasToken && !lk.inCS {
		lk.hasToken = false
		n.grantLockAsync(lock, req)
		return
	}
	lk.next = &req
}

// grantLockAsync grants from engine context (release already happened, or
// the releaser was interrupted by the forwarded request): interval and
// write-notice processing interrupt the computation processor; the send
// goes through the mode's message path.
func (n *pnode) grantLockAsync(lock int, req lockReq) {
	n.closeInterval()
	n.emit(-1, trace.KindLock, "grant lock=%d to=%d", lock, req.from)
	ivs := n.missingIntervals(req.vts, req.from)
	piggy, piggyBytes := n.hybridDiffs(req.vts, ivs)
	bytes := requestWireBytes + n.vts.WireBytes() + intervalsWireBytes(ivs, n.pr.cfg.Processors) + piggyBytes
	grantVTS := n.vts.Clone()
	requester := n.pr.nodes[req.from]
	n.serveCPUSpan(n.listCost(ivs), req.op, func() {
		n.sendAsync(req.from, bytes, func() {
			requester.receiveGrant(lock, ivs, grantVTS, piggy, req.op)
		})
	})
}

// grantLockFromProc grants during Unlock, in the releasing processor's
// context: the processing is synchronization overhead of the releaser.
func (n *pnode) grantLockFromProc(p *sim.Proc, lock int, req lockReq) {
	n.closeInterval()
	n.emit(-1, trace.KindLock, "grant lock=%d to=%d", lock, req.from)
	ivs := n.missingIntervals(req.vts, req.from)
	piggy, piggyBytes := n.hybridDiffs(req.vts, ivs)
	bytes := requestWireBytes + n.vts.WireBytes() + intervalsWireBytes(ivs, n.pr.cfg.Processors) + piggyBytes
	grantVTS := n.vts.Clone()
	requester := n.pr.nodes[req.from]
	p.SleepReason(n.listCost(ivs), reasonLockGrant)
	n.sendFromProc(p, reasonLockGrant, req.from, bytes, func() {
		requester.receiveGrant(lock, ivs, grantVTS, piggy, req.op)
	})
	// Everything since the request queued here — waiting out the
	// critical section plus the grant assembly just charged — was
	// remote service from the acquirer's point of view.
	req.op.Mark(spans.StageRemote, p.Now())
}

// hybridDiffs collects the granter's own diffs for the pages its shipped
// intervals invalidate — the Lazy Hybrid piggyback (nil when disabled).
// Flushing the live twin costs what an on-demand diff would; the saving
// is the acquirer's avoided fault round trip.
func (n *pnode) hybridDiffs(reqVTS lrc.VTS, ivs []*lrc.Interval) ([]*lrc.Diff, int) {
	if !n.pr.opts.LazyHybrid {
		return nil, 0
	}
	var out []*lrc.Diff
	bytes := 0
	seen := map[int]bool{}
	for _, iv := range ivs {
		if iv.Owner != n.id {
			continue // only the releaser's own data is up-to-date here
		}
		for _, pg := range iv.Pages {
			if seen[pg] {
				continue
			}
			seen[pg] = true
			if n.dirty[pg] {
				n.flushLocalDiff(pg)
			}
			for _, d := range n.diffCache[pg] {
				if d.Seq > reqVTS[n.id] {
					out = append(out, d)
					bytes += d.WireBytes(n.pr.cfg.PageWords())
				}
			}
		}
	}
	return out, bytes
}

// receiveGrant completes an acquire at the requester (engine context):
// the processor walks the intervals and write notices, invalidating
// pages, then enters the critical section.
func (n *pnode) receiveGrant(lock int, ivs []*lrc.Interval, grantVTS lrc.VTS, piggy []*lrc.Diff, op *spans.Op) {
	if n.lock(lock).gate == nil {
		// No acquire is waiting: a duplicated grant already handed us the
		// token. Re-applying it would corrupt the distributed queue (and
		// re-integrate intervals).
		n.st.DupMsgsSuppressed++
		return
	}
	op.Mark(spans.StageReply, n.eng.Now())
	cost := n.pr.cfg.InterruptTime + n.listCost(ivs)
	if len(piggy) > 0 {
		words := 0
		for _, d := range piggy {
			words += d.Len()
		}
		cost += controller.SoftDiffApplyCost(n.pr.cfg, words)
	}
	_, end := n.cpu.Reserve(n.eng, cost)
	n.eng.At(end, func() {
		lk := n.lock(lock)
		if lk.gate == nil {
			// A twin of this grant was applied while we sat in the
			// interrupt queue.
			n.st.DupMsgsSuppressed++
			return
		}
		n.integrate(ivs)
		n.vts.Max(grantVTS)
		n.checkVTSRecords("receiveGrant")
		n.applyPiggyback(piggy)
		lk.hasToken = true
		lk.inCS = true
		op.Mark(spans.StageController, n.eng.Now())
		n.emit(-1, trace.KindLock, "acquired lock=%d ivs=%d", lock, len(ivs))
		lk.gate.Open(n.eng)
		lk.gate = nil
	})
}

// Unlock implements dsm.System: release the lock; if a requester is
// queued here, close the interval and pass token + consistency data on.
func (pr *Protocol) Unlock(p *sim.Proc, id int, lock int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	lk := n.lock(lock)
	if !lk.inCS {
		panic("tmk: Unlock without matching Lock")
	}
	lk.inCS = false
	n.emit(-1, trace.KindLock, "release lock=%d", lock)
	if lk.next != nil {
		req := *lk.next
		lk.next = nil
		lk.hasToken = false
		// The grant work blocks the releaser, not the acquirer: it gets
		// its own span so its Synch charges reconcile.
		rop := pr.sp.Begin(id, spans.OpRelease, lock, p.Now())
		n.grantLockFromProc(p, lock, req)
		pr.sp.End(rop, p.Now())
	}
}
