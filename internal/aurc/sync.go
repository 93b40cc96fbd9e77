package aurc

import (
	"fmt"
	"sort"

	"dsm96/internal/lrc"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/trace"
)

// AURC uses the same interval / write-notice machinery as lazy release
// consistency, but without diffs: a release flushes the write cache (so
// the home nodes hold the interval's modifications) and a notice obliges
// the receiver to refetch the page from its home. The lock and barrier
// structures mirror the TreadMarks implementation (distributed lock queue
// with a static home; centralized barrier manager), with all protocol
// software on the computation processor — AURC's hardware is the
// automatic-update network interface, not a protocol controller.

// closeInterval ends the current interval if this node wrote anything,
// flushing the write cache so the flush timestamps cover the interval.
func (n *anode) closeInterval() *lrc.Interval {
	n.wc.flushAll()
	if len(n.written) == 0 {
		return nil
	}
	pages := n.written
	n.written = nil
	sort.Ints(pages)
	for _, pg := range pages {
		n.pages[pg].written = false
	}
	seq := n.vts[n.id] + 1
	iv := &lrc.Interval{Owner: n.id, Seq: seq, VTS: n.vts.Clone(), Pages: pages}
	iv.VTS[n.id] = seq
	n.vts[n.id] = seq
	n.ivals[n.id] = append(n.ivals[n.id], iv)
	return iv
}

func (n *anode) storeInterval(iv *lrc.Interval) {
	have := int32(len(n.ivals[iv.Owner]))
	switch {
	case iv.Seq <= have:
		return
	case iv.Seq == have+1:
		n.ivals[iv.Owner] = append(n.ivals[iv.Owner], iv)
	default:
		panic(fmt.Sprintf("aurc: node %d got interval (%d,%d) with only %d stored",
			n.id, iv.Owner, iv.Seq, have))
	}
}

// integrate applies a batch of interval records: invalidate named pages
// (the next access refetches from the home after the update drain) and
// absorb the vector timestamps.
func (n *anode) integrate(ivs []*lrc.Interval) {
	for _, iv := range ivs {
		n.storeInterval(iv)
		if iv.Owner == n.id {
			continue
		}
		// As in the TreadMarks implementation: an interval's notices are
		// skipped only if actually processed before — the vector
		// timestamp can run ahead within a batch and must not be used.
		if iv.Seq <= n.noticed[iv.Owner] {
			continue
		}
		for _, pg := range iv.Pages {
			pe := n.page(pg)
			if pe.applied[iv.Owner] >= iv.Seq {
				continue
			}
			pe.pending = append(pe.pending, lrc.WriteNotice{Page: pg, Owner: iv.Owner, Seq: iv.Seq})
			if pe.state != stInvalid {
				pe.state = stInvalid
				n.pr.profile(pg).Invalidations++
				if pe.prefetchedUnused {
					pe.prefetchedUnused = false
					n.st.UselessPrefetch++
				}
				if n.pr.prefetch && !pe.queuedPrefetch {
					pe.queuedPrefetch = true
					n.prefetchQueue = append(n.prefetchQueue, pg)
				}
			}
		}
		n.noticed[iv.Owner] = iv.Seq
		n.vts.Max(iv.VTS)
	}
}

func (n *anode) missingIntervals(have lrc.VTS, exclude int) []*lrc.Interval {
	var out []*lrc.Interval
	for o := 0; o < len(n.vts); o++ {
		if o == exclude {
			continue
		}
		for s := have[o] + 1; s <= n.vts[o]; s++ {
			out = append(out, n.ivals[o][s-1])
		}
	}
	return out
}

func intervalsWireBytes(ivs []*lrc.Interval, nprocs int) int {
	bytes := 16
	for _, iv := range ivs {
		bytes += 16 + 4*nprocs + lrc.WriteNoticeWireBytes*len(iv.Pages)
	}
	return bytes
}

func (n *anode) listCost(ivs []*lrc.Interval) int64 {
	total := len(ivs)
	for _, iv := range ivs {
		total += len(iv.Pages)
	}
	return n.pr.cfg.ListProcessing * int64(total)
}

// Lock implements dsm.System (same distributed-queue shape as the
// TreadMarks implementation).
func (pr *Protocol) Lock(p *sim.Proc, id int, lock int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	n.st.LockAcquires++
	op := pr.sp.Begin(id, spans.OpLock, lock, p.Now())
	lk := n.lock(lock)
	if lk.hasToken && !lk.inCS && lk.next == nil {
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
	if pr.prefetch {
		n.issuePrefetches(p)
	}
}

func (n *anode) homeForward(lock int, req lockReq) {
	req.op.Mark(spans.StageWire, n.pr.eng.Now())
	lk := n.lock(lock)
	prev := lk.tail
	lk.tail = req.from
	forward := func() { n.pr.nodes[prev].receiveLockReq(lock, req) }
	n.st.Interrupts++
	_, end := n.cpu.Reserve(n.pr.eng, n.pr.cfg.InterruptTime+homeForwardCost)
	if prev == n.id {
		n.pr.eng.At(end, forward)
		return
	}
	n.pr.eng.At(end, func() {
		n.sendAsync(prev, requestWireBytes+req.vts.WireBytes(), forward)
	})
}

func (n *anode) receiveLockReq(lock int, req lockReq) {
	req.op.Mark(spans.StageQueue, n.pr.eng.Now())
	lk := n.lock(lock)
	if lk.hasToken && !lk.inCS {
		lk.hasToken = false
		n.grantLockAsync(lock, req)
		return
	}
	lk.next = &req
}

func (n *anode) grantLockAsync(lock int, req lockReq) {
	n.closeInterval()
	ivs := n.missingIntervals(req.vts, req.from)
	bytes := requestWireBytes + n.vts.WireBytes() + intervalsWireBytes(ivs, n.pr.cfg.Processors)
	grantVTS := n.vts.Clone()
	requester := n.pr.nodes[req.from]
	n.emit(-1, trace.KindLock, "grant lock=%d to=%d ivs=%d", lock, req.from, len(ivs))
	n.serveCPUSpan(n.listCost(ivs), req.op, func() {
		n.sendAsync(req.from, bytes, func() {
			requester.receiveGrant(lock, ivs, grantVTS, req.op)
		})
	})
}

func (n *anode) grantLockFromProc(p *sim.Proc, lock int, req lockReq) {
	n.closeInterval()
	ivs := n.missingIntervals(req.vts, req.from)
	bytes := requestWireBytes + n.vts.WireBytes() + intervalsWireBytes(ivs, n.pr.cfg.Processors)
	grantVTS := n.vts.Clone()
	requester := n.pr.nodes[req.from]
	n.emit(-1, trace.KindLock, "grant lock=%d to=%d ivs=%d", lock, req.from, len(ivs))
	p.SleepReason(n.listCost(ivs), reasonLockGrant)
	n.sendFromProc(p, reasonLockGrant, req.from, bytes, func() {
		requester.receiveGrant(lock, ivs, grantVTS, req.op)
	})
	// From the acquirer's point of view the cycles up to here — waiting
	// out the holder's critical section and the grant assembly — are all
	// remote service.
	req.op.Mark(spans.StageRemote, p.Now())
}

func (n *anode) receiveGrant(lock int, ivs []*lrc.Interval, grantVTS lrc.VTS, op *spans.Op) {
	if n.lock(lock).gate == nil {
		// No acquire is waiting: a duplicated grant already handed us the
		// token (see the TreadMarks twin of this guard).
		n.st.DupMsgsSuppressed++
		return
	}
	op.Mark(spans.StageReply, n.pr.eng.Now())
	cost := n.pr.cfg.InterruptTime + n.listCost(ivs)
	_, end := n.cpu.Reserve(n.pr.eng, cost)
	n.pr.eng.At(end, func() {
		lk := n.lock(lock)
		if lk.gate == nil {
			n.st.DupMsgsSuppressed++
			return
		}
		n.integrate(ivs)
		n.vts.Max(grantVTS)
		lk.hasToken = true
		lk.inCS = true
		op.Mark(spans.StageController, n.pr.eng.Now())
		n.emit(-1, trace.KindLock, "acquired lock=%d ivs=%d", lock, len(ivs))
		lk.gate.Open(n.pr.eng)
		lk.gate = nil
	})
}

// Unlock implements dsm.System.
func (pr *Protocol) Unlock(p *sim.Proc, id int, lock int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	lk := n.lock(lock)
	if !lk.inCS {
		panic("aurc: Unlock without matching Lock")
	}
	// A release must flush the write cache even when nobody waits: the
	// flush timestamps sent across active links cover this interval.
	n.wc.flushAll()
	lk.inCS = false
	n.emit(-1, trace.KindLock, "release lock=%d", lock)
	if lk.next != nil {
		req := *lk.next
		lk.next = nil
		lk.hasToken = false
		rop := pr.sp.Begin(id, spans.OpRelease, lock, p.Now())
		n.grantLockFromProc(p, lock, req)
		pr.sp.End(rop, p.Now())
	}
}

// barrier is the centralized manager state.
type barrier struct {
	arrived   int
	clientVTS []lrc.VTS
}

const barrierManager = 0

func (pr *Protocol) barrierState(id int) *barrier {
	b, ok := pr.bars[id]
	if !ok {
		b = &barrier{clientVTS: make([]lrc.VTS, pr.cfg.Processors)}
		pr.bars[id] = b
	}
	return b
}

// Barrier implements dsm.System.
func (pr *Protocol) Barrier(p *sim.Proc, id int, bar int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	n.st.Barriers++
	op := pr.sp.Begin(id, spans.OpBarrier, bar, p.Now())
	n.barrierOp = op
	n.emit(-1, trace.KindBarrier, "arrive bar=%d", bar)
	n.closeInterval()
	// Ship everything the manager could lack (causally closed batch, as
	// in the TreadMarks implementation).
	own := n.missingIntervals(n.lastBarrierVTS, barrierManager)
	myVTS := n.vts.Clone()
	gate := &sim.Gate{}
	n.barrierGate = gate
	mgr := pr.nodes[barrierManager]
	if id == barrierManager {
		p.SleepReason(n.listCost(own), reasonBarrier)
		mgr.barrierArrive(bar, id, myVTS, own)
	} else {
		bytes := requestWireBytes + myVTS.WireBytes() + intervalsWireBytes(own, pr.cfg.Processors)
		n.sendFromProc(p, reasonBarrier, barrierManager, bytes, func() {
			op.Mark(spans.StageWire, pr.eng.Now())
			mgr.barrierArrive(bar, id, myVTS, own)
		})
	}
	gate.Wait(p, reasonBarrier)
	n.barrierOp = nil
	n.emit(-1, trace.KindBarrier, "depart bar=%d", bar)
	pr.sp.End(op, p.Now())
	if pr.prefetch {
		n.issuePrefetches(p)
	}
}

func (n *anode) barrierArrive(bar, from int, vts lrc.VTS, ivs []*lrc.Interval) {
	b := n.pr.barrierState(bar)
	work := func() {
		n.integrate(ivs)
		b.clientVTS[from] = vts
		b.arrived++
		if b.arrived == n.pr.cfg.Processors {
			b.arrived = 0
			n.barrierReleaseAll(b)
		}
	}
	if from == n.id {
		work()
		return
	}
	n.serveCPU(n.listCost(ivs), work)
}

func (n *anode) barrierReleaseAll(b *barrier) {
	globalVTS := n.vts.Clone()
	for c := 0; c < n.pr.cfg.Processors; c++ {
		client := n.pr.nodes[c]
		ivs := n.missingIntervals(b.clientVTS[c], c)
		if c == n.id {
			client.barrierRelease(ivs, globalVTS, true)
			continue
		}
		bytes := requestWireBytes + globalVTS.WireBytes() + intervalsWireBytes(ivs, n.pr.cfg.Processors)
		cv := globalVTS.Clone()
		cl, civs := client, ivs
		n.sendAsync(c, bytes, func() {
			cl.barrierRelease(civs, cv, false)
		})
	}
}

func (n *anode) barrierRelease(ivs []*lrc.Interval, globalVTS lrc.VTS, local bool) {
	n.barrierOp.Mark(spans.StageRemote, n.pr.eng.Now())
	finish := func() {
		n.integrate(ivs)
		n.vts.Max(globalVTS)
		n.lastBarrierVTS = globalVTS.Clone()
		if n.barrierGate != nil {
			n.barrierOp.Mark(spans.StageController, n.pr.eng.Now())
			g := n.barrierGate
			n.barrierGate = nil
			g.Open(n.pr.eng)
		}
	}
	cost := n.listCost(ivs)
	if !local {
		cost += n.pr.cfg.InterruptTime
	}
	_, end := n.cpu.Reserve(n.pr.eng, cost)
	n.pr.eng.At(end, finish)
}
