package tmk

import (
	"dsm96/internal/lrc"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/trace"
)

// barrier is the centralized barrier manager's state (it lives on the
// manager node, here node 0, as in TreadMarks).
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

// Barrier implements dsm.System. Arrival closes the node's current
// interval and ships its new intervals (write notices) to the manager;
// once everyone has arrived, the manager broadcasts to each node all the
// intervals it has not seen, along with the global vector timestamp.
// Processing the release invalidates the pages those intervals wrote.
func (pr *Protocol) Barrier(p *sim.Proc, id int, bar int) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.Flush(p)
	n.st.Barriers++
	op := pr.sp.Begin(id, spans.OpBarrier, bar, p.Now())
	n.barrierOp = op
	n.emit(-1, trace.KindBarrier, "arrive bar=%d", bar)
	n.closeInterval()

	// Ship every interval (any owner) the manager could lack: everything
	// this node learned since the last barrier's global timestamp. The
	// batch is causally closed, so the manager's vector timestamp never
	// outruns its interval records — even when it grants locks while the
	// barrier is still filling.
	own := n.missingIntervals(n.lastBarrierVTS, barrierManager)
	myVTS := n.vts.Clone()

	gate := &sim.Gate{}
	n.barrierGate = gate
	mgr := pr.nodes[barrierManager]
	if id == barrierManager {
		// Local arrival: pay the list-processing cost inline.
		p.SleepReason(n.listCost(own), reasonBarrier)
		mgr.barrierArrive(bar, id, myVTS, own)
	} else {
		bytes := requestWireBytes + myVTS.WireBytes() + intervalsWireBytes(own, pr.cfg.Processors)
		n.sendFromProc(p, reasonBarrier, barrierManager, bytes, func() {
			// Delivery context: the manager's clock, not the sender's.
			op.Mark(spans.StageWire, mgr.eng.Now())
			mgr.barrierArrive(bar, id, myVTS, own)
		})
	}
	gate.Wait(p, reasonBarrier)
	n.barrierOp = nil
	n.emit(-1, trace.KindBarrier, "depart bar=%d", bar)
	pr.sp.End(op, p.Now())
	if pr.mode.Prefetch() {
		n.issuePrefetches(p)
	}
}

// barrierArrive processes one client's arrival at the manager (engine
// context on the manager node; interval merging is "complicated"
// protocol work and interrupts the computation processor in every mode).
func (n *pnode) barrierArrive(bar, from int, vts lrc.VTS, ivs []*lrc.Interval) {
	b := n.pr.barrierState(bar)
	work := func() {
		n.integrate(ivs)
		b.clientVTS[from] = vts
		b.arrived++
		if b.arrived == n.pr.cfg.Processors {
			b.arrived = 0
			n.barrierReleaseAll(bar, b)
		}
	}
	if from == n.id {
		// The manager's own arrival was already charged in Barrier.
		work()
		return
	}
	n.serveCPU(n.listCost(ivs), work)
}

// barrierReleaseAll broadcasts the release: each client receives the
// intervals it lacks plus the global vector timestamp.
func (n *pnode) barrierReleaseAll(bar int, b *barrier) {
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

// barrierRelease lands the release at a client: the processor walks the
// interval/notice lists, invalidates, adopts the global vector timestamp,
// and leaves the barrier.
func (n *pnode) barrierRelease(ivs []*lrc.Interval, globalVTS lrc.VTS, local bool) {
	// Everything up to the release landing — shipping the arrival,
	// waiting for the stragglers, the manager's merge — was remote
	// service as far as this node's span is concerned.
	n.barrierOp.Mark(spans.StageRemote, n.eng.Now())
	finish := func() {
		n.integrate(ivs)
		n.vts.Max(globalVTS)
		n.lastBarrierVTS = globalVTS.Clone()
		n.checkVTSRecords("barrierRelease")
		if n.barrierGate != nil {
			n.barrierOp.Mark(spans.StageController, n.eng.Now())
			g := n.barrierGate
			n.barrierGate = nil
			g.Open(n.eng)
		}
	}
	cost := n.listCost(ivs)
	if !local {
		cost += n.pr.cfg.InterruptTime
	}
	_, end := n.cpu.Reserve(n.eng, cost)
	n.eng.At(end, finish)
}
