package tmk

import (
	"encoding/binary"
	"sort"

	"dsm96/internal/trace"

	"dsm96/internal/controller"
	"dsm96/internal/lrc"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
)

// fault handles an access violation: an invalid page is brought
// up-to-date by collecting diffs from previous writers; a read-only page
// being written is twinned (or put under the write bit vector) and made
// writable. Runs in processor context; the caller re-checks the state
// afterwards (an in-flight fetch can race with fresh invalidations).
func (n *pnode) fault(p *sim.Proc, pg int, pe *page, write bool) {
	n.fp.Flush(p)
	// Kernel trap entry/exit: the paper accounts interrupt time under
	// "others".
	p.SleepReason(n.pr.cfg.InterruptTime, reasonInterrupt)
	if pe.state == stInvalid {
		n.st.PageFaults++
		n.pr.profile(pg).Faults++
		n.emit(pg, trace.KindFault, "read/write miss (pending=%d)", len(pe.pending))
		pe.uselessStreak = 0 // demand interest: the page is hot again
		// The span opens after the trap, so its window is exactly the
		// cycles the fetch blocks the processor — one span per page
		// fault, so span counts equal the PageFaults counter.
		op := n.pr.sp.Begin(n.id, spans.OpReadFault, pg, p.Now())
		if f := pe.fetch; f != nil {
			// A prefetch (or another thread of protocol activity) is
			// already fetching this page: do not fetch again, wait for
			// its completion (Section 3.1's status bits).
			if f.prefetch {
				n.st.UsefulPrefetch++
				n.st.PrefetchUseCycles += uint64(p.Now() - pe.prefetchIssued)
				n.st.PrefetchUseCount++
				f.prefetch = false // consumed by demand before completion
			}
			f.gate.Wait(p, reasonFetch)
			// The whole wait rode a transaction someone else started
			// (typically a prefetch): attribute it to remote service.
			op.Mark(spans.StageRemote, p.Now())
			n.pr.sp.End(op, p.Now())
			return
		}
		n.demandFetch(p, pg, pe, op)
		n.pr.sp.End(op, p.Now())
		return
	}
	if write && pe.state == stRO {
		n.st.WriteFaults++
		n.pr.profile(pg).WriteFaults++
		op := n.pr.sp.Begin(n.id, spans.OpWriteFault, pg, p.Now())
		n.makeWritable(p, pg, pe, op)
		// Twin setup is completion-side work wherever it ran; anything
		// the controller path has not already claimed lands here too.
		op.Mark(spans.StageController, p.Now())
		n.pr.sp.End(op, p.Now())
	}
}

// demandFetch collects the diffs named by the page's pending write
// notices from each previous writer and applies them. The faulting
// processor stalls for the whole transaction (data fetch latency).
func (n *pnode) demandFetch(p *sim.Proc, pg int, pe *page, op *spans.Op) {
	owners := pendingByOwner(pe, n.ownerScratch)
	n.ownerScratch = owners
	if len(owners) == 0 {
		// No outstanding writer (e.g. raced with a completed fetch).
		pe.state = stRO
		return
	}
	f := &fetchOp{outstanding: len(owners), op: op}
	pe.fetch = f
	for _, o := range owners {
		owner := n.pr.nodes[o]
		fromSeq := pe.applied[o]
		n.sendFromProc(p, reasonFetch, o, requestWireBytes, func() {
			owner.serveDiffReq(n.id, pg, fromSeq, false, op)
		})
	}
	f.gate.Wait(p, reasonFetch)
}

// makeWritable prepares a read-only page for local writes.
func (n *pnode) makeWritable(p *sim.Proc, pg int, pe *page, op *spans.Op) {
	cfg := n.pr.cfg
	switch {
	case n.pr.mode.HWDiff() && !n.degraded:
		// No twin: clear the page's write vector to establish a fresh
		// baseline and flip the protection. The write-through snoop
		// records modifications from here on.
		n.ctl.Vector(pg).Clear()
		pe.vecLive = true
		p.SleepReason(writeFaultSetupCost, reasonTwin)
	case n.ctrlOK():
		// The controller copies the page into its DRAM as the twin; the
		// processor must wait (the write cannot proceed before the
		// snapshot exists), but spends no instructions on the copy.
		n.st.TwinsCreated++
		pe.twin = append([]byte(nil), n.frames.Page(pg)...)
		done := &sim.Gate{}
		n.ctl.Submit(n.eng, &sim.Job{
			Name: "twin",
			Run: func() sim.Time {
				op.Mark(spans.StageQueue, n.eng.Now())
				end := n.mem.DMA(cfg.PageSize)
				base := cfg.CtrlDispatchCost
				if d := end - n.eng.Now(); d > base {
					return d
				}
				return base
			},
			Done: func() { done.Open(n.eng) },
		}, func() {
			// Swallowed by a dead controller: redo the copy in software
			// (the functional snapshot above is still valid — nothing has
			// written the page; the waiter is parked on the gate).
			n.st.CtrlFallbackJobs++
			cost := controller.TwinCost(cfg)
			n.st.DiffCycles += cost
			_, end := n.cpu.Reserve(n.eng, cost)
			if m := n.mem.MemTouch(2 * cfg.PageSize); m > end {
				end = m
			}
			n.eng.At(end, func() { done.Open(n.eng) })
		})
		p.SleepReason(cfg.CommandIssueCost, reasonTwin)
		done.Wait(p, reasonTwin)
	default:
		// Software twin on the computation processor: 5 cycles/word plus
		// the memory traffic of copying the page.
		n.st.TwinsCreated++
		pe.twin = append([]byte(nil), n.frames.Page(pg)...)
		cost := controller.TwinCost(cfg)
		n.st.DiffCycles += cost
		memEnd := n.mem.MemTouch(2 * cfg.PageSize)
		p.SleepReason(cost, reasonTwin)
		if d := memEnd - p.Now(); d > 0 {
			p.SleepReason(d, reasonTwin)
		}
	}
	if pe.state == stInvalid {
		// A write notice arrived while the twin was being set up: the
		// snapshot is for a page that just went stale. Drop it (no write
		// has happened since) and let the fault loop fetch and retry.
		pe.twin = nil
		pe.vecLive = false
		delete(n.dirty, pg)
		n.emit(pg, trace.KindOther, "twin aborted by invalidation")
		return
	}
	n.emit(pg, trace.KindWritable, "twin=%v vec=%v", pe.twin != nil, pe.vecLive)
	pe.state = stRW
	n.dirty[pg] = true
}

// createDiffFunctional snapshots the page's modifications into a diff,
// caches it, retires the twin / write vector, and write-protects the
// page. State changes are immediate; the caller charges the time.
// Returns the diff and, for the HW path, the number of words the DMA
// scan cost depends on.
func (n *pnode) createDiffFunctional(pg int) *lrc.Diff {
	pe := n.page(pg)
	frame := n.frames.Page(pg)
	var d *lrc.Diff
	if pe.vecLive {
		// Keyed on the page's own baseline, not the mode: in HW-diff mode
		// every dirty page is vector-armed, and after a failover this
		// salvages pages armed before the crash (the passive snoop kept
		// their vectors accurate) while post-failover pages carry twins.
		vec := n.ctl.Vector(pg)
		d = lrc.DiffFromVector(pg, vec, frame)
		vec.Clear()
		pe.vecLive = false
	} else {
		d = lrc.CreateDiff(pg, pe.twin, frame)
		pe.twin = nil
	}
	if n.degraded {
		n.st.SoftwareFallbackDiffs++
	}
	d.Owner = n.id
	d.Seq = n.vts[n.id] // the latest closed interval covers these writes
	d.OldSeq = pe.firstIval
	if d.OldSeq == 0 {
		d.OldSeq = d.Seq
	}
	d.VTS = n.ivals[n.id][d.OldSeq-1].VTS
	pe.firstIval = 0
	n.diffCache[pg] = append(n.diffCache[pg], d)
	delete(n.dirty, pg)
	if pe.state == stRW {
		pe.state = stRO
	}
	n.st.DiffsCreated++
	n.emit(pg, trace.KindDiffCreate, "seq=%d..%d words=%d", d.OldSeq, d.Seq, d.Len())
	return d
}

// flushLocalDiff retires the page's live twin / write vector into a
// cached diff (nil if the page is clean here). An interval is closed
// first when (a) no closed interval lists the page yet or (b) a diff
// tagged with the current interval already exists — re-using a tag would
// hide the new diff from every requester that already consumed that
// sequence number, silently losing the writes made since. It also
// returns whether the diff came from a write vector — the DMA-vs-
// software cost split the controller charging paths branch on — and,
// for the vector case, the bit-vector population the DMA cost depends
// on.
func (n *pnode) flushLocalDiff(pg int) (d *lrc.Diff, words int, usedVector bool) {
	if !n.dirty[pg] {
		return nil, 0, false
	}
	needClose := n.vts[n.id] == 0 || len(n.ivals[n.id]) == 0 ||
		!containsPage(n.ivals[n.id][n.vts[n.id]-1].Pages, pg)
	if !needClose {
		if cached := n.diffCache[pg]; len(cached) > 0 && cached[len(cached)-1].Seq == n.vts[n.id] {
			needClose = true
		}
	}
	if needClose {
		n.closeInterval()
	}
	if usedVector = n.page(pg).vecLive; usedVector {
		words = n.ctl.Vector(pg).Count()
	}
	return n.createDiffFunctional(pg), words, usedVector
}

// serveDiffReq services a diff request arriving at this (owner) node in
// engine context: gather cached diffs newer than fromSeq, creating the
// final one on demand if the page is still being written, then reply.
//
// Base/P: the computation processor is interrupted and does everything
// (IPC overhead at this node, per the paper). I variants: the processor
// is interrupted only for interval processing; diff generation and the
// reply send run on the controller (hardware DMA in D variants).
// Prefetch requests carry low priority on the controller so demand
// requests overtake them.
func (n *pnode) serveDiffReq(from, pg int, fromSeq int32, isPrefetch bool, op *spans.Op) {
	n.emit(pg, trace.KindOther, "serve from=%d fromSeq=%d dirty=%v cached=%d", from, fromSeq, n.dirty[pg], len(n.diffCache[pg]))
	cfg := n.pr.cfg
	// The request is off the wire: everything since the previous
	// milestone (the issue) was network time.
	op.Mark(spans.StageWire, n.eng.Now())

	created, createCostWords, createdFromVec := n.flushLocalDiff(pg)
	var reply []*lrc.Diff
	for _, d := range n.diffCache[pg] {
		if d.Seq > fromSeq {
			reply = append(reply, d)
		}
	}
	bytes := 16
	totalWords := 0
	for _, d := range reply {
		bytes += d.WireBytes(cfg.PageWords())
		totalWords += d.Len()
	}
	requester := n.pr.nodes[from]
	// upToSeq is captured NOW: the reply covers this node's writes up to
	// its current latest closed interval. (Evaluating vts lazily in the
	// delivery closure would overclaim coverage if this node closes more
	// intervals while the reply is in flight, making the requester skip
	// later write notices and read stale data.)
	upToSeq := n.vts[n.id]
	owner := n.id
	deliver := func() {
		requester.receiveDiffReply(pg, owner, reply, upToSeq)
	}

	if !n.ctrlOK() {
		// Everything on the computation processor (Base/P, or a degraded
		// node whose controller died).
		cost := cfg.ListProcessing * int64(1+len(reply))
		if created != nil {
			c := controller.SoftDiffCreateCost(cfg)
			cost += c
			n.st.DiffCycles += c
			n.mem.MemTouch(2 * cfg.PageSize)
		}
		n.serveCPUSpan(cost, op, func() { n.sendAsync(from, bytes, deliver) })
		return
	}

	// I variants: brief processor interrupt for interval processing...
	n.serveCPUSpan(cfg.ListProcessing*int64(1+len(reply)), op, func() {})
	// ...then the controller does the data movement and the send.
	prio := sim.PriorityHigh
	if isPrefetch && !n.pr.opts.NoPrefetchPriority {
		prio = sim.PriorityLow
	}
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	n.ctl.Submit(n.eng, &sim.Job{
		Name:     "diff-serve",
		Priority: prio,
		Run: func() sim.Time {
			op.Mark(spans.StageQueue, n.eng.Now())
			cost := cfg.CtrlDispatchCost
			if created != nil {
				if createdFromVec {
					cost += cfg.DMADiffTime(createCostWords, cfg.PageWords())
					n.mem.DMA(4 * createCostWords)
				} else {
					cost += controller.SoftDiffCreateCost(cfg)
					n.mem.DMA(cfg.PageSize)
				}
			}
			cost += cfg.MessagingOverhead
			n.mem.DMA(bytes) // stream the reply out through the PCI bus
			return cost
		},
		Done: func() {
			op.Mark(spans.StageRemote, n.eng.Now())
			n.pr.net.SendReliable(n.id, from, bytes, 0, deliver)
		},
	}, func() {
		// Swallowed command: the reply must still go out, but the
		// computation processor now pays for the diff creation and the
		// send (the interval processing interrupt already ran, and the
		// message counters were already bumped for this reply).
		n.st.CtrlFallbackJobs++
		cost := sim.Time(0)
		if created != nil {
			c := controller.SoftDiffCreateCost(cfg)
			cost += c
			n.st.DiffCycles += c
			n.mem.MemTouch(2 * cfg.PageSize)
		}
		n.serveCPUSpan(cost, op, func() { n.softWireSend(from, bytes, deliver) })
	})
}

func containsPage(pages []int, pg int) bool {
	for _, p := range pages {
		if p == pg {
			return true
		}
	}
	return false
}

// receiveDiffReply handles one owner's reply at the faulting node, in
// engine context. When all owners have replied the diffs are ordered by
// the happened-before relation and applied to the page (and to a live
// twin, so local modifications stay separable).
func (n *pnode) receiveDiffReply(pg, owner int, diffs []*lrc.Diff, upToSeq int32) {
	pe := n.page(pg)
	f := pe.fetch
	if f == nil {
		return // stale reply (fetch already satisfied)
	}
	if !f.markReplied(owner) {
		// A duplicated reply must not double-decrement outstanding and
		// complete the fetch before the real missing owner answers.
		n.st.DupMsgsSuppressed++
		return
	}
	f.op.Mark(spans.StageReply, n.eng.Now())
	f.diffs = append(f.diffs, diffs...)
	if len(diffs) > 0 {
		if upToSeq > pe.applied[owner] {
			pe.applied[owner] = upToSeq
		}
	}
	f.outstanding--
	if f.outstanding > 0 {
		return
	}
	n.applyFetched(pg, pe, f)
}

// applyFetched incorporates all collected diffs and completes the fetch.
func (n *pnode) applyFetched(pg int, pe *page, f *fetchOp) {
	cfg := n.pr.cfg
	// A live local twin / write vector is retired into its own diff
	// BEFORE any remote data lands: diff spans must never cross an
	// incorporation of remote writes, or the span-based happened-before
	// ordering of diffs would be unsound (and the twin would start
	// disagreeing with the frame on remote words).
	localDiff, localWords, localFromVec := n.flushLocalDiff(pg)
	if localDiff != nil {
		// Our own just-flushed words reflect everything we have seen.
		idx := pe.tagIndex(n.vts.Clone())
		for _, w := range localDiff.Words {
			pe.setTagIdx(w, idx, cfg.PageWords())
		}
	}
	ordered := n.sorter.order(f.diffs)
	totalWords := 0
	bytes := 0
	frame := n.frames.Page(pg)
	for _, d := range ordered {
		n.emit(pg, trace.KindDiffApply, "owner=%d seq=%d..%d words=%d", d.Owner, d.OldSeq, d.Seq, d.Len())
		idx := pe.tagIndex(d.VTS)
		for i, w := range d.Words {
			// Skip words whose current writer had already seen this
			// diff's whole span: their value is strictly newer (data
			// that arrived ahead of its notices must not be clobbered
			// when the old diffs are eventually fetched).
			if t := pe.tag(w); t != nil && t.CoversEntry(d.Owner, d.OldSeq) {
				continue
			}
			binary.LittleEndian.PutUint32(frame[int(w)*4:], d.Data[i])
			pe.setTagIdx(w, idx, cfg.PageWords())
		}
		if d.Seq > pe.applied[d.Owner] {
			pe.applied[d.Owner] = d.Seq
		}
		totalWords += d.Len()
		bytes += d.WireBytes(cfg.PageWords())
		n.st.DiffsApplied++
		prof := n.pr.profile(pg)
		prof.DiffsApplied++
		prof.WordsApplied += uint64(d.Len())
	}
	prunePending(pe)
	finish := func() {
		// Local application done: the rest of the operation's window,
		// if any, is the waiter's wakeup.
		f.op.Mark(spans.StageController, n.eng.Now())
		// The processor snoops the controller's (or its own) writes to
		// local memory and invalidates stale cached lines.
		n.mem.InvalidatePage(int64(pg) * int64(cfg.PageSize))
		if len(pe.pending) == 0 {
			pe.state = stRO // a write fault re-protects and re-twins
			pe.prefetchedUnused = f.prefetch
		}
		// else: invalidated again while fetching; the waiter re-faults.
		pe.fetch = nil
		// A prefetch span closes when the page lands (nobody is
		// waiting); demand spans close in the waiter's proc context.
		if f.op != nil && f.op.Kind == spans.OpPrefetch {
			n.pr.sp.End(f.op, n.eng.Now())
		}
		f.gate.Open(n.eng)
	}
	softApply := func() {
		// The faulting processor flushes its own diff and applies the
		// incoming ones itself.
		cost := controller.SoftDiffApplyCost(cfg, totalWords)
		if localDiff != nil {
			cost += controller.SoftDiffCreateCost(cfg)
			n.mem.MemTouch(2 * cfg.PageSize)
		}
		n.st.DiffCycles += cost
		n.mem.MemTouch(bytes)
		start, end := n.cpu.Reserve(n.eng, cfg.InterruptTime+cost)
		f.op.Mark(spans.StageQueue, start)
		n.eng.At(end, finish)
	}
	if !n.ctrlOK() {
		softApply()
		return
	}
	prio := sim.PriorityHigh
	if f.prefetch && !n.pr.opts.NoPrefetchPriority {
		prio = sim.PriorityLow
	}
	n.ctl.Submit(n.eng, &sim.Job{
		Name:     "diff-apply",
		Priority: prio,
		Run: func() sim.Time {
			f.op.Mark(spans.StageQueue, n.eng.Now())
			n.mem.DMA(bytes)
			cost := cfg.CtrlDispatchCost
			if localDiff != nil {
				if localFromVec {
					cost += cfg.DMADiffTime(localWords, cfg.PageWords())
					n.mem.DMA(4 * localWords)
				} else {
					cost += controller.SoftDiffCreateCost(cfg)
					n.mem.DMA(cfg.PageSize)
				}
			}
			if n.pr.mode.HWDiff() {
				return cost + cfg.DMADiffTime(totalWords, cfg.PageWords())
			}
			return cost + controller.SoftDiffApplyCost(cfg, totalWords)
		},
		Done: finish,
	}, func() {
		n.st.CtrlFallbackJobs++
		softApply()
	})
}

// applyPiggyback incorporates diffs piggybacked on a lock grant (Lazy
// Hybrid): after the grant's write notices are integrated, the granter's
// own pages can be validated immediately instead of faulting later. Runs
// in engine context, after integrate; timing was charged by receiveGrant.
func (n *pnode) applyPiggyback(diffs []*lrc.Diff) {
	if len(diffs) == 0 {
		return
	}
	byPage := map[int][]*lrc.Diff{}
	var pages []int
	for _, d := range diffs {
		if len(byPage[d.Page]) == 0 {
			pages = append(pages, d.Page)
		}
		byPage[d.Page] = append(byPage[d.Page], d)
	}
	sort.Ints(pages)
	cfg := n.pr.cfg
	for _, pg := range pages {
		pe := n.page(pg)
		if pe.fetch != nil {
			continue // a fetch is in flight; let it finish authoritatively
		}
		n.flushLocalDiff(pg)
		frame := n.frames.Page(pg)
		for _, d := range n.sorter.order(byPage[pg]) {
			if d.Seq <= pe.applied[d.Owner] {
				continue
			}
			// Soundness gate: accepting this diff will mark everything up
			// to d.Seq as applied, so every pending notice it prunes must
			// actually be covered by the diff's span. The granter filters
			// by the requester's NOTICED horizon, which can run ahead of
			// its APPLIED horizon — a diff with a gap below its span must
			// be left for a demand fault to fetch the full history.
			covered := true
			for _, wn := range pe.pending {
				if wn.Owner == d.Owner && wn.Seq <= d.Seq && wn.Seq < d.OldSeq {
					covered = false
					break
				}
			}
			if !covered || d.OldSeq > pe.applied[d.Owner]+1 && !hasPendingAtLeast(pe, d.Owner, d.OldSeq) {
				continue
			}
			idx := pe.tagIndex(d.VTS)
			for i, w := range d.Words {
				if t := pe.tag(w); t != nil && t.CoversEntry(d.Owner, d.OldSeq) {
					continue
				}
				binary.LittleEndian.PutUint32(frame[int(w)*4:], d.Data[i])
				pe.setTagIdx(w, idx, cfg.PageWords())
			}
			if d.Seq > pe.applied[d.Owner] {
				pe.applied[d.Owner] = d.Seq
			}
			n.st.DiffsApplied++
		}
		n.mem.InvalidatePage(int64(pg) * int64(cfg.PageSize))
		prunePending(pe)
		if pe.state == stInvalid && len(pe.pending) == 0 {
			pe.state = stRO
		}
	}
}

// hasPendingAtLeast reports whether the page has a pending notice from
// owner at or above seq — evidence that the notice horizon reaches the
// diff's span, so the span's lower edge is the true resume point.
func hasPendingAtLeast(pe *page, owner int, seq int32) bool {
	for _, wn := range pe.pending {
		if wn.Owner == owner && wn.Seq >= seq {
			return true
		}
	}
	return false
}

// orderDiffs sorts diffs so that happened-before writers apply first;
// truly concurrent diffs (data-race-free programs make them
// word-disjoint) are ordered by owner for determinism. Selection-based
// topological sort — fault diff sets are small.
//
// The test uses each diff's span-start: because a diff span never crosses
// an incorporation of remote data (flushLocalDiff runs before any apply),
// a writer that overwrote another diff's word necessarily started its
// span after seeing that diff's span-start interval, so comparing b's
// span VTS against a's OldSeq orders every conflicting pair correctly.
func orderDiffs(diffs []*lrc.Diff) []*lrc.Diff {
	var s diffSorter
	return s.order(diffs)
}

// diffSorter holds orderDiffs's working storage so a node can reuse it
// across faults instead of allocating two slices per diff application.
// The returned ordering is only valid until the next order call; callers
// consume it synchronously.
type diffSorter struct {
	rest, out []*lrc.Diff
}

func (s *diffSorter) order(diffs []*lrc.Diff) []*lrc.Diff {
	rest := append(s.rest[:0], diffs...)
	out := s.out[:0]
	before := func(a, b *lrc.Diff) bool {
		return b.VTS != nil && b.VTS.CoversEntry(a.Owner, a.OldSeq)
	}
	for len(rest) > 0 {
		pick := -1
		for i, cand := range rest {
			ready := true
			for j, other := range rest {
				if i != j && before(other, cand) {
					ready = false
					break
				}
			}
			if ready {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0 // cycle cannot happen; defensive
		}
		out = append(out, rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
	}
	s.rest, s.out = rest[:0], out
	return out
}
