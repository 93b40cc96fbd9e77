package tmk

import (
	"fmt"
	"sort"

	"dsm96/internal/controller"
	"dsm96/internal/lrc"
	"dsm96/internal/memsys"
	"dsm96/internal/network"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/stats"
	"dsm96/internal/timeline"
	"dsm96/internal/trace"
)

// Page access states.
const (
	stInvalid = iota
	stRO
	stRW
)

// Stall/accounting reasons (mapped to the paper's categories by
// CategoryFor).
const (
	reasonInterrupt = "interrupt"
	reasonFetch     = "page-fetch"
	reasonTwin      = "twin"
	reasonLock      = "lock"
	reasonLockGrant = "lock-grant"
	reasonBarrier   = "barrier"
	reasonPrefetch  = "prefetch-issue"
	reasonSteal     = "ipc-steal"
)

// Misc protocol software costs (cycles).
const (
	localLockCost       = 20 // re-acquiring a cached lock token
	homeForwardCost     = 50 // home-node lock request redirection
	writeFaultSetupCost = 50 // protection change + bookkeeping (HW-diff path)
	requestWireBytes    = 40 // control message size
)

// CategoryFor maps a stall reason to the paper's time category.
func CategoryFor(reason string) stats.Category {
	switch reason {
	case memsys.ReasonBusy:
		return stats.Busy
	case memsys.ReasonTLBFill, memsys.ReasonCacheMiss, memsys.ReasonWBFull, reasonInterrupt:
		return stats.Other
	case reasonFetch, reasonTwin:
		return stats.Data
	case reasonLock, reasonLockGrant, reasonBarrier, reasonPrefetch:
		return stats.Synch
	case reasonSteal:
		return stats.IPC
	}
	return stats.Other
}

// fetchOp tracks one in-flight page update (demand fetch or prefetch).
type fetchOp struct {
	gate        sim.Gate
	prefetch    bool
	outstanding int
	diffs       []*lrc.Diff
	// op is the causal span riding the fetch (nil when spans are off).
	// Demand ops are closed by the waiter in processor context; prefetch
	// ops are closed when the apply finishes.
	op *spans.Op
	// replied marks the owners whose reply has been integrated (bitmask,
	// one word per 64 nodes), so a duplicated diff reply cannot
	// double-count against outstanding and complete the fetch early.
	replied []uint64
}

// markReplied records owner's reply, returning false if it had already
// replied (the arrival is a duplicate).
func (f *fetchOp) markReplied(owner int) bool {
	w, bit := owner/64, uint64(1)<<(owner%64)
	for len(f.replied) <= w {
		f.replied = append(f.replied, 0)
	}
	if f.replied[w]&bit != 0 {
		return false
	}
	f.replied[w] |= bit
	return true
}

// page is one node's view of one shared page.
type page struct {
	state int
	// twin is the live software twin (nil when none / in HW-diff mode).
	twin []byte
	// vecLive marks an active write bit vector baseline (HW-diff mode).
	vecLive bool
	// pending holds write notices not yet satisfied by diffs.
	pending []lrc.WriteNotice
	// applied[o] is the highest interval seq of owner o whose
	// modifications are reflected in the local copy.
	applied []int32
	// referenced records that this processor used the page (the
	// prefetch heuristic's "cached and referenced").
	referenced bool
	// fetch is the in-flight fetch, if any.
	fetch *fetchOp
	// firstIval is the oldest closed interval covering the current
	// twin/vector span (0 = none yet); it becomes the diff's OldSeq.
	firstIval int32
	// wordTag[w] is 1+index into tagVals of the span vector timestamp of
	// the writer whose value currently occupies word w (0 = never written
	// by an applied diff). Cumulative diffs can deliver data AHEAD of its
	// write notices; when the notices finally arrive and the old diffs are
	// fetched, these tags let the apply skip exactly the superseded words.
	// The indirection keeps the per-word array pointer-free for the GC.
	wordTag []int32
	tagVals []lrc.VTS
	// prefetchedUnused marks a completed prefetch not yet referenced;
	// if the page is invalidated in this state the prefetch was useless.
	prefetchedUnused bool
	// prefetchIssued is the simulated time the outstanding/last prefetch
	// was issued, for the prefetch-to-use distance statistic.
	prefetchIssued sim.Time
	// queuedPrefetch marks membership in the node's prefetch candidate
	// queue, to avoid duplicates.
	queuedPrefetch bool
	// uselessStreak counts consecutive useless prefetches of this page
	// (for the adaptive strategy); a useful prefetch or demand fault
	// resets it.
	uselessStreak int
}

// plock is one node's bookkeeping for one lock.
type plock struct {
	hasToken bool
	inCS     bool
	// next is a forwarded request waiting for this node's release.
	next *lockReq
	// tail is the distributed-queue tail pointer (home node only).
	tail int
	// gate releases the local acquirer when the grant arrives.
	gate *sim.Gate
}

type lockReq struct {
	from int
	vts  lrc.VTS
	// op is the requester's acquire span; it travels with the request
	// through forwarding and granting so every hop can mark milestones.
	op *spans.Op
}

// pnode is the per-node protocol state.
type pnode struct {
	id     int
	pr     *Protocol
	eng    *sim.Engine
	mem    *memsys.Node
	fp     *memsys.FastPath
	ctl    *controller.Controller
	st     *stats.ProcStats
	proc   *sim.Proc
	frames *lrc.Frames

	// degraded marks a controller failover: the node has permanently
	// fallen back to inline software protocol handling (see degrade.go).
	degraded   bool
	degradedAt sim.Time

	// cpu is the computation processor's interrupt-service timeline:
	// incoming protocol work reserves it; the application absorbs any
	// accumulated backlog as IPC time at its next operation.
	cpu sim.Resource

	vts lrc.VTS
	// noticed[o] is the highest interval seq of owner o whose write
	// notices this node has processed (always trails or equals vts[o]).
	noticed []int32
	ivals   [][]*lrc.Interval // ivals[o][s-1] = interval s of owner o
	// pages[pg] is this node's view of page pg (nil until first touched);
	// page numbers are dense, so a slice beats a map on the fault path.
	pages []*page
	// dirty is the set of pages with a live twin / write vector; each
	// interval this node closes carries write notices for all of them.
	dirty     map[int]bool
	diffCache map[int][]*lrc.Diff
	locks     map[int]*plock
	// sorter and ownerScratch are per-node working storage for the fault
	// path (diff topological sort, pending-owner dedup); at most one
	// fault transaction per node is in these phases at a time, so the
	// buffers are reused across faults instead of allocated per message.
	sorter       diffSorter
	ownerScratch []int
	// prefetchQueue lists pages invalidated since the last acquire, in
	// invalidation order (deterministic).
	prefetchQueue []int
	// lastBarrierVTS is the global vector timestamp of the last barrier
	// this node left: at the next arrival it ships every interval (of
	// any owner) beyond it, so the manager's knowledge is always
	// causally closed — vts entries it absorbs always come with records.
	lastBarrierVTS lrc.VTS
	// barrierGate releases the node from the current barrier.
	barrierGate *sim.Gate
	// barrierOp is the node's in-flight barrier span, so the manager's
	// release path can mark milestones on it.
	barrierOp *spans.Op
}

// Protocol is a TreadMarks DSM instance over a simulated machine.
type Protocol struct {
	cfg  *params.Config
	eng  *sim.Engine
	net  *network.Network
	heap *lrc.Heap
	mode Mode

	nodes []*pnode
	bars  map[int]*barrier
	opts  Options
	// profiles[pg] is page pg's activity profile, nil until the page is
	// first touched.
	profiles []*stats.PageProfile

	// tracer, when set, records structured protocol events.
	tracer *trace.Buffer
	// rec, when set, records per-node phase spans and controller
	// occupancy (see SetTimeline). Nil for ordinary runs: InstallProc
	// then installs the plain accounting hook, so a disabled timeline is
	// structurally absent from the schedule-critical path.
	rec *timeline.Recorder
	// sp, when set, collects causal operation spans (see SetSpans).
	sp *spans.Tracker
}

// New builds the protocol for the machine described by cfg.
func New(cfg *params.Config, eng *sim.Engine, net *network.Network, mode Mode) *Protocol {
	pr := &Protocol{
		cfg:  cfg,
		eng:  eng,
		net:  net,
		heap: lrc.NewHeap(cfg.PageSize),
		mode: mode,
		bars: make(map[int]*barrier),
	}
	for i := 0; i < cfg.Processors; i++ {
		mem := memsys.NewNode(i, cfg, eng)
		n := &pnode{
			id:             i,
			pr:             pr,
			eng:            eng,
			mem:            mem,
			fp:             memsys.NewFastPath(mem),
			st:             &stats.ProcStats{},
			frames:         lrc.NewFrames(cfg.PageSize),
			cpu:            sim.Resource{Name: fmt.Sprintf("cpu%d", i)},
			vts:            lrc.NewVTS(cfg.Processors),
			lastBarrierVTS: lrc.NewVTS(cfg.Processors),
			noticed:        make([]int32, cfg.Processors),
			ivals:          make([][]*lrc.Interval, cfg.Processors),
			dirty:          make(map[int]bool),

			diffCache: make(map[int][]*lrc.Diff),
			locks:     make(map[int]*plock),
		}
		if mode.Ctrl() {
			n.ctl = controller.New(i, cfg, mem)
		}
		pr.nodes = append(pr.nodes, n)
	}
	return pr
}

// Mode returns the overlap variant.
func (pr *Protocol) Mode() Mode { return pr.mode }

// Heap implements dsm.System.
func (pr *Protocol) Heap() *lrc.Heap { return pr.heap }

// Procs implements dsm.System.
func (pr *Protocol) Procs() int { return pr.cfg.Processors }

// InstallProc binds processor id's sim.Proc and its accounting hook.
// Must be called before the proc body issues any DSM operation.
func (pr *Protocol) InstallProc(id int, p *sim.Proc) {
	n := pr.nodes[id]
	n.proc = p
	st := n.st
	if rec, sp := pr.rec, pr.sp; rec != nil || sp != nil {
		// Observability on: mirror every charge as a span on the node's
		// timeline track and/or onto the node's current operation span.
		// The stall window is exactly [now-waited, now), so per-category
		// sums reconcile with the Breakdown by construction. Both
		// receivers are nil-safe, so one closure serves any combination.
		p.OnUnblock = func(reason string, waited sim.Time) {
			c := CategoryFor(reason)
			st.Add(c, waited)
			rec.Stall(id, reason, p.Now()-waited, p.Now())
			sp.Charge(id, c, waited, p.Now())
		}
		return
	}
	p.OnUnblock = func(reason string, waited sim.Time) {
		st.Add(CategoryFor(reason), waited)
	}
}

// NodeStats returns processor id's accounting.
func (pr *Protocol) NodeStats(id int) *stats.ProcStats { return pr.nodes[id].st }

// profile returns the activity record for a page.
func (pr *Protocol) profile(pg int) *stats.PageProfile {
	p := lrc.PageEntry(&pr.profiles, pg)
	if *p == nil {
		*p = &stats.PageProfile{Page: pg}
	}
	return *p
}

// PageProfiles implements stats.PageProfiler: per-page activity in page
// order.
func (pr *Protocol) PageProfiles() []stats.PageProfile {
	var out []stats.PageProfile
	for _, p := range pr.profiles {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Breakdown assembles the run's aggregate result.
func (pr *Protocol) Breakdown(runningTime sim.Time) *stats.Breakdown {
	b := &stats.Breakdown{RunningTime: runningTime}
	for _, n := range pr.nodes {
		if n.degraded && runningTime > n.degradedAt {
			n.st.DegradedNodeCycles = uint64(runningTime - n.degradedAt)
		}
		b.PerProc = append(b.PerProc, n.st)
	}
	return b
}

// FinishProc flushes processor id's lazily accumulated busy time at the
// end of its body so accounting matches wall time.
func (pr *Protocol) FinishProc(id int, p *sim.Proc) { pr.nodes[id].fp.Flush(p) }

func (n *pnode) page(pg int) *page {
	pe := lrc.PageEntry(&n.pages, pg)
	if *pe == nil {
		*pe = &page{state: stRO, applied: make([]int32, n.pr.cfg.Processors)}
	}
	return *pe
}

// tag returns word w's supersession tag (nil if untagged).
func (pe *page) tag(w int32) lrc.VTS {
	if pe.wordTag == nil || pe.wordTag[w] == 0 {
		return nil
	}
	return pe.tagVals[pe.wordTag[w]-1]
}

// tagIndex interns a writer-knowledge vector for setTagIdx. Callers tag
// whole runs of words with the same vector (all words of one diff), so
// interning it once and storing a compact index per word keeps wordTag
// pointer-free and 6x smaller than storing the VTS slice header per word.
func (pe *page) tagIndex(v lrc.VTS) int32 {
	pe.tagVals = append(pe.tagVals, v)
	return int32(len(pe.tagVals))
}

// setTagIdx records word w's writer-knowledge vector by interned index.
func (pe *page) setTagIdx(w, idx int32, pageWords int) {
	if pe.wordTag == nil {
		pe.wordTag = make([]int32, pageWords)
	}
	pe.wordTag[w] = idx
}

// setTag records word w's writer-knowledge vector (single-word
// convenience; loops should intern once with tagIndex).
func (pe *page) setTag(w int32, v lrc.VTS, pageWords int) {
	pe.setTagIdx(w, pe.tagIndex(v), pageWords)
}

func (n *pnode) lock(l int) *plock {
	lk, ok := n.locks[l]
	if !ok {
		lk = &plock{}
		home := l % n.pr.cfg.Processors
		if n.id == home {
			lk.hasToken = true // the home node starts with the token
			lk.tail = home
		}
		n.locks[l] = lk
	}
	return lk
}

// absorbSteal makes the application pay for interrupt service that has
// backed up on its processor (charged as IPC), and bounds the lazy-busy
// drift so shared-resource timestamps stay accurate.
func (n *pnode) absorbSteal(p *sim.Proc) {
	if n.fp.Pending() > 1000 {
		n.fp.Flush(p)
	}
	if f := n.cpu.FreeAt(); f > p.Now() {
		n.fp.Flush(p)
		if f = n.cpu.FreeAt(); f > p.Now() {
			p.SleepReason(f-p.Now(), reasonSteal)
		}
	}
}

// writeThrough reports whether shared writes use the write-through path
// (required for the controller's snoop in HW-diff mode). A degraded
// node reverts to write-back: new twins are software twins, so nothing
// needs the snoop — except pages whose vector was armed before the
// failover, which access special-cases (the snoop is passive hardware
// and survives the controller core's crash).
func (n *pnode) writeThrough() bool { return n.pr.mode.HWDiff() && !n.degraded }

// access performs the protocol checks for one shared reference of `size`
// bytes (4 or 8) at addr. For writes, commit stores the value into the
// local frame and is invoked at the instant the page is confirmed
// writable — BEFORE the memory-system timing, which can yield to engine
// events: a diff created while the write's bus/buffer time elapses must
// already see the new value (on real hardware the store retires before
// any later protection downgrade).
func (n *pnode) access(p *sim.Proc, addr int64, write bool, size int, commit func()) {
	n.absorbSteal(p)
	pg := n.pr.cfg.PageOf(addr)
	pe := n.page(pg)
	for i := 0; pe.state == stInvalid || (write && pe.state != stRW); i++ {
		if i > 64 {
			panic(fmt.Sprintf("tmk: node %d page %d fault livelock", n.id, pg))
		}
		n.fault(p, pg, pe, write)
	}
	pe.referenced = true
	if pe.prefetchedUnused {
		pe.prefetchedUnused = false
		n.st.UsefulPrefetch++
		pe.uselessStreak = 0
		n.st.PrefetchUseCycles += uint64(p.Now() - pe.prefetchIssued)
		n.st.PrefetchUseCount++
	}
	if write {
		if n.id < 64 {
			n.pr.profile(pg).Writers |= 1 << uint(n.id)
		}
		commit()
		if n.writeThrough() || pe.vecLive {
			// vecLive after a failover: the page's modifications are
			// tracked only by its write vector, so writes must keep
			// feeding the (still-functional, passive) snoop until the
			// vector is retired into a diff.
			n.ctl.SnoopWrite(addr)
			if size == 8 {
				n.ctl.SnoopWrite(addr + 4)
			}
			n.fp.WriteThrough(p, addr, n.st)
		} else {
			n.fp.WriteBack(p, addr, n.st)
		}
	} else {
		if n.id < 64 {
			n.pr.profile(pg).Readers |= 1 << uint(n.id)
		}
		n.fp.Read(p, addr, n.st)
	}
}

// Read32 implements dsm.System.
func (pr *Protocol) Read32(p *sim.Proc, id int, addr int64) uint32 {
	n := pr.nodes[id]
	n.access(p, addr, false, 4, nil)
	return n.frames.ReadU32(addr)
}

// Write32 implements dsm.System.
func (pr *Protocol) Write32(p *sim.Proc, id int, addr int64, v uint32) {
	n := pr.nodes[id]
	n.access(p, addr, true, 4, func() { n.frames.WriteU32(addr, v) })
}

// Read64 implements dsm.System.
func (pr *Protocol) Read64(p *sim.Proc, id int, addr int64) uint64 {
	n := pr.nodes[id]
	n.access(p, addr, false, 8, nil)
	return n.frames.ReadU64(addr)
}

// Write64 implements dsm.System.
func (pr *Protocol) Write64(p *sim.Proc, id int, addr int64, v uint64) {
	n := pr.nodes[id]
	n.access(p, addr, true, 8, func() { n.frames.WriteU64(addr, v) })
}

// Compute implements dsm.System: private computation of the given cost.
func (pr *Protocol) Compute(p *sim.Proc, id int, cycles sim.Time) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.AddBusy(cycles)
}

// sortedDirty returns the dirty-page set in deterministic order.
func (n *pnode) sortedDirty() []int {
	out := make([]int, 0, len(n.dirty))
	for pg := range n.dirty {
		out = append(out, pg)
	}
	sort.Ints(out)
	return out
}

// sendFromProc transmits a message from processor context: the sender
// pays the network-interface setup on its CPU (Base/P) or hands the send
// to its controller (I variants). deliver runs in engine context at dst.
func (n *pnode) sendFromProc(p *sim.Proc, reason string, dst, bytes int, deliver func()) {
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	if n.ctrlOK() {
		p.SleepReason(n.pr.cfg.CommandIssueCost, reason)
		n.ctl.SubmitSend(n.eng, n.pr.net, dst, bytes, deliver,
			func() { n.softWireSend(dst, bytes, deliver) })
		return
	}
	p.SleepReason(n.pr.cfg.MessagingOverhead, reason)
	n.pr.net.SendReliable(n.id, dst, bytes, 0, deliver)
}

// sendAsync transmits from engine context (replies, forwards): on Base/P
// the CPU pays the messaging overhead (reserving the interrupt timeline);
// on I variants the controller does.
func (n *pnode) sendAsync(dst, bytes int, deliver func()) {
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	if n.ctrlOK() {
		n.ctl.SubmitSend(n.eng, n.pr.net, dst, bytes, deliver,
			func() { n.softWireSend(dst, bytes, deliver) })
		return
	}
	n.softWireSend(dst, bytes, deliver)
}

// serveCPU reserves `cost` cycles (plus interrupt entry) on the
// computation processor's interrupt timeline and runs fn when the work
// completes. Used for protocol actions that must run on the processor.
func (n *pnode) serveCPU(cost sim.Time, fn func()) {
	n.st.Interrupts++
	total := n.pr.cfg.InterruptTime + cost
	_, end := n.cpu.Reserve(n.eng, total)
	n.eng.At(end, fn)
}

// serveCPUSpan is serveCPU plus span milestones: the service window's
// start closes the operation's queueing stage, its end the remote
// stage. The milestones are eagerly stamped with the reservation's
// (future) times; spans.End sorts before partitioning, so this is safe.
func (n *pnode) serveCPUSpan(cost sim.Time, op *spans.Op, fn func()) {
	n.st.Interrupts++
	total := n.pr.cfg.InterruptTime + cost
	start, end := n.cpu.Reserve(n.eng, total)
	op.Mark(spans.StageQueue, start)
	op.Mark(spans.StageRemote, end)
	n.eng.At(end, fn)
}
