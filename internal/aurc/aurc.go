// Package aurc implements AURC: a software DSM based on Shrimp-style
// automatic updates and optimized pairwise sharing (Iftode et al., HPCA
// 1996), as evaluated in Section 5.2 of the paper.
//
// Differences from TreadMarks: there are no twins and no diffs. Shared
// writes are written through and the (simulated) network interface
// automatically propagates them — to the pairwise partner while a page is
// shared by two processors, or to the page's home node once the sharing
// set grows. Consecutive updates combine in a small write cache. Release
// consistency is maintained with the same interval/write-notice machinery
// as TreadMarks, but a page fault fetches the whole page from its home
// (or pairwise partner) after waiting for in-flight updates to drain
// (flush/lock timestamps).
package aurc

import (
	"fmt"

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
	stValid
)

// Stall/accounting reasons.
const (
	reasonInterrupt = "interrupt"
	reasonFetch     = "page-fetch"
	reasonLock      = "lock"
	reasonLockGrant = "lock-grant"
	reasonBarrier   = "barrier"
	reasonPrefetch  = "prefetch-issue"
	reasonSteal     = "ipc-steal"
)

const (
	localLockCost    = 20
	homeForwardCost  = 50
	requestWireBytes = 40
	pageReqCost      = 100 // home-side software to locate and map the page
)

// categoryFor maps stall reasons to the paper's categories (same mapping
// as TreadMarks).
func categoryFor(reason string) stats.Category {
	switch reason {
	case memsys.ReasonBusy:
		return stats.Busy
	case memsys.ReasonTLBFill, memsys.ReasonCacheMiss, memsys.ReasonWBFull, reasonInterrupt:
		return stats.Other
	case reasonFetch:
		return stats.Data
	case reasonLock, reasonLockGrant, reasonBarrier, reasonPrefetch:
		return stats.Synch
	case reasonSteal:
		return stats.IPC
	}
	return stats.Other
}

// sharing phase of a page.
const (
	phPrivate  = iota // at most one sharer
	phPairwise        // exactly two sharers, bi-directional mapping
	phHomed           // write-through to a home node by everyone
)

// pageDir is the global sharing directory entry for a page (kept by the
// home node in the real system; centralized here).
//
// The home is the page's first sharer and is stable for the page's
// lifetime: it receives every automatic update, so its copy is always
// complete and page fetches can always be served from it. While exactly
// two processors share the page, the mapping is bi-directional (the
// pairwise optimization: the home's writes are also propagated to the
// partner, so neither side ever page-faults). Once more processors join,
// the system reverts to write-through to the home by all (the paper's
// third-sharer replacement trick is an initialization-effect optimization
// we forgo: it would make a mid-join node the data source before its
// copy is complete — see DESIGN.md).
type pageDir struct {
	phase   int
	sharers []int // arrival order; sharers[0] is the home
	home    int
}

// routeTo returns where node id's writes to this page must be propagated
// (-1 for nowhere).
func (d *pageDir) routeTo(id int) int {
	if len(d.sharers) < 2 {
		return -1
	}
	if id != d.home {
		return d.home
	}
	if d.phase == phPairwise {
		// Bi-directional pairwise mapping: the home's writes flow to the
		// partner as well.
		if d.sharers[0] == id {
			return d.sharers[1]
		}
		return d.sharers[0]
	}
	return -1
}

// source returns the node a faulting processor fetches the page from
// (-1 when the faulting processor's own copy is authoritative).
func (d *pageDir) source(id int) int {
	if len(d.sharers) == 0 || d.home == id {
		return -1
	}
	return d.home
}

// page is one node's view of one page.
type page struct {
	state            int
	pending          []lrc.WriteNotice
	applied          []int32
	referenced       bool
	fetch            *fetchOp
	prefetchedUnused bool
	queuedPrefetch   bool
	// written marks the page as listed in the node's written set.
	written bool
}

type fetchOp struct {
	gate     sim.Gate
	prefetch bool
	// snap is the requester's vector timestamp at fault time: after the
	// fetch, everything it covers is reflected locally.
	snap lrc.VTS
	// op is the causal span riding the fetch (nil when spans are off).
	// Demand ops are closed by the waiter in processor context; prefetch
	// ops close when the page lands.
	op *spans.Op
}

type plock struct {
	hasToken bool
	inCS     bool
	next     *lockReq
	tail     int
	gate     *sim.Gate
}

type lockReq struct {
	from int
	vts  lrc.VTS
	// op is the requester's acquire span, travelling with the request.
	op *spans.Op
}

// anode is the per-node AURC state.
type anode struct {
	id     int
	pr     *Protocol
	mem    *memsys.Node
	fp     *memsys.FastPath
	st     *stats.ProcStats
	proc   *sim.Proc
	frames *lrc.Frames
	cpu    sim.Resource

	vts lrc.VTS
	// noticed[o] is the highest interval seq of owner o whose write
	// notices this node has processed.
	noticed []int32
	ivals   [][]*lrc.Interval
	// pages[pg] is this node's view of page pg (nil until first touched);
	// page numbers are dense, so a slice beats a map on the fault path.
	pages []*page
	// written lists the pages modified in the current interval, in
	// first-write order; page.written flags membership.
	written []int
	locks   map[int]*plock

	wc *writeCache

	// updatesSent[d] counts updates this node has injected toward node d;
	// arrival counting lives on the destination (updatesArrived).
	updatesSent []uint64
	// updatesArrived counts updates this node has received and applied.
	updatesArrived uint64
	// sentTotalTo me, across all nodes, is derived on demand.
	drainWaiters []*drainWaiter

	prefetchQueue []int
	// lastBarrierVTS is the global vector timestamp of the last barrier
	// this node left; the next arrival ships every interval beyond it so
	// the manager's knowledge stays causally closed.
	lastBarrierVTS lrc.VTS
	barrierGate    *sim.Gate
	// barrierOp is the node's in-flight barrier span, so the manager's
	// release path can mark milestones on it.
	barrierOp *spans.Op
}

type drainWaiter struct {
	need uint64
	fn   func()
}

// Protocol is an AURC DSM instance.
type Protocol struct {
	cfg      *params.Config
	eng      *sim.Engine
	net      *network.Network
	heap     *lrc.Heap
	prefetch bool

	nodes []*anode
	// dir[pg] and profiles[pg] are page pg's sharing directory entry and
	// activity profile, nil until the page is first touched.
	dir  []*pageDir
	bars map[int]*barrier

	profiles []*stats.PageProfile
	// tracer, when set, records structured protocol events (faults,
	// automatic-update drains, prefetch issues) — see SetTracer.
	tracer *trace.Buffer
	// rec, when set, records per-node phase spans — see SetTimeline.
	rec *timeline.Recorder
	// sp, when set, collects causal operation spans — see SetSpans.
	sp *spans.Tracker
}

// New builds the protocol (prefetch selects AURC+P).
func New(cfg *params.Config, eng *sim.Engine, net *network.Network, prefetch bool) *Protocol {
	pr := &Protocol{
		cfg:      cfg,
		eng:      eng,
		net:      net,
		heap:     lrc.NewHeap(cfg.PageSize),
		prefetch: prefetch,
		bars:     make(map[int]*barrier),
	}
	for i := 0; i < cfg.Processors; i++ {
		mem := memsys.NewNode(i, cfg, eng)
		n := &anode{
			id:             i,
			pr:             pr,
			mem:            mem,
			fp:             memsys.NewFastPath(mem),
			st:             &stats.ProcStats{},
			frames:         lrc.NewFrames(cfg.PageSize),
			cpu:            sim.Resource{Name: fmt.Sprintf("cpu%d", i)},
			vts:            lrc.NewVTS(cfg.Processors),
			lastBarrierVTS: lrc.NewVTS(cfg.Processors),
			noticed:        make([]int32, cfg.Processors),
			ivals:          make([][]*lrc.Interval, cfg.Processors),
			locks:          make(map[int]*plock),
			updatesSent:    make([]uint64, cfg.Processors),
		}
		n.wc = newWriteCache(n, cfg.WriteCacheSize)
		pr.nodes = append(pr.nodes, n)
	}
	return pr
}

// Prefetching reports whether this instance is AURC+P.
func (pr *Protocol) Prefetching() bool { return pr.prefetch }

// Heap implements dsm.System.
func (pr *Protocol) Heap() *lrc.Heap { return pr.heap }

// Procs implements dsm.System.
func (pr *Protocol) Procs() int { return pr.cfg.Processors }

// InstallProc binds processor id's sim.Proc and accounting hook.
func (pr *Protocol) InstallProc(id int, p *sim.Proc) {
	n := pr.nodes[id]
	n.proc = p
	st := n.st
	if rec, sp := pr.rec, pr.sp; rec != nil || sp != nil {
		// Observability on: mirror every charge as the span
		// [now-waited, now) on the node's timeline track and/or onto the
		// node's current operation span. Both receivers are nil-safe, so
		// one closure serves any combination.
		p.OnUnblock = func(reason string, waited sim.Time) {
			c := categoryFor(reason)
			st.Add(c, waited)
			rec.Stall(id, reason, p.Now()-waited, p.Now())
			sp.Charge(id, c, waited, p.Now())
		}
		return
	}
	p.OnUnblock = func(reason string, waited sim.Time) {
		st.Add(categoryFor(reason), waited)
	}
}

// FinishProc flushes lazily accumulated busy time at body end.
func (pr *Protocol) FinishProc(id int, p *sim.Proc) { pr.nodes[id].fp.Flush(p) }

// Breakdown assembles the run's aggregate accounting.
func (pr *Protocol) Breakdown(t sim.Time) *stats.Breakdown {
	b := &stats.Breakdown{RunningTime: t}
	for _, n := range pr.nodes {
		b.PerProc = append(b.PerProc, n.st)
	}
	return b
}

// NodeStats returns processor id's accounting.
func (pr *Protocol) NodeStats(id int) *stats.ProcStats { return pr.nodes[id].st }

func (pr *Protocol) profile(pg int) *stats.PageProfile {
	p := lrc.PageEntry(&pr.profiles, pg)
	if *p == nil {
		*p = &stats.PageProfile{Page: pg}
	}
	return *p
}

// PageProfiles implements stats.PageProfiler.
func (pr *Protocol) PageProfiles() []stats.PageProfile {
	var out []stats.PageProfile
	for _, p := range pr.profiles {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func (pr *Protocol) pageDir(pg int) *pageDir {
	d := lrc.PageEntry(&pr.dir, pg)
	if *d == nil {
		*d = &pageDir{}
	}
	return *d
}

func (n *anode) page(pg int) *page {
	pe := lrc.PageEntry(&n.pages, pg)
	if *pe == nil {
		*pe = &page{state: stValid, applied: make([]int32, n.pr.cfg.Processors)}
	}
	return *pe
}

func (n *anode) lock(l int) *plock {
	lk, ok := n.locks[l]
	if !ok {
		lk = &plock{}
		home := l % n.pr.cfg.Processors
		if n.id == home {
			lk.hasToken = true
			lk.tail = home
		}
		n.locks[l] = lk
	}
	return lk
}

func (n *anode) absorbSteal(p *sim.Proc) {
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

// touchDirectory records an access and runs the sharing state machine:
// private -> pairwise (second sharer) -> one-time replacement of the
// first member by a third sharer -> home-based write-through for all.
// It returns the directory entry. When the transition invalidates some
// node's mapping, that node's page state flips to invalid.
func (pr *Protocol) touchDirectory(pg, id int) *pageDir {
	d := pr.pageDir(pg)
	for _, s := range d.sharers {
		if s == id {
			return d
		}
	}
	switch len(d.sharers) {
	case 0:
		d.sharers = []int{id}
		d.home = id
		return d // the home's copy (zeroed) is the truth from the start
	case 1:
		d.sharers = append(d.sharers, id)
		d.phase = phPairwise
	default:
		// More processors join: revert to write-through to the home by
		// all (the pairwise mapping is torn down; the ex-partner keeps a
		// valid copy until a write notice invalidates it).
		d.sharers = append(d.sharers, id)
		d.phase = phHomed
	}
	// Mapping the page into a new node transfers its current contents:
	// the joiner starts invalid and fetches from the home, whose copy is
	// complete by construction.
	pr.nodes[id].page(pg).state = stInvalid
	return d
}

// access performs protocol checks and timing for one shared reference.
func (n *anode) access(p *sim.Proc, addr int64, write bool, size int) {
	n.absorbSteal(p)
	pg := n.pr.cfg.PageOf(addr)
	pe := n.page(pg)
	n.pr.touchDirectory(pg, n.id)
	for i := 0; pe.state == stInvalid; i++ {
		if i > 64 {
			panic(fmt.Sprintf("aurc: node %d page %d fault livelock", n.id, pg))
		}
		d := n.pr.touchDirectory(pg, n.id)
		n.fault(p, pg, pe, d)
	}
	pe.referenced = true
	if pe.prefetchedUnused {
		pe.prefetchedUnused = false
		n.st.UsefulPrefetch++
	}
	if write {
		if n.id < 64 {
			n.pr.profile(pg).Writers |= 1 << uint(n.id)
		}
		n.fp.WriteThrough(p, addr, n.st)
		if !pe.written {
			pe.written = true
			n.written = append(n.written, pg)
		}
		// Route the automatic update using the directory state as of NOW:
		// the sharing set can change (pairwise replacement, home
		// transition) while this processor is stalled, and the update
		// must go wherever the current mapping points.
		d := n.pr.touchDirectory(pg, n.id)
		if dst := d.routeTo(n.id); dst >= 0 {
			n.wc.add(p, dst, addr, size)
		}
	} else {
		if n.id < 64 {
			n.pr.profile(pg).Readers |= 1 << uint(n.id)
		}
		n.fp.Read(p, addr, n.st)
		n.pr.touchDirectory(pg, n.id)
	}
}

// Read32 implements dsm.System.
func (pr *Protocol) Read32(p *sim.Proc, id int, addr int64) uint32 {
	n := pr.nodes[id]
	n.access(p, addr, false, 4)
	return n.frames.ReadU32(addr)
}

// Write32 implements dsm.System.
func (pr *Protocol) Write32(p *sim.Proc, id int, addr int64, v uint32) {
	n := pr.nodes[id]
	n.access(p, addr, true, 4)
	n.frames.WriteU32(addr, v)
}

// Read64 implements dsm.System.
func (pr *Protocol) Read64(p *sim.Proc, id int, addr int64) uint64 {
	n := pr.nodes[id]
	n.access(p, addr, false, 8)
	return n.frames.ReadU64(addr)
}

// Write64 implements dsm.System.
func (pr *Protocol) Write64(p *sim.Proc, id int, addr int64, v uint64) {
	n := pr.nodes[id]
	n.access(p, addr, true, 8)
	n.frames.WriteU64(addr, v)
}

// Compute implements dsm.System.
func (pr *Protocol) Compute(p *sim.Proc, id int, cycles sim.Time) {
	n := pr.nodes[id]
	n.absorbSteal(p)
	n.fp.AddBusy(cycles)
}

// sendFromProc transmits from processor context (AURC has no controller:
// the CPU always pays the messaging overhead).
func (n *anode) sendFromProc(p *sim.Proc, reason string, dst, bytes int, deliver func()) {
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	p.SleepReason(n.pr.cfg.MessagingOverhead, reason)
	n.pr.net.SendReliable(n.id, dst, bytes, 0, deliver)
}

// sendAsync transmits from engine context, reserving the CPU for the
// network-interface setup.
func (n *anode) sendAsync(dst, bytes int, deliver func()) {
	n.st.MsgsSent++
	n.st.BytesSent += uint64(bytes)
	_, end := n.cpu.Reserve(n.pr.eng, n.pr.cfg.MessagingOverhead)
	n.pr.eng.At(end, func() {
		n.pr.net.SendReliable(n.id, dst, bytes, 0, deliver)
	})
}

func (n *anode) serveCPU(cost sim.Time, fn func()) {
	n.st.Interrupts++
	_, end := n.cpu.Reserve(n.pr.eng, n.pr.cfg.InterruptTime+cost)
	n.pr.eng.At(end, fn)
}

// serveCPUSpan is serveCPU plus span milestones: the service window's
// start closes the operation's queueing stage, its end the remote stage
// (eagerly stamped with the reservation's future times; spans.End sorts
// before partitioning).
func (n *anode) serveCPUSpan(cost sim.Time, op *spans.Op, fn func()) {
	n.st.Interrupts++
	start, end := n.cpu.Reserve(n.pr.eng, n.pr.cfg.InterruptTime+cost)
	op.Mark(spans.StageQueue, start)
	op.Mark(spans.StageRemote, end)
	n.pr.eng.At(end, fn)
}
