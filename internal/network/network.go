// Package network models the mesh interconnect of the simulated network
// of workstations, plus the reliable transport the DSM protocols run on.
//
// # The mesh
//
// Messages travel the paper's 4x4 wormhole-routed mesh (any rectangular
// mesh, really): X-Y dimension-ordered routing, a per-hop switch+wire
// latency, and 8-bit-wide links modelled as FCFS resources so that
// message bodies contend for link bandwidth hop by hop. Each node also
// has an egress resource — its network-interface send side — which a
// message occupies for its per-message overhead, serializing
// back-to-back sends from one node. Send is the raw datagram primitive:
// fire-and-forget, completion signalled by a callback when the tail
// arrives.
//
// # Fault injection
//
// InstallFaults interposes a faults.Model between Send and delivery:
// each physical transmission can be dropped at the destination NIC
// (after consuming link bandwidth), duplicated, or held for extra
// cycles so later messages overtake it. Decisions are deterministic —
// pure functions of (seed, src, dst, per-link message index) — so
// faulty runs are exactly as reproducible as fault-free ones. With no
// model installed the interposer does not exist: Send's schedule is
// bit-identical to a build without the faults package.
//
// # Reliable transport
//
// SendReliable is what the protocols use. With no fault model it
// delegates verbatim to Send. With one installed it layers, per ordered
// node pair: sequence numbers, receiver-side duplicate suppression,
// in-order hold-back delivery (the protocols — AURC's automatic
// updates especially — rely on per-pair FIFO), hardware
// acknowledgements, and timeout-driven retransmission with exponential
// backoff in simulated cycles. Degradation is surfaced through the Rel
// counter block (stats.Reliability).
package network

import (
	"fmt"
	"math"

	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/stats"
	"dsm96/internal/timeline"
)

// Link directions: 0 = +x, 1 = -x, 2 = +y, 3 = -y.
const numDirs = 4

// Network is the mesh. Methods must be called in engine context (they
// never block; completion is signalled through callbacks).
type Network struct {
	cfg  *params.Config
	eng  *sim.Engine
	n    int
	dimX int
	dimY int

	// links is dense per-node, per-direction storage: the unidirectional
	// link leaving node f in direction d is links[f*numDirs+d]. A value
	// slice replaces the old map[linkID]*Resource so the per-hop lookup
	// on the send fast path is an index computation, not a hashed map
	// access, and the resources sit contiguously in cache.
	links []sim.Resource
	// egress[n] is node n's network-interface send side: each message
	// occupies it for its per-message overhead, so high messaging
	// overheads serialize back-to-back sends (the effect Figure 13's
	// pessimistic AURC curve depends on).
	egress []sim.Resource

	// faults, when non-nil, decides the fate of every physical
	// transmission (see InstallFaults). pairs holds the reliable
	// transport's per-ordered-pair sequencing state; it exists only
	// while a fault model is installed.
	faults *faults.Model
	pairs  []pairState

	// rec, when non-nil, receives per-link occupancy spans (see
	// SetTimeline). Nil — the default — is a no-op receiver.
	rec *timeline.Recorder

	// sp, when non-nil, receives per-sender wire windows (see SetSpans).
	// Nil — the default — is a no-op receiver.
	sp *spans.Tracker

	// Counters.
	messages uint64
	bytes    uint64
	// rel counts injected faults and the transport's recovery work.
	// All-zero unless a fault model is installed.
	rel stats.Reliability
	// unacked gauges reliable messages awaiting acknowledgement (see
	// Unacked).
	unacked int

	// LinkWaits is total queueing across all messages and links.
	LinkWaits sim.Time
}

// New builds a mesh for n nodes, as close to square as possible
// (16 nodes = the paper's 4x4 mesh).
func New(cfg *params.Config, eng *sim.Engine, n int) *Network {
	dimX := int(math.Ceil(math.Sqrt(float64(n))))
	dimY := (n + dimX - 1) / dimX
	return &Network{
		cfg: cfg, eng: eng, n: n, dimX: dimX, dimY: dimY,
		// dimX*dimY covers the full rectangle: X-Y routes can pass
		// through grid positions beyond node n-1 on non-square meshes.
		links:  make([]sim.Resource, dimX*dimY*numDirs),
		egress: make([]sim.Resource, n),
	}
}

// Messages returns the total messages injected.
func (nw *Network) Messages() uint64 { return nw.messages }

// Bytes returns the total payload bytes injected.
func (nw *Network) Bytes() uint64 { return nw.bytes }

// Rel returns the reliability counter block. All-zero unless a fault
// model is installed.
func (nw *Network) Rel() stats.Reliability { return nw.rel }

// Dims returns the mesh dimensions.
func (nw *Network) Dims() (x, y int) { return nw.dimX, nw.dimY }

func (nw *Network) coords(node int) (x, y int) {
	return node % nw.dimX, node / nw.dimX
}

// Hops returns the number of links on the X-Y route between two nodes.
func (nw *Network) Hops(src, dst int) int {
	sx, sy := nw.coords(src)
	dx, dy := nw.coords(dst)
	return abs(dx-sx) + abs(dy-sy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (nw *Network) link(from, dir int) *sim.Resource {
	return &nw.links[from*numDirs+dir]
}

// linkID identifies a unidirectional link leaving node `from` in
// direction `dir`.
type linkID struct {
	from int
	dir  int // 0 = +x, 1 = -x, 2 = +y, 3 = -y
}

// route returns the sequence of (node, direction) links on the X-Y path.
// Send walks the same path inline without materializing it; this helper
// exists for tests and diagnostics.
func (nw *Network) route(src, dst int) []linkID {
	var path []linkID
	x, y := nw.coords(src)
	dx, dy := nw.coords(dst)
	cur := src
	for x != dx {
		dir := 0
		step := 1
		if dx < x {
			dir, step = 1, -1
		}
		path = append(path, linkID{cur, dir})
		x += step
		cur = y*nw.dimX + x
	}
	for y != dy {
		dir := 2
		step := 1
		if dy < y {
			dir, step = 3, -1
		}
		path = append(path, linkID{cur, dir})
		y += step
		cur = y*nw.dimX + x
	}
	return path
}

// reserveHop queues the message body on one link of the path: the head
// cannot enter the link before `arrive+hop`, it additionally queues FCFS
// behind earlier traffic, and the body occupies the link for `transfer`
// cycles. It returns the cycle the head entered the link.
func (nw *Network) reserveHop(from, dir int, arrive, hop, transfer sim.Time) sim.Time {
	r := nw.link(from, dir)
	earliest := arrive + hop
	start := earliest
	if f := r.FreeAt(); f > start {
		start = f
		nw.LinkWaits += f - earliest
	}
	r.PadTo(start)
	r.Reserve(nw.eng, transfer)
	nw.rec.Link(from*numDirs+dir, start, start+transfer)
	return start
}

// SetTimeline attaches a timeline recorder: every link the mesh owns is
// registered as a named track ("n<from><dir>" — the unidirectional link
// leaving node from in direction dir), and each message body's occupancy
// of a link is recorded as a span. Pass nil to detach.
func (nw *Network) SetTimeline(rec *timeline.Recorder) {
	nw.rec = rec
	if rec == nil {
		return
	}
	dirs := [numDirs]string{"+x", "-x", "+y", "-y"}
	names := make([]string, len(nw.links))
	for i := range names {
		names[i] = fmt.Sprintf("n%d%s", i/numDirs, dirs[i%numDirs])
	}
	rec.InitLinks(names)
}

// SetSpans attaches a causal-span tracker: every non-loopback message
// contributes a [send, tail-delivery) wire window on the sending node,
// which overlap accounting counts as network activity attributable to
// that node. Pass nil to detach.
func (nw *Network) SetSpans(tr *spans.Tracker) { nw.sp = tr }

// Send injects a message of `bytes` payload (plus header) from src to
// dst. overhead is the sender-side network-interface setup cost in
// cycles, charged before injection (callers pass cfg.MessagingOverhead
// for ordinary messages, cfg.AURCUpdateOverhead for automatic updates).
// done runs in engine context when the tail of the message arrives at
// dst. Send itself never blocks; it returns the cycle the tail is
// scheduled to arrive — including link queueing and any injected delay,
// and for a dropped message the cycle it would have arrived — which the
// reliable transport bases its retry timeouts on, so they reflect the
// congestion the message actually experienced.
//
// Timing: the head flit leaves the source overhead cycles from now; each
// hop adds switch+wire latency, and the message body occupies every link
// on the path for bytes/linkWidth cycles, queueing FCFS behind earlier
// traffic on each link (wormhole back-pressure is approximated by
// per-link serialization).
func (nw *Network) Send(src, dst, bytes int, overhead sim.Time, done func()) sim.Time {
	nw.messages++
	nw.bytes += uint64(bytes)
	sent := nw.eng.Now()
	// The network interface processes one send at a time: the message's
	// per-message overhead occupies the sender's egress engine.
	head := sent
	if overhead > 0 {
		_, head = nw.egress[src].Reserve(nw.eng, overhead)
	}
	if src == dst {
		// Local loopback: no links, just the overhead.
		nw.eng.At(head, done)
		return head
	}
	transfer := nw.cfg.NetTransferTime(bytes)
	hop := nw.cfg.SwitchLatency + nw.cfg.WireLatency
	arrive := head
	// Walk the X-Y route link by link (X hops, then Y hops), reserving
	// each in order — route() without its per-message path slice.
	x, y := nw.coords(src)
	dx, dy := nw.coords(dst)
	cur := src
	for x != dx {
		dir := 0
		step := 1
		if dx < x {
			dir, step = 1, -1
		}
		arrive = nw.reserveHop(cur, dir, arrive, hop, transfer)
		x += step
		cur = y*nw.dimX + x
	}
	for y != dy {
		dir := 2
		step := 1
		if dy < y {
			dir, step = 3, -1
		}
		arrive = nw.reserveHop(cur, dir, arrive, hop, transfer)
		y += step
		cur = y*nw.dimX + x
	}
	delivery := arrive + hop + transfer
	if nw.faults != nil {
		o := nw.faults.Decide(src, dst)
		if o.Drop {
			// Discarded at the destination NIC: the body crossed (and
			// occupied) every link on the path, but done never runs. The
			// wire window still counts — the network was busy either way.
			nw.rel.MessagesDropped++
			nw.sp.NetSend(src, sent, delivery)
			return delivery
		}
		if o.ExtraDelay > 0 {
			nw.rel.MessagesDelayed++
			delivery += o.ExtraDelay
		}
		if o.Duplicate {
			nw.rel.MessagesDuplicated++
			nw.eng.At(delivery+o.DupDelay, done)
		}
	}
	nw.sp.NetSend(src, sent, delivery)
	nw.eng.At(delivery, done)
	return delivery
}

// InstallFaults interposes a fault model between Send and delivery and
// arms the reliable transport (SendReliable). A nil model — what
// faults.NewModel returns for a disabled plan — is refused, keeping the
// fault-free fast path structurally identical to a build without fault
// injection.
func (nw *Network) InstallFaults(m *faults.Model) {
	if m == nil {
		return
	}
	nw.faults = m
	nw.pairs = make([]pairState, nw.n*nw.n)
}

// FaultsEnabled reports whether a fault model is installed.
func (nw *Network) FaultsEnabled() bool { return nw.faults != nil }

// LatencyLowerBound returns the uncontended cycles for a message of
// `bytes` between src and dst including overhead — useful for tests and
// for reasoning about parameter sweeps.
func (nw *Network) LatencyLowerBound(src, dst, bytes int, overhead sim.Time) sim.Time {
	if src == dst {
		return overhead
	}
	hops := sim.Time(nw.Hops(src, dst))
	hop := nw.cfg.SwitchLatency + nw.cfg.WireLatency
	return overhead + (hops+1)*hop + nw.cfg.NetTransferTime(bytes)
}
