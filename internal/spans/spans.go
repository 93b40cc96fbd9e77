// Package spans implements causal operation tracing for the simulator:
// every blocking protocol operation (read/write fault service, lock
// acquire, barrier arrival, prefetch) is tagged with an operation ID at
// the point the processor blocks, the ID travels with the protocol
// messages through controller job submission, network hops, and remote
// service, and one structured span record per operation comes back with
// a stage decomposition of where its cycles went.
//
// Like the timeline recorder (internal/timeline), the whole layer is
// nil-receiver safe: every method on a nil *Tracker or nil *Op is a
// no-op, so the protocols thread marks unconditionally and a disabled
// tracker costs nothing and cannot perturb the event schedule. The
// tracker only ever observes times the simulation already computed — it
// never sleeps, reserves, or schedules — so the engine fingerprint is
// bit-identical with spans on or off.
//
// Stage attribution works by milestones, not bracketed regions: the
// protocol calls Op.Mark(stage, t) at the instant a stage *ends*,
// and End partitions the operation's [Start, End) window by assigning
// the gap since the previous milestone to the marked stage. Milestones
// may be recorded eagerly with future timestamps (resource reservations
// return their service window up front); End sorts them stably by time
// before partitioning, so attribution is deterministic and the stage
// cycles always sum exactly to End-Start.
package spans

import (
	"sort"

	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// Kind classifies the blocking operation a span describes.
type Kind int

const (
	// OpReadFault is a read access fault: the faulting processor blocks
	// until a valid copy of the page (diffs or full page) is applied.
	OpReadFault Kind = iota
	// OpWriteFault is a write fault on a read-only copy: twin creation
	// (software, hardware-assisted, or controller-offloaded).
	OpWriteFault
	// OpLock is a lock acquire, from request to grant integration.
	OpLock
	// OpRelease is the grant work a releaser performs for a queued
	// waiter (it blocks the releaser, not the acquirer).
	OpRelease
	// OpBarrier is a barrier episode: arrival through departure.
	OpBarrier
	// OpPrefetch is a prefetch issued at an acquire: issue through the
	// page landing. The processor does not wait on it; its span is the
	// flight window, which overlap accounting credits as hidden latency.
	OpPrefetch
	// NumKinds bounds Kind for fixed-size per-kind tables.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case OpReadFault:
		return "read-fault"
	case OpWriteFault:
		return "write-fault"
	case OpLock:
		return "lock"
	case OpRelease:
		return "release"
	case OpBarrier:
		return "barrier"
	case OpPrefetch:
		return "prefetch"
	}
	return "op?"
}

// Stage is one slice of an operation's latency decomposition.
type Stage int

const (
	// StageWire is network time: request (and reply) hop traversal and
	// link queueing between the milestone before it and message arrival.
	StageWire Stage = iota
	// StageQueue is time spent waiting for service to begin: interrupt
	// queueing on a remote CPU or dispatch queueing in the controller.
	StageQueue
	// StageRemote is remote service occupancy: diff creation, page
	// capture, grant assembly — work done on the serving node.
	StageRemote
	// StageReply is reply delivery: from remote service completion to
	// the reply arriving back at the requester.
	StageReply
	// StageController is local completion work after the reply is in:
	// diff application, grant integration, twin setup.
	StageController
	// StageUnblock is the remainder: local issue overheads and the final
	// wakeup; operations that never leave the node (cached lock token)
	// land entirely here.
	StageUnblock
	// NumStages bounds Stage for fixed-size per-stage tables.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageWire:
		return "wire"
	case StageQueue:
		return "queue"
	case StageRemote:
		return "remote"
	case StageReply:
		return "reply"
	case StageController:
		return "controller"
	case StageUnblock:
		return "unblock"
	}
	return "stage?"
}

// mark is a stage-end milestone recorded along an operation's path.
type mark struct {
	t     sim.Time
	stage Stage
}

// Op is one in-flight or completed operation span. Protocol code holds
// a *Op (possibly nil when tracing is off) and calls Mark unconditionally.
type Op struct {
	// ID is the operation's sequence number, assigned at Begin in
	// schedule order, so IDs are deterministic for a given run.
	ID uint64
	// Node is the processor that initiated (and blocks on) the operation.
	Node int
	// Kind classifies the operation.
	Kind Kind
	// Obj is the page, lock, or barrier the operation is about.
	Obj int
	// Start and End bracket the span in simulated cycles.
	Start, End sim.Time
	// Stages is the latency decomposition; the entries sum to End-Start.
	Stages [NumStages]sim.Time
	// Charged accumulates the stall cycles the owning processor's
	// OnUnblock hook attributed to each stats category while this
	// operation was current; reconciliation tests check these sums
	// against stats.Breakdown exactly.
	Charged [stats.NumCategories]sim.Time

	marks []mark
}

// Mark records that stage s ended at time t. Safe on a nil receiver and
// callable from any context (proc or engine); milestones with future
// timestamps (reservation end times) are fine — End sorts before
// partitioning, and insertion order breaks equal-time ties.
func (o *Op) Mark(s Stage, t sim.Time) {
	if o == nil {
		return
	}
	o.marks = append(o.marks, mark{t: t, stage: s})
}

// interval is a half-open [start, end) window of simulated time.
type interval struct {
	start, end sim.Time
}

// appendMerged appends iv to ivs, coalescing with the last entry when
// they touch. Feeds arrive per node in non-decreasing start order, so
// this keeps the per-node lists compact without a sort.
func appendMerged(ivs []interval, iv interval) []interval {
	if iv.end <= iv.start {
		return ivs
	}
	if n := len(ivs); n > 0 && iv.start <= ivs[n-1].end {
		if iv.end > ivs[n-1].end {
			ivs[n-1].end = iv.end
		}
		return ivs
	}
	return append(ivs, iv)
}

// Tracker collects operation spans and the activity/stall interval
// feeds that overlap accounting is computed from. All methods are safe
// on a nil receiver; a nil tracker is the disabled state.
type Tracker struct {
	nodes  int
	nextID uint64
	// cur is each node's current operation: the target Charge attributes
	// stall cycles to. Begin sets it, End and Detach clear it.
	cur []*Op
	// ops holds completed spans in completion order.
	ops []*Op
	// ctrl and net are protocol activity windows (controller occupancy,
	// outbound wire occupancy) per node; blocked is the union of the
	// node's non-Busy stall windows. Overlap accounting intersects them.
	ctrl    [][]interval
	net     [][]interval
	blocked [][]interval
}

// NewTracker returns a tracker for a machine with the given number of
// processors.
func NewTracker(nodes int) *Tracker {
	return &Tracker{
		nodes:   nodes,
		cur:     make([]*Op, nodes),
		ctrl:    make([][]interval, nodes),
		net:     make([][]interval, nodes),
		blocked: make([][]interval, nodes),
	}
}

// Begin opens a span for an operation of the given kind on obj,
// starting now, and makes it the node's current operation for stall
// charging. Returns nil (a valid, inert Op handle) on a nil tracker.
// IDs are allocated in Begin order.
func (t *Tracker) Begin(node int, k Kind, obj int, now sim.Time) *Op {
	if t == nil {
		return nil
	}
	op := &Op{ID: t.nextID, Node: node, Kind: k, Obj: obj, Start: now}
	t.nextID++
	t.cur[node] = op
	return op
}

// Detach stops charging the node's stalls to op without ending it; used
// for prefetches, which stay in flight after the issuing processor
// moves on.
func (t *Tracker) Detach(node int, op *Op) {
	if t == nil || op == nil {
		return
	}
	if t.cur[node] == op {
		t.cur[node] = nil
	}
}

// End closes op at now, computes its stage decomposition from the
// recorded milestones, and files the span. The gap from Start to the
// first milestone goes to that milestone's stage, and so on; whatever
// trails the last milestone is StageUnblock. Zero-length spans are kept
// (they are real operations that turned out to be free) so per-kind
// span counts always equal the protocol's operation counters.
func (t *Tracker) End(op *Op, now sim.Time) {
	if t == nil || op == nil {
		return
	}
	if t.cur[op.Node] == op {
		t.cur[op.Node] = nil
	}
	op.End = now
	sort.SliceStable(op.marks, func(i, j int) bool { return op.marks[i].t < op.marks[j].t })
	prev := op.Start
	for _, m := range op.marks {
		mt := m.t
		if mt > now {
			mt = now // eager milestone past the close; clamp
		}
		if mt > prev {
			op.Stages[m.stage] += mt - prev
			prev = mt
		}
	}
	if now > prev {
		op.Stages[StageUnblock] += now - prev
	}
	op.marks = nil
	t.ops = append(t.ops, op)
}

// Charge attributes a stall of the given category ending now to the
// node's current operation, and extends the node's blocked windows for
// every non-Busy stall (overlap accounting treats those windows as
// "the processor was not computing").
func (t *Tracker) Charge(node int, c stats.Category, waited, now sim.Time) {
	if t == nil || waited <= 0 {
		return
	}
	if op := t.cur[node]; op != nil {
		op.Charged[c] += waited
	}
	if c != stats.Busy {
		t.blocked[node] = appendMerged(t.blocked[node], interval{now - waited, now})
	}
}

// Controller records a controller service window on the given node.
func (t *Tracker) Controller(node int, start, end sim.Time) {
	if t == nil {
		return
	}
	t.ctrl[node] = appendMerged(t.ctrl[node], interval{start, end})
}

// NetSend records outbound wire occupancy for a message the given node
// sent: from send entry to final-hop delivery. Retransmissions and
// fault-injected duplicates re-enter the send path and so are recorded
// like any other message.
func (t *Tracker) NetSend(src int, start, end sim.Time) {
	if t == nil {
		return
	}
	t.net[src] = appendMerged(t.net[src], interval{start, end})
}

// Ops returns the completed spans in completion order. Read-only; test
// and report code only.
func (t *Tracker) Ops() []*Op {
	if t == nil {
		return nil
	}
	return t.ops
}

// OpenOps returns the operations currently in flight — begun but not
// yet ended or detached — in node order. This is the liveness
// watchdog's view of what each stalled processor was in the middle of
// when a run stopped making progress; on a completed run it is empty.
func (t *Tracker) OpenOps() []*Op {
	if t == nil {
		return nil
	}
	var out []*Op
	for _, op := range t.cur {
		if op != nil {
			out = append(out, op)
		}
	}
	return out
}
