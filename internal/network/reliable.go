package network

import (
	"fmt"

	"dsm96/internal/sim"
)

// Reliable-transport tuning. All values are in simulated cycles or
// counts; none of them matters on a fault-free run, where SendReliable
// is a verbatim delegate of Send.
const (
	// ackBytes is the wire size of a hardware acknowledgement.
	ackBytes = 16
	// retrySlack pads the retry timeout past the message's scheduled
	// delivery: it must absorb ack-path queueing and the fault model's
	// injected delay on the ack (default max 2000 cycles), or every
	// slow ack would trigger a spurious retransmission. The forward
	// path needs no such allowance — transmit learns its exact
	// congested delivery time from the simulator.
	retrySlack = 4096
	// maxBackoffShift caps the exponential backoff at base<<shift.
	maxBackoffShift = 6
	// maxAttempts is a livelock backstop: under any loss rate < 1 the
	// chance of this many consecutive losses is negligible, so hitting
	// it means the scenario (e.g. Drop: 1 on a required link) cannot
	// make progress, which is a configuration bug worth a loud stop.
	maxAttempts = 32
)

// pairState is the per-ordered-pair sequencing state of the reliable
// transport. The same entry serves the sender side (nextSeq) and the
// receiver side (nextDeliver, held) of its pair.
type pairState struct {
	nextSeq     uint64            // sender: next sequence number to assign
	nextDeliver uint64            // receiver: lowest sequence not yet delivered
	held        map[uint64]func() // receiver: out-of-order arrivals awaiting delivery
}

// pendingMsg is one reliable message in flight. The ack closure and the
// retry timers capture it, so "has an ack come back" is a field, not a
// map lookup, and marking it acked is idempotent for free.
type pendingMsg struct {
	src, dst, bytes int
	seq             uint64
	deliver         func()
	acked           bool
	attempts        int
}

// SendReliable sends a message that will be delivered exactly once, in
// per-pair FIFO order, even over a faulty network: lost copies are
// retransmitted after a timeout with exponential backoff, duplicates
// are suppressed by sequence number, and reordered arrivals are held
// back until their predecessors deliver. deliver runs in engine context
// exactly once.
//
// With no fault model installed (the default) this is Send, verbatim:
// no sequence numbers, no acks, no timers — the fault-free event
// schedule is bit-identical to the raw datagram path.
func (nw *Network) SendReliable(src, dst, bytes int, overhead sim.Time, deliver func()) {
	if nw.faults == nil || src == dst {
		nw.Send(src, dst, bytes, overhead, deliver)
		return
	}
	ps := &nw.pairs[src*nw.n+dst]
	m := &pendingMsg{src: src, dst: dst, bytes: bytes, seq: ps.nextSeq, deliver: deliver}
	ps.nextSeq++
	nw.unacked++
	nw.transmit(m, overhead)
}

// Unacked reports how many reliable messages are still awaiting their
// acknowledgement — the retransmission machinery's in-flight gauge,
// read by liveness stall reports. Always 0 without a fault model (the
// reliable path is then a verbatim datagram send).
func (nw *Network) Unacked() int { return nw.unacked }

// transmit puts one physical copy of m on the wire and arms its retry
// timer from the copy's scheduled delivery cycle. The first attempt
// pays the caller's messaging overhead; retransmissions are reinjected
// by the network interface at no CPU cost (overhead 0).
func (nw *Network) transmit(m *pendingMsg, overhead sim.Time) {
	m.attempts++
	if m.attempts > maxAttempts {
		panic(fmt.Sprintf("network: message %d->%d seq %d abandoned after %d attempts (is a link configured with Drop: 1?)",
			m.src, m.dst, m.seq, maxAttempts))
	}
	delivery := nw.Send(m.src, m.dst, m.bytes, overhead, func() { nw.receiveReliable(m) })
	timeout := nw.retryTimeout(m, m.attempts, delivery)
	nw.eng.After(timeout, func() {
		if m.acked {
			return
		}
		nw.rel.TimeoutsFired++
		nw.rel.Retries++
		nw.rel.RetryWaitCycles += uint64(timeout)
		nw.transmit(m, 0)
	})
}

// retryTimeout returns the cycles to wait for attempt number `attempt`
// before retransmitting. `delivery` is the cycle the simulator actually
// scheduled the copy's tail to arrive (including link queueing and
// injected delay) — or would have, had it not been dropped — so the
// forward path contributes its exact congested latency, not an
// estimate. On top of that: a generous multiple of the ack's
// uncontended return trip, slack for ack-path queueing and injected
// delay, doubling per attempt up to a cap. A timeout that fires while
// the ack is merely slow costs only a redundant (deduplicated) copy,
// so the ack allowance favors simplicity over precision.
func (nw *Network) retryTimeout(m *pendingMsg, attempt int, delivery sim.Time) sim.Time {
	ackRTT := nw.LatencyLowerBound(m.dst, m.src, ackBytes, 0)
	base := delivery - nw.eng.Now() + 4*ackRTT + retrySlack
	shift := attempt - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return base << shift
}

// receiveReliable runs when a physical copy of m reaches its
// destination NIC: acknowledge it, suppress it if it is a duplicate,
// and otherwise deliver it — holding it back if earlier messages from
// the same sender are still missing.
func (nw *Network) receiveReliable(m *pendingMsg) {
	// Hardware ack, itself fault-prone: if it is lost the sender
	// retransmits and this copy's twin is deduplicated below. The ack's
	// delivery callback runs back at the source.
	nw.rel.AcksSent++
	nw.Send(m.dst, m.src, ackBytes, 0, func() {
		if !m.acked {
			m.acked = true
			nw.unacked--
		}
	})

	ps := &nw.pairs[m.src*nw.n+m.dst]
	if m.seq < ps.nextDeliver || ps.held[m.seq] != nil {
		nw.rel.DuplicatesDropped++
		return
	}
	if ps.held == nil {
		ps.held = make(map[uint64]func())
	}
	ps.held[m.seq] = m.deliver
	if m.seq > ps.nextDeliver {
		nw.rel.HeldForOrder++
	}
	for {
		d := ps.held[ps.nextDeliver]
		if d == nil {
			return
		}
		delete(ps.held, ps.nextDeliver)
		ps.nextDeliver++
		d()
	}
}
