package stats

import (
	"fmt"
	"strings"
)

// Reliability aggregates the degradation a run suffered from an
// unreliable network (see internal/faults) and what the reliable
// transport (network.SendReliable) did about it. All counters are zero
// for a fault-free run: the transport is pass-through when no fault
// model is installed.
type Reliability struct {
	// What the fault model injected.
	MessagesDropped    uint64 // transmissions discarded at the destination NIC
	MessagesDuplicated uint64 // transmissions delivered twice
	MessagesDelayed    uint64 // transmissions held for extra cycles (reordering)

	// What the transport did about it.
	TimeoutsFired     uint64 // retry timers that expired with no ack
	Retries           uint64 // retransmissions issued (== TimeoutsFired today)
	DuplicatesDropped uint64 // arrivals suppressed by sequence-number dedup
	HeldForOrder      uint64 // arrivals buffered to restore per-link FIFO order
	AcksSent          uint64 // hardware acknowledgements injected
	// RetryWaitCycles sums the timeout intervals that expired before each
	// retransmission — the added stall the protocols absorbed waiting for
	// lost messages (an upper bound on per-message added latency, since
	// a retransmission can overlap other useful work).
	RetryWaitCycles uint64
}

// Degraded reports whether the run saw any fault or recovery activity.
func (r *Reliability) Degraded() bool {
	return r.MessagesDropped != 0 || r.MessagesDuplicated != 0 || r.MessagesDelayed != 0 ||
		r.TimeoutsFired != 0 || r.Retries != 0 || r.DuplicatesDropped != 0 ||
		r.HeldForOrder != 0 || r.AcksSent != 0 || r.RetryWaitCycles != 0
}

// Table renders the counters in a fixed order (same style as
// Breakdown.CounterTable).
func (r *Reliability) Table() string {
	rows := []struct {
		name string
		val  uint64
	}{
		{"msgs dropped", r.MessagesDropped},
		{"msgs duplicated", r.MessagesDuplicated},
		{"msgs delayed", r.MessagesDelayed},
		{"timeouts fired", r.TimeoutsFired},
		{"retries", r.Retries},
		{"dup drops", r.DuplicatesDropped},
		{"held for order", r.HeldForOrder},
		{"acks sent", r.AcksSent},
		{"retry wait cycles", r.RetryWaitCycles},
	}
	var sb strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-18s %12d\n", row.name, row.val)
	}
	return sb.String()
}
