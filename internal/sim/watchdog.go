package sim

import "fmt"

// BlockedProc describes one stuck process in a stall report.
type BlockedProc struct {
	ID   int
	Name string
	// Reason is the process's blockReason — what it was waiting on
	// ("read-fault", "barrier", "lock", ...). Empty for a process that
	// never started.
	Reason string
	// Since is the cycle at which the process parked.
	Since Time
}

// StallReport is the engine's structured view of a run that stopped
// making progress: either a true deadlock (event queue drained with
// processes still blocked) or a livelock the watchdog caught (events
// kept firing — retransmissions, polls — but no process advanced for
// the configured window). Higher layers decorate it with protocol
// state (in-flight spans, retransmission counters) before surfacing it
// to the user.
type StallReport struct {
	// At is the simulated time the stall was detected.
	At Time
	// LastProgress is the last cycle any process started, resumed, or
	// completed an inline sleep.
	LastProgress Time
	// Blocked lists the stuck processes.
	Blocked []BlockedProc
}

// StallError is the error Engine.Run returns for deadlocks and
// watchdog-detected stalls. Callers unwrap it with errors.As to get at
// the structured report.
type StallError struct {
	// Deadlock distinguishes a drained queue (true) from a watchdog
	// livelock trip (false).
	Deadlock bool
	Report   StallReport
}

// Error renders the report. The deadlock form keeps the historical
// "sim: deadlock, blocked processes:" prefix.
func (e *StallError) Error() string {
	var msg string
	if e.Deadlock {
		msg = "sim: deadlock, blocked processes:"
	} else {
		msg = fmt.Sprintf("sim: stall, no process progress since cycle %d (now %d), blocked processes:",
			e.Report.LastProgress, e.Report.At)
	}
	for _, b := range e.Report.Blocked {
		msg += fmt.Sprintf(" %s(%s)", b.Name, b.Reason)
	}
	return msg
}

// SetWatchdog arms the liveness watchdog: if events keep firing but no
// process makes progress (starts, resumes, or completes an inline
// sleep) for more than window cycles while at least one process is
// blocked, Run returns a *StallError instead of spinning forever — the
// guard against protocol livelocks (e.g. a retransmission loop whose
// replies a wedged endpoint never generates). window <= 0 disables.
//
// The watchdog is pure observation: it schedules no events and touches
// no queues, so an armed watchdog that never trips leaves the event
// schedule and fingerprint bit-identical.
func (e *Engine) SetWatchdog(window Time) { e.watchdog = window }

// progressed stamps process-level progress for the watchdog.
func (e *Engine) progressed() { e.lastProgressAt = e.now }

// deadlock returns the drained-queue *StallError naming every unfinished
// process, or nil when all of them finished.
func (e *Engine) deadlock() error {
	var blocked []BlockedProc
	for _, p := range e.procs {
		if !p.done {
			blocked = append(blocked, BlockedProc{
				ID: p.ID, Name: p.Name, Reason: p.blockReason, Since: p.blockedAt,
			})
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	return &StallError{Deadlock: true, Report: StallReport{
		At: e.now, LastProgress: e.lastProgressAt, Blocked: blocked,
	}}
}

// checkStall evaluates the watchdog. It must only be called from the
// Run loop between events.
func (e *Engine) checkStall() *StallError {
	if e.now-e.lastProgressAt <= e.watchdog {
		return nil
	}
	var blocked []BlockedProc
	for _, p := range e.procs {
		if !p.done && p.blockReason != "" {
			blocked = append(blocked, BlockedProc{
				ID: p.ID, Name: p.Name, Reason: p.blockReason, Since: p.blockedAt,
			})
		}
	}
	if len(blocked) == 0 {
		// Pure event churn with no one waiting (or before any process
		// starts) is not a protocol stall; restart the window.
		e.lastProgressAt = e.now
		return nil
	}
	return &StallError{Report: StallReport{
		At: e.now, LastProgress: e.lastProgressAt, Blocked: blocked,
	}}
}
