// Package sim provides a deterministic discrete-event simulation engine
// with coroutine-style processes, FCFS resources, priority servers, and
// wait conditions.
//
// The engine is the substrate for the execution-driven DSM simulator: each
// simulated computation processor is a Proc (a runtime coroutine coupled
// to the engine so that exactly one logical thread runs at a time), while
// protocol controllers, buses, memories, and network links are modelled
// with Resources and Servers advanced by engine events.
//
// Determinism: events at equal times fire in submission order (a strictly
// increasing sequence number breaks ties), and because at most one
// process (or the engine) runs at any moment, repeated runs of the same
// program produce bit-identical schedules. Engine.Fingerprint hashes the fired
// (time, seq) stream so tests can assert that property — and so that
// fast-path rewrites of the queue below can prove they changed nothing.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is simulated time in processor cycles (the paper uses 10 ns cycles).
type Time = int64

// event is a scheduled callback. Events are stored by value inside the
// engine's queue slice: the slice's storage is the event pool (no
// per-event heap allocation, no free-list bookkeeping, no pointer
// chasing while sifting).
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// heapArity is the fan-out of the event queue's d-ary min-heap. Four
// halves the tree depth versus a binary heap: pushes compare against
// half as many ancestors, and the four children examined per pop level
// share a cache line pair instead of being scattered.
const heapArity = 4

// Engine is a discrete-event simulator. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now Time
	seq uint64
	// events is a d-ary min-heap ordered by (at, seq), stored by value.
	events  []event
	procs   []*Proc
	stopped bool
	// limit bounds inline event elision: during RunUntil(t) a process
	// may not advance the clock past t on its own.
	limit Time
	// watchdog, when positive, is the liveness window: Run fails with a
	// *StallError if no process progresses for this many cycles while
	// some process is blocked (see SetWatchdog).
	watchdog       Time
	lastProgressAt Time

	// runWallNS accumulates Run's wall-clock time for the self-profile
	// (profile.go). Host-dependent; never feeds the simulation.
	runWallNS int64

	// Stats.
	eventsRun    uint64
	fingerprint  uint64
	handoffs     uint64
	elidedParks  uint64
	maxHeapDepth int
}

// Stats is a snapshot of the engine's internal counters, for diagnostics
// and benchmarks.
type Stats struct {
	// EventsRun is the number of events fired (including elided wakes,
	// which fire logically without touching the queue).
	EventsRun uint64
	// Handoffs counts coroutine resumes, each an engine->process->engine
	// switch pair: one per park/resume pair and one per process start.
	Handoffs uint64
	// ElidedParks counts sleeps satisfied inline because the wake was
	// provably the next event — each one saved a coroutine resume.
	ElidedParks uint64
	// MaxHeapDepth is the high-water mark of the pending-event queue.
	MaxHeapDepth int
}

// FNV-1a parameters for the determinism fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine {
	return &Engine{
		fingerprint: fnvOffset,
		limit:       math.MaxInt64,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have executed, for diagnostics.
func (e *Engine) EventsRun() uint64 { return e.eventsRun }

// Stats returns the engine's counter block.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsRun:    e.eventsRun,
		Handoffs:     e.handoffs,
		ElidedParks:  e.elidedParks,
		MaxHeapDepth: e.maxHeapDepth,
	}
}

// Fingerprint returns an FNV-1a hash of the fired (time, seq) event
// stream so far. Two runs that produce the same fingerprint executed
// bit-identical schedules; any reordering, insertion, or elision of
// events changes it.
func (e *Engine) Fingerprint() uint64 { return e.fingerprint }

// fired folds one executed event into the run counters and fingerprint.
func (e *Engine) fired(at Time, seq uint64) {
	e.eventsRun++
	e.fingerprint = (e.fingerprint ^ uint64(at)) * fnvPrime
	e.fingerprint = (e.fingerprint ^ seq) * fnvPrime
}

// before reports whether event (at, seq) fires before the heap element h.
func before(at Time, seq uint64, h *event) bool {
	return at < h.at || (at == h.at && seq < h.seq)
}

// push inserts an event into the d-ary heap, sifting up with hole
// propagation (the new event is written exactly once).
func (e *Engine) push(at Time, seq uint64, fn func()) {
	h := append(e.events, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !before(at, seq, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = event{at: at, seq: seq, fn: fn}
	e.events = h
	if len(h) > e.maxHeapDepth {
		e.maxHeapDepth = len(h)
	}
}

// pop removes and returns the earliest event. The caller must ensure the
// heap is non-empty.
func (e *Engine) pop() event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback for GC; the slot stays pooled
	h = h[:n]
	e.events = h
	if n > 0 {
		h[0] = last
		siftDown(h, 0)
	}
	return root
}

// siftDown restores the heap invariant below index i, moving the
// smallest child up until h[i] fits.
func siftDown(h []event, i int) {
	n := len(h)
	cur := h[i]
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if before(h[j].at, h[j].seq, &h[m]) {
				m = j
			}
		}
		if !before(h[m].at, h[m].seq, &cur) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = cur
}

// At schedules fn to run in engine context at absolute time t.
// Scheduling in the past panics: it indicates a modelling bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(t, e.seq, fn)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// canElide reports whether a wake event at time `wake`, scheduled right
// now by the currently-running process for itself, would be the very
// next event to fire. If so the process may advance the clock inline
// (via elide) instead of queueing the event and parking — the schedule,
// sequence numbering, and fingerprint come out bit-identical, but the
// switch to the engine and back is saved.
//
// Any queued event at the same time has a smaller sequence number and
// would fire first, so equality disqualifies. Elision is also off while
// stopped (the park must survive Stop/Run cycles) and past the RunUntil
// limit (the process must stay parked at the boundary).
func (e *Engine) canElide(wake Time) bool {
	return !e.stopped && wake <= e.limit &&
		(len(e.events) == 0 || e.events[0].at > wake)
}

// elide fires the would-be wake event inline: it consumes the sequence
// number the queued event would have carried and advances the clock.
// Callers must have checked canElide with no intervening scheduling.
func (e *Engine) elide(wake Time) {
	e.seq++
	e.fired(wake, e.seq)
	e.elidedParks++
	e.now = wake
	e.progressed()
}

// Stop makes Run return after the current event completes. Pending events
// are kept; Run may be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// It returns a *StallError if any processes are still blocked when the
// event queue drains (a simulated deadlock), or — with SetWatchdog
// armed — when events keep firing without any process progressing (a
// livelock). After a stall Run releases the blocked processes, so a
// stalled engine cannot be run again. A panic in a process body
// propagates out of Run.
func (e *Engine) Run() (err error) {
	e.stopped = false
	e.limit = math.MaxInt64
	runStart := time.Now()
	defer func() {
		e.runWallNS += time.Since(runStart).Nanoseconds()
		for _, p := range e.procs {
			if err != nil && !p.done && p.stop != nil {
				p.release() // a process that never started has no coroutine
			}
		}
	}()
	watched := e.watchdog > 0
	for len(e.events) > 0 && !e.stopped {
		ev := e.pop()
		e.now = ev.at
		e.fired(ev.at, ev.seq)
		ev.fn()
		if watched {
			if serr := e.checkStall(); serr != nil {
				return serr
			}
		}
	}
	if e.stopped {
		return nil
	}
	return e.deadlock()
}

// RunUntil executes events with time <= t, then returns. Processes blocked
// past t remain blocked.
func (e *Engine) RunUntil(t Time) {
	e.limit = t
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := e.pop()
		e.now = ev.at
		e.fired(ev.at, ev.seq)
		ev.fn()
	}
	e.limit = math.MaxInt64
	if e.now < t {
		e.now = t
	}
}
