package sim

import (
	"fmt"
	"math"
	"time"
)

// Parallel execution: the engine can be sharded across OS threads with
// Parallelize. Each shard owns a contiguous block of nodes and advances
// its own event queue independently up to a conservative horizon — the
// earliest pending event anywhere plus the minimum cross-shard delivery
// latency — then a merge barrier replays the fired records in global
// (time, seq) order on the root engine, assigning the definitive
// sequence numbers. The replayed schedule is bit-identical to the
// sequential engine's: same fired (time, seq) stream, same Fingerprint,
// same EventsRun.
//
// Why this works:
//
//   - The fired stream of a sequential run is strictly sorted by
//     (time, seq): when an event pops, any not-yet-fired event at the
//     same time is either already queued with a larger seq or will be
//     scheduled later with a larger seq.
//   - Within one shard, the window loop pops in exactly the order the
//     sequential engine would have fired those events relative to each
//     other, because cross-shard work cannot land inside the window
//     (every cross-shard message needs at least `lookahead` cycles of
//     wire time, and the horizon is minNext + lookahead).
//   - Scheduling calls made during a window get provisional keys that
//     preserve local order; the replay walks the merged stream and
//     re-executes each event's *scheduling side effects* (sequence
//     allocation and deferred cross-shard work) in global order, so
//     every event ends up with the sequence number the sequential
//     engine would have given it.
//
// Shard engines never elide parks (canElide checks e.par): elision is
// an execution shortcut that is only sound when the eliding engine can
// see the global queue. The sequential engine's elision is itself
// fingerprint-transparent — it consumes the same (time, seq) slot the
// queued event would have — so a parallel run in which every wake is a
// real event still produces the identical fired stream.

// Parallel phases. The coordinator goroutine writes phase strictly
// before handing control to workers (start channel send) or after
// taking it back (done channel receive), so workers always observe a
// consistent value without atomics.
const (
	phaseStaging = iota // single-threaded: setup, or between windows
	phaseWindow         // workers running their shards concurrently
	phaseReplay         // coordinator replaying the merged record stream
)

// provBase marks provisional sequence keys handed out during a window.
// It exceeds any real sequence number (the root engine would need 2^63
// events), so provisional events sort after same-time events that
// already hold final numbers — exactly where the sequential engine
// would have placed them.
const provBase = uint64(1) << 63

// action is one scheduling side effect logged during a window, in call
// order. Exactly one of the fields is set: key != 0 records an At call
// (replay allocates the final sequence number), fn != nil records a
// Deferred call (replay executes it in root context).
type action struct {
	key uint64
	fn  func()
}

// record is one event fired by a shard during a window, with the
// scheduling side effects its callback produced.
type record struct {
	at   Time
	key  uint64 // heap key at pop time: final, or provisional (>= provBase)
	acts []action
}

// shardState is the per-shard bookkeeping attached to a shard engine.
type shardState struct {
	idx      int
	localSeq uint64    // provisional-key allocator, reset each window
	log      []*record // fired records, in shard execution order
	cur      *record   // record of the event currently executing
	// renum maps this shard's provisional keys to the final sequence
	// numbers replay assigned. Per shard: two shards reuse the same
	// provisional key space every window.
	renum map[uint64]uint64
	start chan Time     // coordinator -> worker: run a window to this horizon
	done  chan struct{} // worker -> coordinator: window complete

	// Self-profile accounting (see profile.go). eventsFired is
	// deterministic; busyNS and waitNS are wall-clock. All three are
	// written only by the shard's worker goroutine inside a window, so
	// the coordinator (and post-run readers) see them race-free through
	// the done-channel synchronization.
	eventsFired uint64
	busyNS      int64
	waitNS      int64
}

// parRuntime coordinates a parallel run. It hangs off the root engine
// and every shard engine.
type parRuntime struct {
	root      *Engine
	shards    []*Engine
	shardOf   []int // node -> shard index
	lookahead Time
	phase     int
	horizon   Time  // exclusive upper bound of the current window
	cursor    []int // replay merge position per shard

	// Self-profile accounting (see profile.go): merge-round counters
	// and per-window histograms (deterministic), plus the coordinator's
	// merge-barrier wall time (host-dependent).
	windows         uint64
	replayedActions uint64
	deferredCalls   uint64
	winEvents       hist
	winAdvance      hist
	winActions      hist
	prevMinNext     Time
	mergeWallNS     int64
}

// Parallelize shards the engine across `workers` OS threads, with nodes
// partitioned into contiguous blocks (node i belongs to shard
// i*workers/nodes — row bands of the simulated mesh, so neighboring
// nodes share a shard and most traffic stays shard-local). lookahead is
// the minimum number of cycles any cross-node message spends in flight;
// it bounds how far a shard may safely run ahead of the others
// (network.MinDeliveryLookahead derives it from the link parameters).
//
// workers is clamped to [1, nodes]; 1 worker leaves the engine in its
// sequential mode. Parallelize must be called before any event or
// process is scheduled, and at most once.
func (e *Engine) Parallelize(workers, nodes int, lookahead Time) {
	if e.par != nil || e.sh != nil {
		panic("sim: Parallelize called twice, or on a shard engine")
	}
	if nodes < 1 {
		nodes = 1
	}
	if workers > nodes {
		workers = nodes
	}
	if workers <= 1 {
		return
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: Parallelize needs a positive lookahead, got %d", lookahead))
	}
	if e.seq != 0 || len(e.events) > 0 || len(e.procs) > 0 {
		panic("sim: Parallelize on an engine that already has scheduled work")
	}
	par := &parRuntime{
		root:      e,
		lookahead: lookahead,
		shardOf:   make([]int, nodes),
		cursor:    make([]int, workers),
	}
	for i := range par.shardOf {
		par.shardOf[i] = i * workers / nodes
	}
	for w := 0; w < workers; w++ {
		se := NewEngine()
		se.par = par
		se.sh = &shardState{
			idx:   w,
			renum: make(map[uint64]uint64),
			start: make(chan Time),
			done:  make(chan struct{}),
		}
		par.shards = append(par.shards, se)
	}
	e.par = par
}

// Workers reports how many shards the engine runs (1 when sequential).
func (e *Engine) Workers() int {
	if e.par == nil {
		return 1
	}
	return len(e.par.shards)
}

// View returns the engine that owns node's events: the shard engine
// under Parallelize, the engine itself otherwise. All scheduling and
// process operations for a node must go through its view; the view of a
// sequential engine is the engine, so callers need no mode check.
func (e *Engine) View(node int) *Engine {
	if e.par == nil {
		return e
	}
	return e.par.shards[e.par.shardOf[node]]
}

// Deferred runs fn now — unless the caller is a shard executing a
// window, in which case fn is logged and runs during the merge barrier
// in root context, serialized in global event order. It is the hook for
// work that must observe global state (cross-shard scheduling, shared
// counters, sequence-sensitive allocation): on a sequential engine it
// is a plain call, so instrumented code costs nothing extra there.
func (e *Engine) Deferred(fn func()) {
	if e.sh != nil && e.par.phase == phaseWindow {
		e.sh.cur.acts = append(e.sh.cur.acts, action{fn: fn})
		return
	}
	fn()
}

// at is Engine.At's parallel path: e is always a shard engine (the root
// of a parallel run schedules nothing itself).
func (par *parRuntime) at(e *Engine, t Time, fn func()) {
	sh := e.sh
	if sh == nil {
		panic("sim: scheduling on the root of a parallel engine; schedule through View(node)")
	}
	switch par.phase {
	case phaseWindow:
		// Concurrent: touch only shard-local state. The final sequence
		// number is allocated when replay reaches the logged action.
		sh.localSeq++
		key := provBase + sh.localSeq
		sh.cur.acts = append(sh.cur.acts, action{key: key})
		e.push(t, key, fn)
	case phaseReplay:
		if t < par.horizon {
			panic(fmt.Sprintf(
				"sim: lookahead violation: replay scheduled an event at %d inside the window ending at %d (lookahead %d overestimates the minimum cross-shard latency)",
				t, par.horizon, par.lookahead))
		}
		par.root.seq++
		e.push(t, par.root.seq, fn)
	default: // staging: single-threaded, final numbering directly
		par.root.seq++
		e.push(t, par.root.seq, fn)
	}
}

// run is Engine.Run for a parallelized engine: window / barrier /
// replay rounds until every shard's queue drains or Stop is called.
func (par *parRuntime) run() error {
	root := par.root
	// Workers live for one Run call: fresh channels each time so Run can
	// be called again after a drain or a Stop.
	for _, se := range par.shards {
		se.sh.start = make(chan Time)
		se.sh.done = make(chan struct{})
		go shardWorker(se)
	}
	defer func() {
		for _, se := range par.shards {
			close(se.sh.start)
		}
	}()
	watched := root.watchdog > 0
	for !root.stopped {
		minNext := Time(math.MaxInt64)
		for _, se := range par.shards {
			if len(se.events) > 0 && se.events[0].at < minNext {
				minNext = se.events[0].at
			}
		}
		if minNext == math.MaxInt64 {
			break // drained
		}
		par.horizon = minNext + par.lookahead
		par.phase = phaseWindow
		for _, se := range par.shards {
			se.sh.start <- par.horizon
		}
		for _, se := range par.shards {
			<-se.sh.done
		}
		par.phase = phaseReplay
		mergeStart := time.Now()
		evs, acts := par.replay()
		par.phase = phaseStaging
		par.rekey()
		par.mergeWallNS += time.Since(mergeStart).Nanoseconds()
		par.windows++
		par.winEvents.add(evs)
		par.winActions.add(acts)
		if par.windows > 1 {
			par.winAdvance.add(uint64(minNext - par.prevMinNext))
		}
		par.prevMinNext = minNext
		if watched {
			// Progress is stamped on the shard a process belongs to;
			// merge the stamps before the (coarsened, once-per-window)
			// liveness check.
			last := root.lastProgressAt
			for _, se := range par.shards {
				if se.lastProgressAt > last {
					last = se.lastProgressAt
				}
			}
			root.lastProgressAt = last
			if serr := root.checkStall(); serr != nil {
				return serr
			}
		}
		for _, se := range par.shards {
			if se.stopped {
				// Stop was called from shard context; it takes effect
				// at the window boundary (windows are atomic).
				root.stopped = true
				se.stopped = false
			}
		}
	}
	if root.stopped {
		return nil
	}
	return root.deadlock()
}

// shardWorker runs one shard's windows. Each window pops and executes
// every event strictly before the horizon; the callbacks (and any
// process coroutines they resume) run with this shard's engine as their
// view, touching only shard-owned simulation state.
func shardWorker(e *Engine) {
	sh := e.sh
	var lastDone time.Time
	for horizon := range sh.start {
		windowStart := time.Now()
		if !lastDone.IsZero() {
			sh.waitNS += windowStart.Sub(lastDone).Nanoseconds()
		}
		for len(e.events) > 0 && e.events[0].at < horizon {
			ev := e.pop()
			e.now = ev.at
			rec := &record{at: ev.at, key: ev.seq}
			sh.cur = rec
			ev.fn()
			sh.cur = nil
			sh.log = append(sh.log, rec)
			sh.eventsFired++
		}
		lastDone = time.Now()
		sh.busyNS += lastDone.Sub(windowStart).Nanoseconds()
		sh.done <- struct{}{}
	}
}

// finalSeq resolves a record's heap key to its definitive sequence
// number. A provisional key's renum entry always exists by the time the
// record is a merge head: the At call that created the event was logged
// in an earlier record of the same shard stream, already replayed.
func (par *parRuntime) finalSeq(sh *shardState, rec *record) uint64 {
	if rec.key < provBase {
		return rec.key
	}
	fs, ok := sh.renum[rec.key]
	if !ok {
		panic(fmt.Sprintf("sim: replay reached provisional key %d before its At was replayed", rec.key))
	}
	return fs
}

// replay merges the shards' fired-record streams by (time, final seq) —
// the exact order the sequential engine fired these events — folding
// each into the root fingerprint and re-executing the logged scheduling
// side effects so sequence allocation interleaves as it did (or would
// have) sequentially. Returns the window's event and action counts for
// the self-profile.
func (par *parRuntime) replay() (evs, acts uint64) {
	root := par.root
	for i := range par.cursor {
		par.cursor[i] = 0
	}
	for {
		best := -1
		var bestAt Time
		var bestSeq uint64
		for w, se := range par.shards {
			sh := se.sh
			if par.cursor[w] >= len(sh.log) {
				continue
			}
			rec := sh.log[par.cursor[w]]
			fs := par.finalSeq(sh, rec)
			if best == -1 || rec.at < bestAt || (rec.at == bestAt && fs < bestSeq) {
				best, bestAt, bestSeq = w, rec.at, fs
			}
		}
		if best == -1 {
			par.replayedActions += acts
			return evs, acts
		}
		sh := par.shards[best].sh
		rec := sh.log[par.cursor[best]]
		par.cursor[best]++
		root.now = rec.at
		root.fired(rec.at, bestSeq)
		evs++
		acts += uint64(len(rec.acts))
		for _, a := range rec.acts {
			if a.fn != nil {
				a.fn()
				par.deferredCalls++
				continue
			}
			root.seq++
			sh.renum[a.key] = root.seq
		}
	}
}

// rekey rewrites the provisional keys still pending in each shard's
// heap to their final sequence numbers and restores the heap invariant
// (renumbered events can sort ahead of events replay pushed at equal
// times), then resets the per-window state.
func (par *parRuntime) rekey() {
	for _, se := range par.shards {
		sh := se.sh
		changed := false
		for i := range se.events {
			if se.events[i].seq >= provBase {
				fs, ok := sh.renum[se.events[i].seq]
				if !ok {
					panic(fmt.Sprintf("sim: pending event holds unlogged provisional key %d", se.events[i].seq))
				}
				se.events[i].seq = fs
				changed = true
			}
		}
		if changed {
			heapify(se.events)
		}
		sh.log = sh.log[:0]
		for k := range sh.renum {
			delete(sh.renum, k)
		}
		sh.localSeq = 0
	}
}

// heapify restores the d-ary heap invariant over the whole slice in
// O(n), bottom up.
func heapify(h []event) {
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		siftDown(h, i)
	}
}
