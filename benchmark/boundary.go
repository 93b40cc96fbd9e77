package main

import (
	"time"

	"dsm96/internal/dsm"
	"dsm96/internal/sim"
)

// Call kinds timed at the application/protocol boundary.
const (
	kindRead = iota
	kindWrite
	kindCompute
	kindLock
	kindUnlock
	kindBarrier
	// kindFinish is a Body return: the process hands control back to the
	// engine, which charges the teardown and the switch to the next
	// process here.
	kindFinish
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "compute", "lock", "unlock", "barrier", "finish"}

// Boundary states besides a call kind in progress.
const (
	inApp      = -1
	notStarted = -2
)

var epoch = time.Now()

// nanotime is monotonic host time in nanoseconds since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// boundary splits one simulation's host time at the dsm.System boundary.
// The engine runs one simulated process at a time, so crossings
// alternate: the time from an exit (a call returning, or a Body
// starting) to the next entry on any processor is application time, and
// the time from an entry (a call, or a Body returning) to the next exit
// is charged to the kind of call entered. The sequential oracle, which
// runs Body with P == nil, is timed on its own; construction and result
// assembly are what is left of the cell's wall time.
type boundary struct {
	start, end             int64 // the cell's wall-clock interval
	oracleStart, oracleEnd int64
	first, last            int64 // first exit and latest crossing
	kind                   int   // call kind in progress, inApp or notStarted
	app                    int64
	ns, calls              [numKinds]int64
	// broken records a crossing that did not alternate, which would make
	// the split meaningless.
	broken bool
}

func newBoundary(start int64) *boundary { return &boundary{start: start, kind: notStarted} }

func (b *boundary) exit() {
	now := nanotime()
	switch b.kind {
	case inApp:
		b.broken = true
	case notStarted:
		b.first = now
	default:
		b.ns[b.kind] += now - b.last
	}
	b.kind, b.last = inApp, now
}

func (b *boundary) enter(kind int) {
	now := nanotime()
	if b.kind == inApp {
		b.app += now - b.last
	} else {
		b.broken = true
	}
	b.calls[kind]++
	b.kind, b.last = kind, now
}

func (b *boundary) oracle() int64 { return b.oracleEnd - b.oracleStart }

func (b *boundary) protocol() int64 {
	var t int64
	for _, ns := range b.ns {
		t += ns
	}
	return t
}

// other is construction (before the first Body, less the oracle) plus
// result assembly (after the last Body returns).
func (b *boundary) other() int64 {
	return b.first - b.start - b.oracle() + b.end - b.last
}

// timedApp forwards a dsm.App (and dsm.Sized) and hands Body an Env
// whose System is timed.
type timedApp struct {
	dsm.App
	b *boundary
}

func (a *timedApp) SetProcs(n int) {
	if s, ok := a.App.(dsm.Sized); ok {
		s.SetProcs(n)
	}
}

func (a *timedApp) Body(env *dsm.Env) {
	if env.P == nil {
		a.b.oracleStart = nanotime()
		a.App.Body(env)
		a.b.oracleEnd = nanotime()
		return
	}
	a.b.exit()
	a.App.Body(&dsm.Env{ID: env.ID, P: env.P, Sys: &timedSystem{System: env.Sys, b: a.b}})
	a.b.enter(kindFinish)
}

// timedSystem records a boundary crossing around every call an
// application makes; Heap and Procs pass through untimed.
type timedSystem struct {
	dsm.System
	b *boundary
}

func (s *timedSystem) Read32(p *sim.Proc, id int, a dsm.Addr) uint32 {
	s.b.enter(kindRead)
	v := s.System.Read32(p, id, a)
	s.b.exit()
	return v
}

func (s *timedSystem) Read64(p *sim.Proc, id int, a dsm.Addr) uint64 {
	s.b.enter(kindRead)
	v := s.System.Read64(p, id, a)
	s.b.exit()
	return v
}

func (s *timedSystem) Write32(p *sim.Proc, id int, a dsm.Addr, v uint32) {
	s.b.enter(kindWrite)
	s.System.Write32(p, id, a, v)
	s.b.exit()
}

func (s *timedSystem) Write64(p *sim.Proc, id int, a dsm.Addr, v uint64) {
	s.b.enter(kindWrite)
	s.System.Write64(p, id, a, v)
	s.b.exit()
}

func (s *timedSystem) Compute(p *sim.Proc, id int, cycles sim.Time) {
	s.b.enter(kindCompute)
	s.System.Compute(p, id, cycles)
	s.b.exit()
}

func (s *timedSystem) Lock(p *sim.Proc, id int, lock int) {
	s.b.enter(kindLock)
	s.System.Lock(p, id, lock)
	s.b.exit()
}

func (s *timedSystem) Unlock(p *sim.Proc, id int, lock int) {
	s.b.enter(kindUnlock)
	s.System.Unlock(p, id, lock)
	s.b.exit()
}

func (s *timedSystem) Barrier(p *sim.Proc, id int, barrier int) {
	s.b.enter(kindBarrier)
	s.System.Barrier(p, id, barrier)
	s.b.exit()
}

// span is one interval of the trace: a cell, or one of its parts.
// Spans of one cell share trace.
type span struct {
	Trace  string         `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spans returns the cell span and its children: oracle, simulate
// (carrying the per-kind totals), and an other span for each stretch of
// construction or assembly.
func (b *boundary) spans(trace string, attrs map[string]any) []span {
	out := []span{{Trace: trace, ID: 1, Name: "cell", Start: b.start, End: b.end, Attrs: attrs}}
	child := func(name string, start, end int64, attrs map[string]any) {
		if end > start {
			out = append(out, span{Trace: trace, ID: len(out) + 1, Parent: 1, Name: name, Start: start, End: end, Attrs: attrs})
		}
	}
	kinds := map[string]any{"app_ns": b.app}
	for k, name := range kindNames {
		kinds[name+"_calls"] = b.calls[k]
		kinds[name+"_ns"] = b.ns[k]
	}
	child("other", b.start, b.oracleStart, nil)
	child("oracle", b.oracleStart, b.oracleEnd, nil)
	child("other", b.oracleEnd, b.first, nil)
	child("simulate", b.first, b.last, kinds)
	child("other", b.last, b.end, nil)
	return out
}
