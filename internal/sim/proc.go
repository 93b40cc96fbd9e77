//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a coroutine-style simulated process. Its body runs as a Go
// runtime coroutine (iter.Pull) that the engine resumes and that parks by
// yielding; each switch hands the thread over directly, bypassing the
// goroutine scheduler, so at most one Proc (or the engine) runs at a time.
//
// All Proc methods that can block (Sleep, WaitOn, Resource.Use, ...) must
// be called from the Proc's own body.
type Proc struct {
	ID   int
	Name string

	eng  *Engine
	done bool

	// The coroutine, bound at start: next resumes, yield parks, stop releases.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// resumeFn is the resume method bound once at construction, so hot
	// paths (Sleep, Cond wakeups) schedule it without allocating a new
	// method-value closure per event.
	resumeFn func()

	// blockReason describes what the process is waiting on, for deadlock
	// reports and stall accounting by higher layers.
	blockReason string

	// OnBlock, if non-nil, is invoked when the process parks, with the
	// reason; OnUnblock with the same reason and the cycles spent parked.
	// The DSM layers use these hooks for time-breakdown accounting.
	OnBlock   func(reason string)
	OnUnblock func(reason string, waited Time)

	blockedAt Time
}

// NewProc registers a process whose body will start executing at time
// `start`. The body runs to completion; the process is then done.
func (e *Engine) NewProc(id int, name string, start Time, body func(*Proc)) *Proc {
	p := &Proc{ID: id, Name: name, eng: e}
	p.resumeFn = p.resume
	e.procs = append(e.procs, p)
	e.At(start, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p)
		})
		p.resume()
	})
	return p
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park suspends the process until something calls resume. It must only
// be called from the process's own body.
func (p *Proc) park(reason string) {
	p.blockReason = reason
	p.blockedAt = p.eng.now
	if p.OnBlock != nil {
		p.OnBlock(reason)
	}
	if !p.yield(struct{}{}) {
		panic(released{}) // the engine released this stalled process
	}
	if p.OnUnblock != nil {
		p.OnUnblock(reason, p.eng.now-p.blockedAt)
	}
	p.blockReason = ""
}

// resume restarts a parked process at the current simulated time and
// returns once it parks again or finishes. It must be called from engine
// context (inside an event callback). A panic in the body propagates.
func (p *Proc) resume() {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %s", p.Name))
	}
	p.eng.progressed()
	p.eng.handoffs++
	if _, ok := p.next(); !ok {
		p.done = true
	}
}

type released struct{} // the panic that unwinds a body released after a stall

// release unwinds a parked process so that its coroutine exits.
func (p *Proc) release() {
	defer func() {
		if r := recover(); r != nil && r != (released{}) {
			panic(r)
		}
	}()
	p.stop()
}

// Sleep suspends the process for d cycles of simulated time.
func (p *Proc) Sleep(d Time) { p.SleepReason(d, "sleep") }

// SleepReason is Sleep with an accounting label.
//
// Fast path: when the wake event would be the very next event to fire
// (nothing else pending before now+d), the sleep completes inline —
// same sequence numbering, same fingerprint, same hook calls as the
// queued path, but without switching to the engine and back.
func (p *Proc) SleepReason(d Time, reason string) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	if d > 0 {
		p.sleep(d, reason)
	}
}

// Yield lets every event already scheduled for the current instant run
// before the process continues. With nothing pending at the current
// instant it is satisfied inline, like SleepReason's fast path.
func (p *Proc) Yield() { p.sleep(0, "yield") }

// sleep parks for d >= 0 cycles, or elides the park when it can.
func (p *Proc) sleep(d Time, reason string) {
	e := p.eng
	if wake := e.now + d; e.canElide(wake) {
		if p.OnBlock != nil {
			p.OnBlock(reason)
		}
		e.elide(wake)
		if p.OnUnblock != nil {
			p.OnUnblock(reason, d)
		}
		return
	}
	e.After(d, p.resumeFn)
	p.park(reason)
}

// Cond is a wait queue: processes park on it, engine-context code wakes
// them. Wakeups are FIFO, preserving determinism.
type Cond struct {
	Name    string
	waiters []*Proc
}

// Wait parks the calling process on the condition with an accounting label.
func (c *Cond) Wait(p *Proc, reason string) {
	c.waiters = append(c.waiters, p)
	p.park(reason)
}

// Waiters reports how many processes are parked on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Signal wakes the first waiter (if any) at the current time.
// It must be called from engine context. It reports whether a process
// was woken.
func (c *Cond) Signal(e *Engine) bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	e.After(0, p.resumeFn)
	return true
}

// Broadcast wakes every waiter, in FIFO order, at the current time.
func (c *Cond) Broadcast(e *Engine) int {
	n := len(c.waiters)
	for _, p := range c.waiters {
		e.After(0, p.resumeFn)
	}
	c.waiters = c.waiters[:0]
	return n
}

// Gate is a one-shot latch: processes wait until it opens; once open,
// waits return immediately. Used for request/reply completion.
type Gate struct {
	open bool
	cond Cond
}

// Open releases all current and future waiters. Engine context only.
func (g *Gate) Open(e *Engine) {
	if g.open {
		return
	}
	g.open = true
	g.cond.Broadcast(e)
}

// IsOpen reports whether the gate has opened.
func (g *Gate) IsOpen() bool { return g.open }

// Wait parks until the gate opens (or returns at once if it already has).
func (g *Gate) Wait(p *Proc, reason string) {
	if g.open {
		return
	}
	g.cond.Wait(p, reason)
}
