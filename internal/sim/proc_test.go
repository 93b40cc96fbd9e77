package sim

import (
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.NewProc(0, "p0", 0, func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 100 {
		t.Fatalf("woke at %d, want 100", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc(0, "a", 0, func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a1")
		p.Sleep(20) // wakes at 30
		order = append(order, "a2")
	})
	e.NewProc(1, "b", 5, func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(10) // wakes at 15
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	var c Cond
	var woke []int
	for i := 0; i < 3; i++ {
		id := i
		e.NewProc(id, "w", Time(id), func(p *Proc) {
			c.Wait(p, "test")
			woke = append(woke, id)
		})
	}
	e.At(10, func() {
		if c.Waiters() != 3 {
			t.Errorf("waiters = %d, want 3", c.Waiters())
		}
		c.Signal(e)
	})
	e.At(20, func() { c.Broadcast(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != 0 || woke[1] != 1 || woke[2] != 2 {
		t.Fatalf("wake order = %v, want [0 1 2]", woke)
	}
}

func TestSignalEmptyCond(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.At(0, func() {
		if c.Signal(e) {
			t.Error("Signal on empty cond reported a wake")
		}
		if n := c.Broadcast(e); n != 0 {
			t.Errorf("Broadcast woke %d, want 0", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGate(t *testing.T) {
	e := NewEngine()
	var g Gate
	var at Time = -1
	e.NewProc(0, "w", 0, func(p *Proc) {
		g.Wait(p, "gate")
		at = p.Now()
		// A second wait on an open gate returns immediately.
		g.Wait(p, "gate")
		if p.Now() != at {
			t.Error("second Wait on open gate blocked")
		}
	})
	e.At(42, func() { g.Open(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 42 {
		t.Fatalf("gate released at %d, want 42", at)
	}
	if !g.IsOpen() {
		t.Error("gate should report open")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.NewProc(0, "stuck", 0, func(p *Proc) {
		c.Wait(p, "never-signaled")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestBlockHooks(t *testing.T) {
	e := NewEngine()
	var blocked, unblocked string
	var waited Time
	p := e.NewProc(0, "p", 0, func(p *Proc) {
		p.SleepReason(33, "lock")
	})
	p.OnBlock = func(r string) { blocked = r }
	p.OnUnblock = func(r string, w Time) { unblocked = r; waited = w }
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if blocked != "lock" || unblocked != "lock" || waited != 33 {
		t.Fatalf("hooks: blocked=%q unblocked=%q waited=%d", blocked, unblocked, waited)
	}
}

func TestYield(t *testing.T) {
	e := NewEngine()
	var order []string
	e.NewProc(0, "p", 0, func(p *Proc) {
		order = append(order, "before")
		p.Yield()
		order = append(order, "after")
	})
	e.At(0, func() { order = append(order, "event") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The proc starts first (registered first), yields, the 0-time event
	// runs, then the proc resumes.
	want := []string{"before", "event", "after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestProcPanicReachesRun: a panic inside a process body surfaces in the
// goroutine that called Run, where the caller can recover it.
func TestProcPanicReachesRun(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.NewProc(0, "boom", 0, func(p *Proc) {
		c.Wait(p, "kick")
		panic("boom")
	})
	e.At(7, func() { c.Signal(e) })
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run surfaced %v, want the body's panic \"boom\"", got)
	}
}

// BenchmarkProcHandoff measures one processor park/resume handoff. Two
// processes ping-pong through a Cond: each signals the other and parks,
// so every wake is a queued event (park elision cannot fire) and every
// iteration costs one engine resume.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	var c Cond
	for id := 0; id < 2; id++ {
		e.NewProc(id, "pingpong", 0, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				c.Signal(e)
				c.Wait(p, "pingpong")
			}
			c.Signal(e)
		})
	}
	b.ReportAllocs()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	s := e.Stats()
	if s.ElidedParks != 0 {
		b.Fatalf("%d parks elided; the benchmark must pay every handoff", s.ElidedParks)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Handoffs), "ns/handoff")
}
