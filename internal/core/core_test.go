package core_test

import (
	"strings"
	"testing"

	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/lrc"
	"dsm96/internal/params"
	"dsm96/internal/tmk"
	"dsm96/internal/trace"
)

// pingpong bounces a value between two processors through locks.
type pingpong struct {
	rounds int
	cell   int64
	result float64
}

func (a *pingpong) Name() string { return "pingpong" }
func (a *pingpong) Setup(h *lrc.Heap) {
	a.result = 0
	a.cell = h.AllocPages(1)
}
func (a *pingpong) Body(env *dsm.Env) {
	for r := env.ID; r < a.rounds; r += env.NProcs() {
		env.Lock(0)
		env.WI(a.cell, env.RI(a.cell)+1)
		env.Unlock(0)
	}
	env.Barrier(0)
	if env.ID == 0 {
		a.result = float64(env.RI(a.cell))
	}
	env.Barrier(1)
}
func (a *pingpong) Result() float64 { return a.result }

// broken computes a wrong answer in parallel runs (reads without
// synchronizing), to prove validation rejects it.
type broken struct {
	cell   int64
	result float64
}

func (a *broken) Name() string { return "broken" }
func (a *broken) Setup(h *lrc.Heap) {
	a.result = 0
	a.cell = h.AllocPages(1)
}
func (a *broken) Body(env *dsm.Env) {
	// The last processor overwrites the cell, but processor 0 reads it
	// without synchronizing: sequentially it sees the overwrite (9),
	// in parallel it reads its own stale 7.
	if env.ID == 0 {
		env.WI(a.cell, 7)
	}
	if env.ID == env.NProcs()-1 {
		env.WI(a.cell, 9)
	}
	if env.ID == 0 {
		a.result = float64(env.RI(a.cell))
	}
}
func (a *broken) Result() float64 { return a.result }

func TestRunValidates(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 4
	r, err := core.Run(cfg, core.TM(tmk.Base), &pingpong{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Validated() || r.AppResult != 8 {
		t.Fatalf("result = %v (validated=%v)", r.AppResult, r.Validated())
	}
	if r.Protocol != "Base" || r.App != "pingpong" {
		t.Fatalf("labels wrong: %q %q", r.Protocol, r.App)
	}
}

func TestRunRejectsWrongAnswers(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 8
	_, err := core.Run(cfg, core.TM(tmk.Base), &broken{})
	if err == nil {
		t.Fatal("racy application validated against the oracle")
	}
	if !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Run refuses an invalid machine with Validate's error, on both protocol
// families, before any constructor sees it: a geometry the shift/mask
// address decode cannot represent must not reach the cache or frames.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, spec := range []core.Spec{core.TM(tmk.IPD), core.AURC(false)} {
		for field, mut := range map[string]func(*params.Config){
			"Processors":    func(c *params.Config) { c.Processors = 0 },
			"PageSize":      func(c *params.Config) { c.PageSize = 4100 },
			"CacheLineSize": func(c *params.Config) { c.CacheLineSize = 48 },
			"CacheSize":     func(c *params.Config) { c.CacheSize = 96 * 1024 },
		} {
			cfg := params.Default()
			cfg.Processors = 4
			mut(&cfg)
			_, err := core.Run(cfg, spec, &pingpong{rounds: 2})
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s with bad %s: err = %v, want one naming %s", spec, field, err, field)
			}
		}
	}
}

func TestSpecStrings(t *testing.T) {
	cases := map[string]core.Spec{
		"Base":   core.TM(tmk.Base),
		"I+P+D":  core.TM(tmk.IPD),
		"AURC":   core.AURC(false),
		"AURC+P": core.AURC(true),
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestSequentialCycles(t *testing.T) {
	cfg := params.Default()
	c, err := core.SequentialCycles(cfg, &pingpong{rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("sequential cycles = %d", c)
	}
	// A 4-processor run of the same workload should take less wall time
	// than 4x the sequential run (some speedup) — sanity, not precision.
	cfg.Processors = 4
	r, err := core.Run(cfg, core.TM(tmk.Base), &pingpong{rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.RunningTime <= 0 {
		t.Fatal("no parallel time")
	}
}

func TestValidatedTolerance(t *testing.T) {
	r := &core.Result{AppResult: 1.0000000001, SeqResult: 1.0}
	if !r.Validated() {
		t.Error("tiny FP difference rejected")
	}
	r = &core.Result{AppResult: 1.1, SeqResult: 1.0}
	if r.Validated() {
		t.Error("10% difference accepted")
	}
	r = &core.Result{AppResult: 0, SeqResult: 0}
	if !r.Validated() {
		t.Error("exact zero match rejected")
	}
	r = &core.Result{AppResult: 0, SeqResult: 1}
	if r.Validated() {
		t.Error("zero vs nonzero accepted")
	}
}

func TestRunAURCKind(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 4
	r, err := core.Run(cfg, core.AURC(false), &pingpong{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Protocol != "AURC" {
		t.Fatalf("protocol = %q", r.Protocol)
	}
}

func TestSpecOptionLabels(t *testing.T) {
	s := core.TMOpt(tmk.IPD, tmk.Options{Strategy: tmk.PrefetchAlways})
	if s.String() != "I+P+D(always)" {
		t.Errorf("label = %q", s.String())
	}
	s = core.TMOpt(tmk.IPD, tmk.Options{NoPrefetchPriority: true})
	if s.String() != "I+P+D(noprio)" {
		t.Errorf("label = %q", s.String())
	}
	// Non-prefetching modes don't advertise a strategy.
	s = core.TMOpt(tmk.ID, tmk.Options{Strategy: tmk.PrefetchAlways})
	if s.String() != "I+D" {
		t.Errorf("label = %q", s.String())
	}
}

func TestRunWithOptions(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 4
	for _, strat := range []tmk.PrefetchStrategy{tmk.PrefetchReferenced, tmk.PrefetchAlways, tmk.PrefetchAdaptive} {
		spec := core.TMOpt(tmk.IPD, tmk.Options{Strategy: strat})
		if _, err := core.Run(cfg, spec, &pingpong{rounds: 8}); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

func TestResultCarriesPageProfiles(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 4
	r, err := core.Run(cfg, core.TM(tmk.Base), &pingpong{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pages) == 0 {
		t.Fatal("no page profiles collected")
	}
	var faults uint64
	for _, p := range r.Pages {
		faults += p.Faults
	}
	if faults == 0 {
		t.Fatal("page profiles empty")
	}
	// AURC collects them too.
	r, err = core.Run(cfg, core.AURC(false), &pingpong{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pages) == 0 {
		t.Fatal("AURC collected no page profiles")
	}
}

func TestTracerPlumbing(t *testing.T) {
	cfg := params.Default()
	cfg.Processors = 4
	buf := trace.New(64)
	spec := core.TM(tmk.Base)
	spec.Tracer = buf
	if _, err := core.Run(cfg, spec, &pingpong{rounds: 8}); err != nil {
		t.Fatal(err)
	}
	if buf.Total() == 0 {
		t.Fatal("tracer received no events")
	}
	evs := buf.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("trace not chronological")
		}
	}
}

// deadlockApp wedges every processor but 0: they block forever on a
// lock that processor 0 acquires and never releases. The sequential
// oracle only runs processor 0's body, so the app itself is "correct";
// the simulated run must be caught by the liveness machinery.
type deadlockApp struct{ addr dsm.Addr }

func (a *deadlockApp) Name() string { return "deadlock" }
func (a *deadlockApp) Setup(h *lrc.Heap) {
	a.addr = h.Alloc(8, 8)
}
func (a *deadlockApp) Body(env *dsm.Env) {
	if env.ID == 0 {
		env.Lock(0)
		env.WI(a.addr, 1)
		env.Compute(1000)
		return // exits holding lock 0
	}
	env.Compute(2000)
	env.Lock(0) // blocks forever
	env.Unlock(0)
}
func (a *deadlockApp) Result() float64 { return 1 }

// TestStallStructured: when the mesh wedges, the caller gets a
// structured stall report naming the blocked processors alongside the
// error, never a hung process.
func TestStallStructured(t *testing.T) {
	res, err := core.Run(params.Default(), core.TM(tmk.Base), &deadlockApp{})
	if err == nil {
		t.Fatal("wedged run reported success")
	}
	if res == nil || res.Stall == nil {
		t.Fatalf("no structured stall report (err: %v)", err)
	}
	if !res.Stall.Deadlock {
		t.Errorf("stall not classified as deadlock: %+v", res.Stall)
	}
	if len(res.Stall.Report.Blocked) == 0 {
		t.Error("stall report names no blocked processors")
	}
}
