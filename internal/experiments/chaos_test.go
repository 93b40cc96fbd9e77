package experiments

import (
	"runtime"
	"testing"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/stats"
	"dsm96/internal/tmk"
)

// TestDegradedMatchesBase is the degradation-correctness anchor: with
// every controller crashed from cycle 0, an I+P+D run is forced to do
// all protocol work in software — CPU send path, twin-based diffs, no
// prefetching — which is exactly Base's machinery. The answer must
// equal Base's bit for bit, both runs must pass the sequential oracle,
// and the breakdown must have Base's shape (every category Base
// exercises, the degraded run exercises too).
func TestDegradedMatchesBase(t *testing.T) {
	const procs = 8
	for _, name := range []string{"tsp", "water", "radix"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(spec core.Spec) *core.Result {
				app, err := apps.Tiny(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := params.Default()
				cfg.Processors = procs
				res, err := core.Run(cfg, spec, app)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run(core.TM(tmk.Base))

			plan := &faults.Plan{}
			if err := faults.ParseCtrlCrash(plan, "all@0", procs); err != nil {
				t.Fatal(err)
			}
			spec := core.TM(tmk.IPD)
			spec.Faults = plan
			deg := run(spec)

			if !deg.Validated() {
				t.Fatalf("degraded run failed the sequential oracle: %v vs %v",
					deg.AppResult, deg.SeqResult)
			}
			if deg.AppResult != base.AppResult {
				t.Errorf("degraded I+P+D computed %v, Base computed %v", deg.AppResult, base.AppResult)
			}
			sum := deg.Breakdown.Sum()
			if sum.ControllerFailovers != procs {
				t.Errorf("%d failovers, want one per node (%d)", sum.ControllerFailovers, procs)
			}
			if sum.DegradedNodeCycles == 0 {
				t.Error("no degraded cycles accounted despite all-crash-at-0")
			}
			if sum.SoftwareFallbackDiffs == 0 {
				t.Error("no software-fallback diffs despite all protocol work degraded")
			}
			baseSum := base.Breakdown.Sum()
			for _, c := range stats.Categories() {
				if baseSum.Cycles[c] > 0 && sum.Cycles[c] == 0 {
					t.Errorf("breakdown category %s: Base has %d cycles, degraded run has none",
						c, baseSum.Cycles[c])
				}
			}
		})
	}
}

// TestCtrlFaultsVacuousOffController: controller schedules must not
// move a single event on protocols with no controller to fail — Base
// and AURC run the same schedule with and without an all-crash plan.
func TestCtrlFaultsVacuousOffController(t *testing.T) {
	const procs = 8
	for _, spec := range []core.Spec{core.TM(tmk.Base), core.AURC(false)} {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			run := func(with bool) *core.Result {
				app, err := apps.Tiny("radix")
				if err != nil {
					t.Fatal(err)
				}
				cfg := params.Default()
				cfg.Processors = procs
				sp := spec
				if with {
					plan := &faults.Plan{}
					if err := faults.ParseCtrlCrash(plan, "all@0", procs); err != nil {
						t.Fatal(err)
					}
					sp.Faults = plan
				}
				res, err := core.Run(cfg, sp, app)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			clean, faulted := run(false), run(true)
			if clean.EventFingerprint != faulted.EventFingerprint {
				t.Errorf("controller plan moved events on a controller-less protocol: %016x vs %016x",
					clean.EventFingerprint, faulted.EventFingerprint)
			}
		})
	}
}

// TestChaosSweep is the `make chaos` gate body: the full chaos matrix
// over a bounded seed set. ChaosSweep itself validates every cell
// against the sequential oracle and proves repeat-run fingerprint
// equality; this test adds GOMAXPROCS invariance — the whole sweep
// rerun on a single OS thread must reproduce every fingerprint — and
// sanity-checks that the seeds actually exercised degradation.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is seconds of work; skipped in -short")
	}
	seeds := []uint64{1, 2}
	pts, err := ChaosSweep(ScaleTiny, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var failovers, fbdiffs uint64
	for _, p := range pts {
		failovers += p.Failovers
		fbdiffs += p.FallbackDiffs
		if p.Norm < 1 {
			// Chaos can only cost cycles: remote nodes see slower
			// service, never less work.
			t.Errorf("%s/%s seed %d: chaos run faster than fault-free (norm %.3f)",
				p.App, p.Protocol, p.Seed, p.Norm)
		}
	}
	if failovers == 0 || fbdiffs == 0 {
		t.Fatalf("chaos seeds exercised no degradation (failovers=%d, fallback diffs=%d)",
			failovers, fbdiffs)
	}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	again, err := ChaosSweep(ScaleTiny, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Fingerprint != again[i].Fingerprint {
			t.Errorf("%s/%s seed %d: fingerprint %016x under GOMAXPROCS=1, %016x before",
				pts[i].App, pts[i].Protocol, pts[i].Seed, again[i].Fingerprint, pts[i].Fingerprint)
		}
	}
}
