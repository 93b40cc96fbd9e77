package main

import (
	"fmt"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/randprog"
	"dsm96/internal/tmk"
)

// cell is one simulation of a workload: an application constructor, a
// protocol, and a machine. Every run of a cell builds a fresh app, spec
// and fault plan, so nothing is shared between cells or passes.
type cell struct {
	id      string
	app     string
	profile string
	cfg     params.Config
	spec    core.Spec
	faults  *faults.Plan
	newApp  func() dsm.App
}

// workload is a closed loop over a fixed cell list: a pass runs every
// cell once, inFlight of them at a time.
type workload struct {
	name     string
	inFlight int
	cells    []cell
}

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
var workloadNames = []string{"fastpath", "migratory", "ladder", "lossy"}

// buildWorkload returns the named workload's cells in canonical order.
// Only lossy draws its inputs (programs and fault plan) from seed; the
// seed also permutes every workload's run order, pass by pass.
func buildWorkload(name string, seed uint64) (*workload, error) {
	ipd, ok := tmk.ParseMode("I+P+D")
	if !ok {
		return nil, fmt.Errorf("benchmark: tmk has no I+P+D mode")
	}
	base, _ := tmk.ParseMode("Base")
	ctrl, _ := tmk.ParseMode("I")
	w := &workload{name: name, inFlight: 1}
	add := func(label string, newApp func() dsm.App, spec core.Spec, profile string, procs int, plan *faults.Plan) error {
		prof, err := params.Builtin(profile)
		if err != nil {
			return err
		}
		cfg := prof.Config()
		cfg.Processors = procs
		w.cells = append(w.cells, cell{
			id:      fmt.Sprintf("%s/%s/%s/p%d", label, spec, profile, procs),
			app:     label,
			profile: profile,
			cfg:     cfg,
			spec:    spec,
			faults:  plan,
			newApp:  newApp,
		})
		return nil
	}
	byName := func(name string) func() dsm.App {
		return func() dsm.App {
			app, err := apps.Default(name)
			if err != nil {
				panic(err) // names below are the registry's own
			}
			return app
		}
	}
	var err error
	switch name {
	case "fastpath":
		for _, a := range []string{"ocean", "barnes", "water"} {
			for _, m := range []tmk.Mode{base, ipd} {
				if err = add(a, byName(a), core.TM(m), params.BackendPCI1996, 16, nil); err != nil {
					return nil, err
				}
			}
		}
	case "migratory":
		for _, spec := range []core.Spec{core.TM(base), core.TM(ctrl), core.TM(ipd), core.AURC(false)} {
			tsp := func() dsm.App { return apps.NewTSP(10) }
			if err = add("tsp", tsp, spec, params.BackendPCI1996, 16, nil); err != nil {
				return nil, err
			}
		}
	case "ladder":
		// Two simulations share the host's CPUs, allocator and GC, as
		// they do when cmd/experiment runs a grid two cells at a time.
		w.inFlight = 2
		for _, a := range []string{"radix", "em3d"} {
			for _, spec := range []core.Spec{core.TM(ipd), core.AURC(false)} {
				for _, prof := range params.BuiltinNames() {
					if err = add(a, byName(a), spec, prof, 16, nil); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, a := range []string{"water", "em3d"} {
			if err = add(a, byName(a), core.TM(ipd), params.BackendPCI1996, 64, nil); err != nil {
				return nil, err
			}
		}
	case "lossy":
		plan := &faults.Plan{Seed: seed, Default: faults.Link{Drop: 0.02, Dup: 0.02, Delay: 0.05}}
		for _, spec := range []core.Spec{core.TM(ipd), core.AURC(false)} {
			for i := uint64(0); i < 4; i++ {
				progSeed := seed*16 + i
				prog := func() dsm.App { return randprog.New(progSeed, 150, 4096, 8) }
				if err = add(fmt.Sprintf("randprog-%d", progSeed), prog, spec, params.BackendPCI1996, 8, plan); err != nil {
					return nil, err
				}
			}
			for _, a := range []string{"water", "radix"} {
				tiny := func() dsm.App {
					app, err := apps.Tiny(a)
					if err != nil {
						panic(err) // names above are the registry's own
					}
					return app
				}
				if err = add(a, tiny, spec, params.BackendPCI1996, 8, plan); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// run simulates the cell once with a fresh app, timed at the dsm.System
// boundary into b when b is non-nil.
func (c *cell) run(b *boundary) (*core.Result, error) {
	spec := c.spec
	if c.faults != nil {
		plan := *c.faults
		spec.Faults = &plan
	}
	app := c.newApp()
	if b != nil {
		app = &timedApp{App: app, b: b}
	}
	return core.Run(c.cfg, spec, app)
}
