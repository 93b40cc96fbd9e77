// Package pipeline is the reproducible experiment harness: it reads a
// committed experiments.json (schema dsm96/experiments/v1) describing
// named experiments — each a grid of application x protocol x machine
// profile x processor count x fault scenario, with per-cell repeats,
// warmup discard, and a timeout — runs every cell on the
// bounded simulation pool, and writes one run folder per invocation:
// a manifest with host metadata and per-cell fingerprints, a canonical
// CSV, and run-metrics JSON per cell, all written atomically.
//
// On top of the runner sit two consumers. The trend database
// (trend.go) folds a run into an append-only dsm96/trend/v1 record
// under trends/, which cmd/metricsdiff -trend compares across PRs —
// determinism fields exactly, throughput only within the same host
// class. The renderer (render.go) regenerates the measured markdown
// tables of EXPERIMENTS.md between <!-- generated:NAME --> markers, so
// the paper document is a build artifact instead of transcribed prose.
package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/experiments"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/tmk"
)

// SpecSchema tags the experiments.json format.
const SpecSchema = "dsm96/experiments/v1"

// Spec is a decoded experiments.json: a set of named experiments.
type Spec struct {
	Schema      string       `json:"schema"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one named grid. Every cell of the grid runs
// Warmup+Repeats times; the warmup runs are discarded from the timing
// statistics (the simulated results are deterministic, so repeats only
// exist to stabilize wall-clock throughput).
type Experiment struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Scale is the problem scale: tiny, default, or paper.
	Scale string `json:"scale"`
	// Repeats is the number of measured executions per cell (>= 1).
	Repeats int `json:"repeats"`
	// Warmup is the number of additional leading executions per cell
	// whose wall time is discarded (>= 0).
	Warmup int `json:"warmup,omitempty"`
	// TimeoutSec bounds one cell's total execution (all repeats) in
	// wall seconds; 0 disables the bound.
	TimeoutSec int  `json:"timeout_sec,omitempty"`
	Grid       Grid `json:"grid"`
}

// Grid is the cartesian product the experiment measures. Expansion
// order is fixed — apps outermost, then protocols, profiles, procs,
// faults — so cell numbering is stable across runs and hosts.
type Grid struct {
	Apps      []string `json:"apps"`
	Protocols []string `json:"protocols"`
	// Profiles are machine models: builtin backend names (pci1996,
	// rdma, cxl) or paths to dsm96/params-profile/v1 files.
	Profiles []string `json:"profiles"`
	Procs    []int    `json:"procs"`
	// Faults, when present, crosses the grid with named fault-injection
	// scenarios (a chaos grid). Absent means one fault-free pass; the
	// scenario named "" is not allowed — fault cells are always
	// distinguishable by ID.
	Faults []FaultScenario `json:"faults,omitempty"`
}

// FaultScenario is one named fault-injection configuration: the same
// knobs dsmsim exposes (-drop/-dup/-delay/-fault-seed/-ctrl-crash/
// -ctrl-hang), made reproducible by committing them to the spec. The
// injections are deterministic given the seed, so a fault cell has a
// stable fingerprint and cycle count like any other — the property
// that lets chaos runs live in a trend database.
type FaultScenario struct {
	Name string `json:"name"`
	// Seed keys every injection decision (faults.Plan.Seed).
	Seed uint64 `json:"seed,omitempty"`
	// Drop, Dup, and Delay are per-link probabilities in [0, 1].
	Drop  float64 `json:"drop,omitempty"`
	Dup   float64 `json:"dup,omitempty"`
	Delay float64 `json:"delay,omitempty"`
	// CtrlCrash and CtrlHang schedule controller failures using
	// dsmsim's syntax: NODE@CYCLE,... and NODE@CYCLE+WINDOW,...
	// (NODE may be "all").
	CtrlCrash string `json:"ctrl_crash,omitempty"`
	CtrlHang  string `json:"ctrl_hang,omitempty"`
}

// plan resolves the scenario into a validated fault plan for a mesh of
// the given processor count.
func (f *FaultScenario) plan(procs int) (*faults.Plan, error) {
	p := &faults.Plan{
		Seed:    f.Seed,
		Default: faults.Link{Drop: f.Drop, Dup: f.Dup, Delay: f.Delay},
	}
	if err := faults.ParseCtrlCrash(p, f.CtrlCrash, procs); err != nil {
		return nil, err
	}
	if err := faults.ParseCtrlHang(p, f.CtrlHang, procs); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Cell is one fully-resolved grid point.
type Cell struct {
	Experiment string
	App        string
	Protocol   string
	Profile    string
	Procs      int
	// Fault is the fault scenario's name ("" = fault-free).
	Fault     string
	Scale     experiments.Scale
	ScaleName string

	spec core.Spec
	cfg  params.Config
}

// ID names the cell: profile/app/protocol/pN/w1, with a trailing
// /SCENARIO segment on fault cells — the key the CSV, manifest, and
// trend records agree on. The literal w1 segment is the engine worker
// count every cell ran at when the trend database began; keeping it
// keeps existing trend records comparable.
func (c *Cell) ID() string {
	id := fmt.Sprintf("%s/%s/%s/p%d/w1", c.Profile, c.App, c.Protocol, c.Procs)
	if c.Fault != "" {
		id += "/" + c.Fault
	}
	return id
}

// Stem is the cell's artifact file stem (no slashes, '+' stripped).
func (c *Cell) Stem(seq int) string {
	stem := fmt.Sprintf("cell-%04d-%s-%s-%s-p%d", seq, c.App,
		strings.ReplaceAll(c.Protocol, "+", ""), c.Profile, c.Procs)
	if c.Fault != "" {
		stem += "-" + c.Fault
	}
	return stem
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// ParseProtocol maps a protocol label (Base, I, I+D, P, I+P, I+P+D,
// AURC, AURC+P; lenient spellings as in tmk.ParseMode) to a core.Spec.
func ParseProtocol(label string) (core.Spec, bool) {
	switch label {
	case "AURC", "aurc":
		return core.AURC(false), true
	case "AURC+P", "aurc+p":
		return core.AURC(true), true
	}
	if m, ok := tmk.ParseMode(label); ok {
		return core.TM(m), true
	}
	return core.Spec{}, false
}

// Load strictly decodes a spec: unknown fields anywhere in the
// document are errors, and every grid reference is resolved (apps,
// protocols, profiles, processor counts, fault scenarios) so a broken
// experiments.json fails at load time naming the offending field, not
// mid-run.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile loads and validates an experiments.json file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the whole spec, naming the first offending field.
func (s *Spec) Validate() error {
	if s.Schema != SpecSchema {
		return fmt.Errorf("pipeline: schema: got %q, want %q", s.Schema, SpecSchema)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("pipeline: experiments: empty")
	}
	seen := map[string]bool{}
	knownApps := map[string]bool{}
	for _, n := range apps.Names() {
		knownApps[n] = true
	}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		where := fmt.Sprintf("pipeline: experiments[%d] (%q)", i, e.Name)
		if !nameRE.MatchString(e.Name) {
			return fmt.Errorf("%s: name: must match %s", where, nameRE)
		}
		if seen[e.Name] {
			return fmt.Errorf("%s: name: duplicate", where)
		}
		seen[e.Name] = true
		if _, ok := experiments.ParseScale(e.Scale); !ok {
			return fmt.Errorf("%s: scale: unknown %q (want tiny, default, or paper)", where, e.Scale)
		}
		if e.Repeats < 1 {
			return fmt.Errorf("%s: repeats: %d, need >= 1", where, e.Repeats)
		}
		if e.Warmup < 0 {
			return fmt.Errorf("%s: warmup: %d, need >= 0", where, e.Warmup)
		}
		if e.TimeoutSec < 0 {
			return fmt.Errorf("%s: timeout_sec: %d, need >= 0", where, e.TimeoutSec)
		}
		if len(e.Grid.Apps) == 0 {
			return fmt.Errorf("%s: grid.apps: empty", where)
		}
		for j, a := range e.Grid.Apps {
			if !knownApps[a] {
				return fmt.Errorf("%s: grid.apps[%d]: unknown app %q", where, j, a)
			}
		}
		if len(e.Grid.Protocols) == 0 {
			return fmt.Errorf("%s: grid.protocols: empty", where)
		}
		for j, p := range e.Grid.Protocols {
			if _, ok := ParseProtocol(p); !ok {
				return fmt.Errorf("%s: grid.protocols[%d]: unknown protocol %q", where, j, p)
			}
		}
		if len(e.Grid.Profiles) == 0 {
			return fmt.Errorf("%s: grid.profiles: empty", where)
		}
		for j, p := range e.Grid.Profiles {
			if _, err := params.ResolveProfile(p); err != nil {
				return fmt.Errorf("%s: grid.profiles[%d]: %w", where, j, err)
			}
		}
		if len(e.Grid.Procs) == 0 {
			return fmt.Errorf("%s: grid.procs: empty", where)
		}
		for j, p := range e.Grid.Procs {
			if p < 1 {
				return fmt.Errorf("%s: grid.procs[%d]: %d, need >= 1", where, j, p)
			}
		}
		seenFault := map[string]bool{}
		for j := range e.Grid.Faults {
			f := &e.Grid.Faults[j]
			if !nameRE.MatchString(f.Name) {
				return fmt.Errorf("%s: grid.faults[%d].name: must match %s", where, j, nameRE)
			}
			if seenFault[f.Name] {
				return fmt.Errorf("%s: grid.faults[%d].name: duplicate %q", where, j, f.Name)
			}
			seenFault[f.Name] = true
			// Resolve the plan against every processor count in the grid
			// so a ctrl schedule naming an out-of-range node fails at
			// load time, not mid-run.
			for _, procs := range e.Grid.Procs {
				if _, err := f.plan(procs); err != nil {
					return fmt.Errorf("%s: grid.faults[%d] (%q) at p%d: %w", where, j, f.Name, procs, err)
				}
			}
		}
	}
	return nil
}

// Find returns the named experiment.
func (s *Spec) Find(name string) (*Experiment, error) {
	for i := range s.Experiments {
		if s.Experiments[i].Name == name {
			return &s.Experiments[i], nil
		}
	}
	return nil, fmt.Errorf("pipeline: no experiment %q (have %s)", name, strings.Join(s.Names(), ", "))
}

// Names lists the experiments in document order.
func (s *Spec) Names() []string {
	out := make([]string, len(s.Experiments))
	for i := range s.Experiments {
		out[i] = s.Experiments[i].Name
	}
	return out
}

// Expand resolves the experiment's grid into cells in the fixed
// expansion order. The spec must already have validated.
func (e *Experiment) Expand() ([]Cell, error) {
	sc, ok := experiments.ParseScale(e.Scale)
	if !ok {
		return nil, fmt.Errorf("pipeline: experiment %q: scale: unknown %q", e.Name, e.Scale)
	}
	scenarios := e.Grid.Faults
	if len(scenarios) == 0 {
		scenarios = []FaultScenario{{}} // one fault-free pass
	}
	var cells []Cell
	for _, app := range e.Grid.Apps {
		for _, label := range e.Grid.Protocols {
			spec, ok := ParseProtocol(label)
			if !ok {
				return nil, fmt.Errorf("pipeline: experiment %q: grid.protocols: unknown protocol %q", e.Name, label)
			}
			for _, profName := range e.Grid.Profiles {
				prof, err := params.ResolveProfile(profName)
				if err != nil {
					return nil, fmt.Errorf("pipeline: experiment %q: grid.profiles: %w", e.Name, err)
				}
				for _, procs := range e.Grid.Procs {
					cfg := prof.Config()
					cfg.Processors = procs
					for fi := range scenarios {
						f := &scenarios[fi]
						sp := spec
						if f.Name != "" {
							plan, err := f.plan(procs)
							if err != nil {
								return nil, fmt.Errorf("pipeline: experiment %q: grid.faults (%q) at p%d: %w",
									e.Name, f.Name, procs, err)
							}
							sp.Faults = plan
						}
						cells = append(cells, Cell{
							Experiment: e.Name,
							App:        app,
							Protocol:   sp.String(),
							Profile:    prof.Name,
							Procs:      procs,
							Fault:      f.Name,
							Scale:      sc,
							ScaleName:  e.Scale,
							spec:       sp,
							cfg:        cfg,
						})
					}
				}
			}
		}
	}
	return cells, nil
}
