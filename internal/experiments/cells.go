package experiments

import (
	"dsm96/internal/core"
	"dsm96/internal/params"
)

// Cell is one externally-specified simulation: the experiment pipeline
// (internal/pipeline) builds these from an experiments.json grid and
// runs them on the same bounded worker pool the figures use, so
// SetWorkers/SetProgress apply uniformly.
type Cell struct {
	App   string
	Spec  core.Spec
	Cfg   params.Config
	Scale Scale
}

// RunCells executes the cells on the shared pool and returns one Run
// per cell, in cell order regardless of worker count or completion
// order. Per-cell failures land in Run.Err; RunCells itself never
// fails, so a caller can report every broken cell rather than the
// first.
func RunCells(cells []Cell) []Run {
	runs := make([]Run, len(cells))
	specs := make([]runSpec, len(cells))
	for i, c := range cells {
		specs[i] = runSpec{app: c.App, spec: c.Spec, cfg: c.Cfg, scale: c.Scale, out: &runs[i]}
	}
	execute(specs)
	return runs
}

// ParseScale maps the spellings the CLIs and experiments.json use onto
// a Scale.
func ParseScale(s string) (Scale, bool) {
	switch s {
	case "tiny":
		return ScaleTiny, true
	case "default":
		return ScaleDefault, true
	case "paper":
		return ScalePaper, true
	}
	return ScaleTiny, false
}
