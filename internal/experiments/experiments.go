// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (system parameters), Figure 1 (base TreadMarks
// speedups), Figure 2 (execution-time breakdown), Figures 5-10 (overlap
// variants per application), Figures 11-12 (overlapping TreadMarks vs
// AURC and AURC+P), and Figures 13-16 (architectural sensitivity sweeps).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/params"
	"dsm96/internal/spans"
	"dsm96/internal/stats"
	"dsm96/internal/tmk"
)

// Scale selects the problem sizes.
type Scale int

const (
	// ScaleTiny is for tests: seconds of wall time for the whole set.
	ScaleTiny Scale = iota
	// ScaleDefault is the repository default (the paper's inputs scaled
	// down for simulation time, as the authors themselves did).
	ScaleDefault
	// ScalePaper uses the published input sizes (slow).
	ScalePaper
)

// Name returns the spelling ParseScale accepts for the scale — the
// form job specs and experiments.json carry.
func (s Scale) Name() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScalePaper:
		return "paper"
	default:
		return "default"
	}
}

// AppAt builds the named application at the given scale — the same
// construction every figure and sweep cell uses, exported for external
// executors (the job server runs submitted specs through it).
func AppAt(name string, sc Scale) (dsm.App, error) { return appAt(name, sc) }

// appAt builds the named application at the given scale.
func appAt(name string, sc Scale) (dsm.App, error) {
	switch sc {
	case ScaleTiny:
		return apps.Tiny(name)
	case ScalePaper:
		switch name {
		case "tsp":
			return apps.PaperTSP(), nil
		case "water":
			return apps.PaperWater(), nil
		case "radix":
			return apps.PaperRadix(), nil
		case "barnes":
			return apps.PaperBarnes(), nil
		case "ocean":
			return apps.PaperOcean(), nil
		case "em3d":
			return apps.PaperEm3d(), nil
		}
		return nil, fmt.Errorf("experiments: unknown app %q", name)
	default:
		return apps.Default(name)
	}
}

// Run is one simulated data point.
type Run struct {
	App      string
	Protocol string
	Procs    int
	Result   *core.Result
	Err      error
	// Spans is the run's causal-span tracker (nil unless SetSpans(true)
	// armed per-run span collection); cmd/sweep streams it as JSONL.
	Spans *spans.Tracker
	// Wall is the run's wall-clock duration — the only wall-clock
	// reading in the figures path. The simulated results never depend
	// on it; the experiment pipeline reports it as throughput.
	Wall time.Duration
}

// runSpec describes one run to perform.
type runSpec struct {
	app   string
	spec  core.Spec
	cfg   params.Config
	scale Scale
	out   *Run
}

// Run-pool knobs (cmd/sweep -j, the progress line, per-cell metrics
// output). The zero values preserve the historical behavior: one worker
// per CPU, no progress callback, no observer. Results are written into
// preallocated slots in submission order regardless of worker count or
// completion order, so figure output stays deterministic.
var (
	poolMu sync.Mutex
	// poolWorkers bounds concurrent simulations (<= 0 = NumCPU).
	poolWorkers int
	// poolProgress, when set, is called after every completed run with
	// the running (done, submitted) totals across all batches.
	poolProgress func(done, total int)
	// poolObserver, when set, is called once per completed run with the
	// run's global submission sequence number (deterministic: batches
	// are submitted serially) and a copy of the Run. Calls are
	// serialized but may arrive out of sequence order.
	poolObserver func(seq int, r Run)
	// poolSpans, when true, attaches a fresh spans.Tracker to every run
	// so the observer can export per-operation spans. Off by default:
	// span collection allocates per blocking operation.
	poolSpans bool
	// poolBaseCfg, when non-nil, replaces params.Default() as the machine
	// every figure, sweep, and ablation runs on (cmd/sweep -profile). The
	// default — nil — is Table 1, so existing goldens are untouched.
	poolBaseCfg *params.Config
	// poolRemote, when set, replaces local core.Run execution: every
	// run is handed to the callback instead (cmd/sweep -server hands
	// cells to a dsmserve job server and gets memoized results back).
	// Simulations are deterministic, so a remote result is the local
	// result; only wall-clock changes.
	poolRemote func(RemoteRun) (*core.Result, error)
	poolSeq    int
	poolDone   int
	poolTotal  int
)

// RemoteRun is one simulation handed to a remote executor: everything a
// dsm96/job/v1 spec needs to reproduce the cell bit-identically.
type RemoteRun struct {
	App   string
	Spec  core.Spec
	Cfg   params.Config
	Scale Scale
}

// SetRemoteRunner installs fn as the executor for every subsequent run:
// instead of simulating locally, each cell is handed to fn (cmd/sweep's
// -server thin client). nil restores local execution. Per-run span
// collection (SetSpans) is incompatible with remote execution — the
// tracker lives in the executing process — and makes runs fail loudly.
func SetRemoteRunner(fn func(RemoteRun) (*core.Result, error)) {
	poolMu.Lock()
	poolRemote = fn
	poolMu.Unlock()
}

// SetWorkers bounds how many simulations run concurrently (cmd/sweep
// -j). n <= 0 restores the default of one worker per CPU.
func SetWorkers(n int) {
	poolMu.Lock()
	poolWorkers = n
	poolMu.Unlock()
}

// SetProgress installs a callback invoked (serialized) after every
// completed run with cumulative done/submitted counts; nil disables.
func SetProgress(fn func(done, total int)) {
	poolMu.Lock()
	poolProgress = fn
	poolMu.Unlock()
}

// SetRunObserver installs a callback invoked (serialized) once per
// completed run — cmd/sweep's per-cell metrics emission; nil disables.
// seq is the run's global submission sequence number, stable across
// worker counts because batches submit serially.
func SetRunObserver(fn func(seq int, r Run)) {
	poolMu.Lock()
	poolObserver = fn
	poolMu.Unlock()
}

// SetSpans arms (or disarms) per-run causal-span collection: every
// subsequent run carries its own spans.Tracker, exposed to the run
// observer as Run.Spans and folded into Result.Metrics(). Collection
// never perturbs the simulated schedule.
func SetSpans(on bool) {
	poolMu.Lock()
	poolSpans = on
	poolMu.Unlock()
}

// SetBaseConfig installs cfg as the machine model every subsequent
// figure, sweep, and ablation runs on — how cmd/sweep plumbs -profile
// through the whole evaluation. nil restores params.Default() (Table 1).
// The config is copied, so later mutation by the caller has no effect.
func SetBaseConfig(cfg *params.Config) {
	poolMu.Lock()
	if cfg == nil {
		poolBaseCfg = nil
	} else {
		c := *cfg
		poolBaseCfg = &c
	}
	poolMu.Unlock()
}

// baseConfig returns a copy of the active machine model.
func baseConfig() params.Config {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolBaseCfg != nil {
		return *poolBaseCfg
	}
	return params.Default()
}

// execute performs a batch of runs concurrently (each run owns its
// engine, so parallelism is safe and results stay deterministic).
func execute(specs []runSpec) {
	poolMu.Lock()
	workers := poolWorkers
	base := poolSeq
	poolSeq += len(specs)
	poolTotal += len(specs)
	progress, observer := poolProgress, poolObserver
	withSpans := poolSpans
	remote := poolRemote
	poolMu.Unlock()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				rs := specs[i]
				switch {
				case remote != nil && withSpans:
					rs.out.Err = fmt.Errorf("experiments: per-run span collection cannot be served remotely")
				case remote != nil:
					start := time.Now()
					res, rerr := remote(RemoteRun{App: rs.app, Spec: rs.spec, Cfg: rs.cfg, Scale: rs.scale})
					rs.out.Wall = time.Since(start)
					rs.out.App = rs.app
					rs.out.Protocol = rs.spec.String()
					rs.out.Procs = rs.cfg.Processors
					rs.out.Result = res
					rs.out.Err = rerr
				default:
					app, err := appAt(rs.app, rs.scale)
					if err != nil {
						rs.out.Err = err
						break
					}
					if withSpans {
						rs.spec.Spans = spans.NewTracker(rs.cfg.Processors)
						rs.out.Spans = rs.spec.Spans
					}
					start := time.Now()
					res, rerr := core.Run(rs.cfg, rs.spec, app)
					rs.out.Wall = time.Since(start)
					rs.out.App = rs.app
					rs.out.Protocol = rs.spec.String()
					rs.out.Procs = rs.cfg.Processors
					rs.out.Result = res
					rs.out.Err = rerr
				}
				if progress == nil && observer == nil {
					continue
				}
				poolMu.Lock()
				poolDone++
				if progress != nil {
					progress(poolDone, poolTotal)
				}
				if observer != nil {
					observer(base+i, *rs.out)
				}
				poolMu.Unlock()
			}
		}()
	}
	for i := range specs {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// Table1 renders the default system parameters (Table 1 of the paper).
func Table1() string {
	c := baseConfig()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Default Values for System Parameters (1 cycle = %g ns)\n", c.CycleNanos)
	rows := []struct {
		name  string
		value string
	}{
		{"Number of processors", fmt.Sprintf("%d", c.Processors)},
		{"TLB size", fmt.Sprintf("%d entries", c.TLBSize)},
		{"TLB fill service time", fmt.Sprintf("%d cycles", c.TLBFillTime)},
		{"All interrupts", fmt.Sprintf("%d cycles", c.InterruptTime)},
		{"Page size", fmt.Sprintf("%d bytes", c.PageSize)},
		{"Total cache per processor", fmt.Sprintf("%dK bytes", c.CacheSize/1024)},
		{"Write buffer size", fmt.Sprintf("%d entries", c.WriteBufferSize)},
		{"Write cache size (AURC)", fmt.Sprintf("%d entries", c.WriteCacheSize)},
		{"Cache line size", fmt.Sprintf("%d bytes", c.CacheLineSize)},
		{"Memory setup time", fmt.Sprintf("%d cycles", c.MemSetupTime)},
		{"Memory access time (after setup)", fmt.Sprintf("%d cycles/word", c.MemCyclesPerWord)},
		{"PCI setup time", fmt.Sprintf("%d cycles", c.PCISetupTime)},
		{"PCI burst access time (after setup)", fmt.Sprintf("%d cycles/word", c.PCICyclesPerWord)},
		{"Network path width", fmt.Sprintf("%.0f bytes/cycle (8 bits bidirectional)", c.NetPathBytesPerCycle)},
		{"Messaging overhead", fmt.Sprintf("%d cycles", c.MessagingOverhead)},
		{"Switch latency", fmt.Sprintf("%d cycles", c.SwitchLatency)},
		{"Wire latency", fmt.Sprintf("%d cycles", c.WireLatency)},
		{"List processing", fmt.Sprintf("%d cycles/element", c.ListProcessing)},
		{"Page twinning", fmt.Sprintf("%d cycles/word + memory accesses", c.TwinCyclesPerWord)},
		{"Diff application and creation", fmt.Sprintf("%d cycles/word + memory accesses", c.DiffCyclesPerWord)},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-38s %s\n", r.name, r.value)
	}
	return sb.String()
}

// SpeedupPoint is one (procs -> speedup) measurement.
type SpeedupPoint struct {
	Procs   int
	Speedup float64
}

// Fig1 runs base TreadMarks for every application over the given
// machine sizes and reports speedups versus the 1-processor run.
func Fig1(sc Scale, procCounts []int) (map[string][]SpeedupPoint, error) {
	names := apps.Names()
	// Sequential baselines plus each size, per app.
	all := append([]int{1}, procCounts...)
	runs := make([]Run, len(names)*len(all))
	var specs []runSpec
	for ai, name := range names {
		for pi, p := range all {
			cfg := baseConfig()
			cfg.Processors = p
			specs = append(specs, runSpec{
				app: name, spec: core.TM(tmk.Base), cfg: cfg, scale: sc,
				out: &runs[ai*len(all)+pi],
			})
		}
	}
	execute(specs)
	out := make(map[string][]SpeedupPoint)
	for ai, name := range names {
		base := runs[ai*len(all)]
		if base.Err != nil {
			return nil, fmt.Errorf("fig1 %s baseline: %w", name, base.Err)
		}
		for pi := 1; pi < len(all); pi++ {
			r := runs[ai*len(all)+pi]
			if r.Err != nil {
				return nil, fmt.Errorf("fig1 %s p=%d: %w", name, all[pi], r.Err)
			}
			out[name] = append(out[name], SpeedupPoint{
				Procs:   all[pi],
				Speedup: stats.Speedup(base.Result.RunningTime, r.Result.RunningTime),
			})
		}
	}
	return out, nil
}

// FormatFig1 renders Figure 1 as text.
func FormatFig1(data map[string][]SpeedupPoint) string {
	var sb strings.Builder
	sb.WriteString("Figure 1: Application Speedups under TreadMarks DSM\n")
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		sb.WriteString("  procs: ")
		for _, pt := range data[names[0]] {
			fmt.Fprintf(&sb, "%8d", pt.Procs)
		}
		sb.WriteString("\n")
	}
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-6s ", n)
		for _, pt := range data[n] {
			fmt.Fprintf(&sb, "%8.2f", pt.Speedup)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// BreakdownRow is one application's normalized execution breakdown.
type BreakdownRow struct {
	App         string
	Protocol    string
	RunningTime int64
	// Normalized is running time relative to the row's baseline (percent).
	Normalized float64
	// Fraction per category, summing to ~1; a fixed array indexed by
	// stats.Category, so row contents have no map iteration anywhere.
	Fraction [stats.NumCategories]float64
	// DiffPct is diff-operation time as % of execution (the bar labels).
	DiffPct float64
	// Counters for deeper analysis.
	Result *core.Result
}

func toRow(r Run, baseline int64) BreakdownRow {
	row := BreakdownRow{
		App:         r.App,
		Protocol:    r.Protocol,
		RunningTime: r.Result.RunningTime,
		DiffPct:     r.Result.Breakdown.DiffPercent(),
		Result:      r.Result,
	}
	if baseline > 0 {
		row.Normalized = 100 * float64(r.Result.RunningTime) / float64(baseline)
	}
	for _, c := range stats.Categories() {
		row.Fraction[c] = r.Result.Breakdown.Fraction(c)
	}
	return row
}

// Fig2 runs base TreadMarks on 16 processors for every application and
// reports the execution-time breakdown plus the diff-time percentages.
func Fig2(sc Scale) ([]BreakdownRow, error) {
	names := apps.Names()
	runs := make([]Run, len(names))
	var specs []runSpec
	for i, name := range names {
		specs = append(specs, runSpec{
			app: name, spec: core.TM(tmk.Base), cfg: baseConfig(), scale: sc,
			out: &runs[i],
		})
	}
	execute(specs)
	var rows []BreakdownRow
	for _, r := range runs {
		if r.Err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", r.App, r.Err)
		}
		rows = append(rows, toRow(r, r.Result.RunningTime))
	}
	return rows, nil
}

// FormatBreakdownRows renders breakdown rows as stacked-bar text.
func FormatBreakdownRows(title string, rows []BreakdownRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-7s %-7s %5.0f%% |", row.App, row.Protocol, row.Normalized)
		for _, c := range stats.Categories() {
			fmt.Fprintf(&sb, " %s %5.1f%%", c, 100*row.Fraction[c])
		}
		fmt.Fprintf(&sb, " | diff-ops %4.1f%%\n", row.DiffPct)
	}
	return sb.String()
}

// Fig5to10 runs the six overlap variants for one application on the
// default machine, normalized to Base (the per-application bar charts of
// Figures 5-10).
func Fig5to10(app string, sc Scale) ([]BreakdownRow, error) {
	runs := make([]Run, len(tmk.Modes))
	var specs []runSpec
	for i, m := range tmk.Modes {
		specs = append(specs, runSpec{
			app: app, spec: core.TM(m), cfg: baseConfig(), scale: sc,
			out: &runs[i],
		})
	}
	execute(specs)
	if runs[0].Err != nil {
		return nil, fmt.Errorf("fig5-10 %s base: %w", app, runs[0].Err)
	}
	baseline := runs[0].Result.RunningTime
	var rows []BreakdownRow
	for _, r := range runs {
		if r.Err != nil {
			return nil, fmt.Errorf("fig5-10 %s %s: %w", app, r.Protocol, r.Err)
		}
		rows = append(rows, toRow(r, baseline))
	}
	return rows, nil
}

// Fig11_12 compares the best overlapping TreadMarks (I+D) against AURC
// and AURC+P for every application, normalized to I+D (Figures 11-12).
func Fig11_12(sc Scale) (map[string][]BreakdownRow, error) {
	names := apps.Names()
	protos := []core.Spec{core.TM(tmk.ID), core.AURC(false), core.AURC(true)}
	runs := make([]Run, len(names)*len(protos))
	var specs []runSpec
	for ai, name := range names {
		for pi, pr := range protos {
			specs = append(specs, runSpec{
				app: name, spec: pr, cfg: baseConfig(), scale: sc,
				out: &runs[ai*len(protos)+pi],
			})
		}
	}
	execute(specs)
	out := make(map[string][]BreakdownRow)
	for ai, name := range names {
		baseline := int64(0)
		for pi := range protos {
			r := runs[ai*len(protos)+pi]
			if r.Err != nil {
				return nil, fmt.Errorf("fig11-12 %s %s: %w", name, r.Protocol, r.Err)
			}
			if pi == 0 {
				baseline = r.Result.RunningTime
			}
			out[name] = append(out[name], toRow(r, baseline))
		}
	}
	return out, nil
}

// SweepPoint is one point of an architectural-sensitivity curve:
// normalized execution time (vs the default-parameter overlapping
// TreadMarks run) for both protocols.
type SweepPoint struct {
	X          float64 // the swept parameter, in the figure's axis units
	TMNorm     float64
	AURCNorm   float64
	TMCycles   int64
	AURCCycles int64
}

// Sweep runs the Em3d sensitivity studies of Figures 13-16. mutate
// applies the swept value to a config; xs are the axis values.
func Sweep(sc Scale, xs []float64, mutate func(*params.Config, float64)) ([]SweepPoint, error) {
	const app = "em3d"
	type cell struct{ tm, au Run }
	cells := make([]cell, len(xs))
	var specs []runSpec
	for i, x := range xs {
		cfgT := baseConfig()
		mutate(&cfgT, x)
		cfgA := cfgT
		specs = append(specs,
			runSpec{app: app, spec: core.TM(tmk.ID), cfg: cfgT, scale: sc, out: &cells[i].tm},
			runSpec{app: app, spec: core.AURC(false), cfg: cfgA, scale: sc, out: &cells[i].au},
		)
	}
	// Baseline: default-parameter overlapping TreadMarks.
	var base Run
	specs = append(specs, runSpec{app: app, spec: core.TM(tmk.ID), cfg: baseConfig(), scale: sc, out: &base})
	execute(specs)
	if base.Err != nil {
		return nil, fmt.Errorf("sweep baseline: %w", base.Err)
	}
	denom := float64(base.Result.RunningTime)
	var out []SweepPoint
	for i, x := range xs {
		if cells[i].tm.Err != nil {
			return nil, fmt.Errorf("sweep x=%v TM: %w", x, cells[i].tm.Err)
		}
		if cells[i].au.Err != nil {
			return nil, fmt.Errorf("sweep x=%v AURC: %w", x, cells[i].au.Err)
		}
		out = append(out, SweepPoint{
			X:          x,
			TMNorm:     float64(cells[i].tm.Result.RunningTime) / denom,
			AURCNorm:   float64(cells[i].au.Result.RunningTime) / denom,
			TMCycles:   cells[i].tm.Result.RunningTime,
			AURCCycles: cells[i].au.Result.RunningTime,
		})
	}
	return out, nil
}

// Fig13 sweeps messaging overhead (microseconds), Em3d.
func Fig13(sc Scale, micros []float64) ([]SweepPoint, error) {
	return Sweep(sc, micros, func(c *params.Config, x float64) {
		c.SetMessagingOverheadMicros(x)
		// The pessimistic assumption of Figure 13's discussion: AURC's
		// update messages pay the same per-message overhead. The default
		// (optimistic single-cycle) is restored by Fig13Optimistic.
		c.AURCUpdateOverhead = c.MessagingOverhead
	})
}

// Fig13Optimistic sweeps messaging overhead with AURC updates kept at a
// single cycle of overhead (the paper's default assumption, under which
// messaging overhead "has little effect on the two DSMs").
func Fig13Optimistic(sc Scale, micros []float64) ([]SweepPoint, error) {
	return Sweep(sc, micros, func(c *params.Config, x float64) {
		c.SetMessagingOverheadMicros(x)
	})
}

// Fig14 sweeps network bandwidth (MB/s), Em3d.
func Fig14(sc Scale, mbps []float64) ([]SweepPoint, error) {
	return Sweep(sc, mbps, func(c *params.Config, x float64) {
		c.SetNetworkBandwidthMBps(x)
	})
}

// Fig15 sweeps memory latency (ns), Em3d.
func Fig15(sc Scale, nanos []float64) ([]SweepPoint, error) {
	return Sweep(sc, nanos, func(c *params.Config, x float64) {
		c.SetMemoryLatencyNanos(x)
	})
}

// Fig16 sweeps memory bandwidth (MB/s), Em3d.
func Fig16(sc Scale, mbps []float64) ([]SweepPoint, error) {
	return Sweep(sc, mbps, func(c *params.Config, x float64) {
		c.SetMemoryBandwidthMBps(x)
	})
}

// PrefetchAblation runs the prefetch-strategy design space the paper
// defers to its companion report: the I+P+D variant with the referenced
// (paper), always, and adaptive heuristics, plus the controller-priority
// ablation (prefetches queued as demand requests). Rows are normalized
// to plain I+D (no prefetching).
func PrefetchAblation(app string, sc Scale) ([]BreakdownRow, error) {
	specs := []core.Spec{
		core.TM(tmk.ID),
		core.TMOpt(tmk.IPD, tmk.Options{Strategy: tmk.PrefetchReferenced}),
		core.TMOpt(tmk.IPD, tmk.Options{Strategy: tmk.PrefetchAlways}),
		core.TMOpt(tmk.IPD, tmk.Options{Strategy: tmk.PrefetchAdaptive}),
		core.TMOpt(tmk.IPD, tmk.Options{NoPrefetchPriority: true}),
		// The Lazy Hybrid alternative to prefetching (related work the
		// paper contrasts with): updates piggybacked on lock grants,
		// no prefetcher.
		core.TMOpt(tmk.ID, tmk.Options{LazyHybrid: true}),
	}
	runs := make([]Run, len(specs))
	var rss []runSpec
	for i, sp := range specs {
		rss = append(rss, runSpec{app: app, spec: sp, cfg: baseConfig(), scale: sc, out: &runs[i]})
	}
	execute(rss)
	if runs[0].Err != nil {
		return nil, fmt.Errorf("ablation %s baseline: %w", app, runs[0].Err)
	}
	baseline := runs[0].Result.RunningTime
	var rows []BreakdownRow
	for _, r := range runs {
		if r.Err != nil {
			return nil, fmt.Errorf("ablation %s %s: %w", app, r.Protocol, r.Err)
		}
		rows = append(rows, toRow(r, baseline))
	}
	return rows, nil
}

// FormatSweep renders a sensitivity curve.
func FormatSweep(title, xlabel string, pts []SweepPoint) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "  %-12s %12s %12s\n", xlabel, "Em3d-TM", "Em3d-AURC")
	for _, p := range pts {
		fmt.Fprintf(&sb, "  %-12.2f %12.3f %12.3f\n", p.X, p.TMNorm, p.AURCNorm)
	}
	return sb.String()
}
