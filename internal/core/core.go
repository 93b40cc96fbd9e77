// Package core is the public facade of the simulator: it wires an
// application, a protocol (a TreadMarks overlap variant or AURC), and a
// machine configuration into a run, validates the computed result against
// a sequential execution, and returns the paper-style time breakdown.
package core

import (
	"errors"
	"fmt"
	"math"

	"dsm96/internal/aurc"
	"dsm96/internal/dsm"
	"dsm96/internal/faults"
	"dsm96/internal/network"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/stats"
	"dsm96/internal/timeline"
	"dsm96/internal/tmk"
	"dsm96/internal/trace"
)

// Kind selects the protocol family.
type Kind int

const (
	// KindTM runs a TreadMarks overlap variant.
	KindTM Kind = iota
	// KindAURC runs the automatic-update protocol.
	KindAURC
)

// Spec names a protocol configuration.
type Spec struct {
	Kind Kind
	// TMMode selects the TreadMarks variant (KindTM).
	TMMode tmk.Mode
	// TMOptions tunes the TreadMarks variant beyond the paper's fixed
	// design (prefetch strategy, controller priority ablation).
	TMOptions tmk.Options
	// Prefetch enables page prefetching (KindAURC).
	Prefetch bool
	// Tracer, when set, receives structured protocol events (both
	// protocol families emit).
	Tracer *trace.Buffer
	// Timeline, when set, records per-node phase spans (compute and the
	// stall categories), controller occupancy, and mesh-link occupancy
	// for the run; export with Timeline.WritePerfetto. Build it with
	// timeline.NewRecorder(cfg.Processors). Nil — the default — leaves
	// the instrumentation structurally absent: the event schedule,
	// fingerprint, and allocation profile are those of an uninstrumented
	// run.
	Timeline *timeline.Recorder
	// Faults, when set and enabled, makes the simulated network lose,
	// duplicate, and delay messages per the plan; the protocols recover
	// through the reliable transport. A nil (or all-zero) plan leaves the
	// network exactly as reliable — and the event schedule exactly as
	// reproducible — as a build without fault injection.
	Faults *faults.Plan
	// Watchdog is the liveness window in cycles: the run fails with a
	// structured stall report (Result.Stall) if no process progresses
	// for this long while some process is blocked. 0 — the default —
	// arms DefaultWatchdog; negative disables the watchdog entirely.
	// The watchdog is pure observation: an armed window that never
	// trips leaves the event schedule and fingerprint bit-identical.
	Watchdog sim.Time
	// Spans, when set, tags every blocking protocol operation (read and
	// write fault service, lock acquire and grant, barrier, prefetch)
	// with a causal span: the operation's stage decomposition, the stall
	// cycles charged to it, and the controller/network activity windows
	// that overlap accounting measures hidden latency from. Build it with
	// spans.NewTracker(cfg.Processors); the finished report lands in
	// Result.Spans. Nil — the default — leaves the instrumentation
	// structurally absent, exactly as for Timeline.
	Spans *spans.Tracker
}

// String returns the paper's label for the protocol.
func (s Spec) String() string {
	if s.Kind == KindAURC {
		if s.Prefetch {
			return "AURC+P"
		}
		return "AURC"
	}
	label := s.TMMode.String()
	if s.TMMode.Prefetch() && s.TMOptions.Strategy != tmk.PrefetchReferenced {
		label += "(" + s.TMOptions.Strategy.String() + ")"
	}
	if s.TMOptions.NoPrefetchPriority {
		label += "(noprio)"
	}
	if s.TMOptions.LazyHybrid {
		label += "(hybrid)"
	}
	return label
}

// TM builds a TreadMarks spec.
func TM(m tmk.Mode) Spec { return Spec{Kind: KindTM, TMMode: m} }

// TMOpt builds a TreadMarks spec with explicit options.
func TMOpt(m tmk.Mode, o tmk.Options) Spec { return Spec{Kind: KindTM, TMMode: m, TMOptions: o} }

// AURC builds an AURC spec.
func AURC(prefetch bool) Spec { return Spec{Kind: KindAURC, Prefetch: prefetch} }

// DefaultWatchdog is the liveness window armed when Spec.Watchdog is 0:
// 20M cycles (200 ms of paper time) without any process progressing,
// while at least one is blocked, is far beyond any legitimate stall in
// these workloads — even a retransmission storm at the transport's
// maximum backoff resolves orders of magnitude faster.
const DefaultWatchdog sim.Time = 20_000_000

// StallInfo is the structured liveness report attached to a Result when
// the run deadlocked or the watchdog tripped: which processes were
// blocked on what, the protocol operations still in flight, and the
// reliable transport's retransmission state — enough to tell a wedged
// controller from a lost wakeup from a transport livelock without
// rerunning under a debugger.
type StallInfo struct {
	// Deadlock distinguishes a drained event queue with blocked
	// processes (deadlock) from a watchdog trip (livelock: events still
	// firing, nobody progressing).
	Deadlock bool
	// Report names the blocked processes, their wait reasons, and the
	// stall window.
	Report sim.StallReport
	// OpenOps lists the causal spans still in flight when the run
	// stalled (nil unless Spec.Spans was set).
	OpenOps []*spans.Op
	// UnackedMessages is the reliable transport's in-flight gauge:
	// messages sent but not yet acknowledged.
	UnackedMessages int
	// Retries is the transport's retransmission count so far.
	Retries uint64
}

// Result is the outcome of one simulated run.
type Result struct {
	// RunningTime is the parallel execution time in cycles.
	RunningTime sim.Time
	// Breakdown holds the per-processor accounting.
	Breakdown *stats.Breakdown
	// AppResult and SeqResult are the application's answer under the
	// protocol and under the sequential oracle.
	AppResult, SeqResult float64
	// Messages and Bytes summarize network traffic.
	Messages, Bytes uint64
	// Reliability counts injected faults and the transport's recovery
	// work (all-zero when Spec.Faults was nil or disabled).
	Reliability stats.Reliability
	// EventsRun is the number of simulation events the engine executed.
	EventsRun uint64
	// EventFingerprint is the engine's FNV-1a hash of the fired
	// (time, seq) event stream: two runs with equal fingerprints executed
	// bit-identical schedules (see sim.Engine.Fingerprint).
	EventFingerprint uint64
	// EngineStats is the engine's internal counter block (handoffs,
	// elided parks, heap high-water mark) for diagnostics and benchmarks.
	EngineStats sim.Stats
	// EngineProfile is the engine's self-profile (schema
	// dsm96/engine-profile/v1): the fired event count and Run's wall
	// time. Always present; the deterministic block is
	// schedule-determined, the host block is wall-clock (see
	// sim.EngineProfile).
	EngineProfile *sim.EngineProfile
	// Protocol is the spec's label.
	Protocol string
	// App is the application's name.
	App string
	// Pages holds the per-page sharing profile (faults, invalidations,
	// diff traffic, reader/writer sets).
	Pages []stats.PageProfile
	// Spans is the causal-span report (nil unless Spec.Spans was set):
	// per-kind latency percentiles and stage decomposition, overlap
	// accounting, and the barrier critical-path chains.
	Spans *spans.Report
	// Stall carries the liveness report when the run deadlocked or the
	// watchdog tripped; Run returns the partial Result alongside the
	// error so callers can render it. Nil on completed runs.
	Stall *StallInfo
}

// Validated reports whether the parallel answer matches the sequential
// one within floating-point reduction tolerance.
func (r *Result) Validated() bool {
	a, b := r.AppResult, r.SeqResult
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return false
	}
	return math.Abs(a-b)/scale < 1e-6
}

// system is what core needs from a protocol implementation.
type system interface {
	dsm.System
	InstallProc(id int, p *sim.Proc)
	FinishProc(id int, p *sim.Proc)
	Breakdown(t sim.Time) *stats.Breakdown
}

// Run simulates app under the given protocol and machine configuration.
// The application's answer is validated against a sequential execution of
// the same code.
func Run(cfg params.Config, spec Spec, app dsm.App) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Machine-size-dependent apps learn the processor count before ANY
	// Setup — the sequential oracle below must use the same shared-data
	// layout as the parallel run it validates.
	if s, ok := app.(dsm.Sized); ok {
		s.SetProcs(cfg.Processors)
	}
	// Sequential oracle first (the app's Setup must reset all state).
	seq := dsm.RunSequential(app, cfg.PageSize)

	if err := spec.Faults.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	switch {
	case spec.Watchdog > 0:
		eng.SetWatchdog(spec.Watchdog)
	case spec.Watchdog == 0:
		eng.SetWatchdog(DefaultWatchdog)
	}
	net := network.New(&cfg, eng, cfg.Processors)
	net.InstallFaults(faults.NewModel(spec.Faults, cfg.Processors))
	var sys system
	switch spec.Kind {
	case KindTM:
		sys = tmk.NewWithOptions(&cfg, eng, net, spec.TMMode, spec.TMOptions)
	case KindAURC:
		sys = aurc.New(&cfg, eng, net, spec.Prefetch)
	default:
		return nil, fmt.Errorf("core: unknown protocol kind %d", spec.Kind)
	}
	if spec.Faults.CtrlEnabled() {
		// Only TreadMarks controller modes have a controller to fail;
		// elsewhere (Base, AURC) the schedule is structurally vacuous.
		if cf, ok := sys.(interface{ InstallCtrlFaults(*faults.Plan) }); ok {
			cf.InstallCtrlFaults(spec.Faults)
		}
	}

	if spec.Tracer != nil {
		if tr, ok := sys.(interface{ SetTracer(*trace.Buffer) }); ok {
			tr.SetTracer(spec.Tracer)
		}
	}
	if spec.Timeline != nil {
		// Before InstallProc below: the protocols install the recording
		// accounting hook only when a recorder is attached.
		net.SetTimeline(spec.Timeline)
		if tl, ok := sys.(interface{ SetTimeline(*timeline.Recorder) }); ok {
			tl.SetTimeline(spec.Timeline)
		}
	}
	if spec.Spans != nil {
		// After SetTimeline (the controller trace hook chains onto the
		// recorder's) and before InstallProc (the charging accounting hook
		// must be the one installed).
		net.SetSpans(spec.Spans)
		if sp, ok := sys.(interface{ SetSpans(*spans.Tracker) }); ok {
			sp.SetSpans(spec.Spans)
		}
	}
	app.Setup(sys.Heap())
	for id := 0; id < cfg.Processors; id++ {
		id := id
		var proc *sim.Proc
		proc = eng.NewProc(id, fmt.Sprintf("cpu%d", id), 0, func(p *sim.Proc) {
			app.Body(&dsm.Env{ID: id, P: p, Sys: sys})
			sys.FinishProc(id, p)
		})
		sys.InstallProc(id, proc)
	}
	if err := eng.Run(); err != nil {
		err = fmt.Errorf("core: %s/%s: %w", app.Name(), spec, err)
		var serr *sim.StallError
		if !errors.As(err, &serr) {
			return nil, err
		}
		// Liveness failure: return the partial result alongside the
		// error so callers can render the stall report — who was
		// blocked on what, which protocol operations were in flight,
		// and whether the transport still had messages outstanding.
		res := &Result{
			RunningTime:      eng.Now(),
			Breakdown:        sys.Breakdown(eng.Now()),
			AppResult:        math.NaN(),
			SeqResult:        seq,
			Messages:         net.Messages(),
			Bytes:            net.Bytes(),
			Reliability:      net.Rel(),
			EventsRun:        eng.EventsRun(),
			EventFingerprint: eng.Fingerprint(),
			EngineStats:      eng.Stats(),
			EngineProfile:    eng.Profile(),
			Protocol:         spec.String(),
			App:              app.Name(),
			Stall: &StallInfo{
				Deadlock:        serr.Deadlock,
				Report:          serr.Report,
				OpenOps:         spec.Spans.OpenOps(),
				UnackedMessages: net.Unacked(),
				Retries:         net.Rel().Retries,
			},
		}
		return res, err
	}
	var pages []stats.PageProfile
	if pp, ok := sys.(stats.PageProfiler); ok {
		pages = pp.PageProfiles()
	}
	res := &Result{
		RunningTime:      eng.Now(),
		Pages:            pages,
		Breakdown:        sys.Breakdown(eng.Now()),
		AppResult:        app.Result(),
		SeqResult:        seq,
		Messages:         net.Messages(),
		Bytes:            net.Bytes(),
		Reliability:      net.Rel(),
		EventsRun:        eng.EventsRun(),
		EventFingerprint: eng.Fingerprint(),
		EngineStats:      eng.Stats(),
		EngineProfile:    eng.Profile(),
		Protocol:         spec.String(),
		App:              app.Name(),
	}
	if spec.Spans != nil {
		res.Spans = spec.Spans.Report()
	}
	if !res.Validated() {
		return res, fmt.Errorf("core: %s under %s computed %v, sequential oracle %v",
			app.Name(), spec, res.AppResult, res.SeqResult)
	}
	return res, nil
}

// SequentialCycles runs the app on a single processor under base
// TreadMarks (no remote communication) and returns its running time —
// the denominator the paper's speedup figures use.
func SequentialCycles(cfg params.Config, app dsm.App) (sim.Time, error) {
	cfg.Processors = 1
	r, err := Run(cfg, TM(tmk.Base), app)
	if err != nil {
		return 0, err
	}
	return r.RunningTime, nil
}
