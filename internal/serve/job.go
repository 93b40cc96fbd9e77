// Package serve is the simulation-as-a-service layer: a crash-safe job
// server that accepts dsm96/job/v1 simulation specs over HTTP, dedupes
// and memoizes them by canonical content hash, executes misses on a
// bounded worker pool with explicit backpressure, and persists results
// in a content-addressed artifact store that a restart recovers to a
// consistent state after a crash at any point.
//
// The design leans on one property the rest of the repository already
// proves: runs are bit-identical given their spec (fingerprint gates,
// golden cycles, trend determinism fields). That makes every result
// perfectly cacheable — SHA-256(canonical spec) is a complete identity
// for the artifact a run produces — and makes crash recovery trivial
// to argue: re-running an interrupted job reproduces byte-identical
// output, so the journal only has to avoid losing or duplicating
// *records*, never to reconstruct partial computation.
//
// Layering: job.go (spec canonicalization + hashing + result
// summaries), store.go (journaled content-addressed store + recovery
// scan), server.go (HTTP surface, queue, workers, drain, degraded
// mode), client.go (thin client; cmd/sweep -server rides it).
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/experiments"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/pipeline"
	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// JobSchema tags the submitted job format.
const JobSchema = "dsm96/job/v1"

// JobSpec is one submitted simulation. The result-determining fields —
// app, protocol, scale, machine configuration, fault scenario — form
// the canonical identity the server hashes into the job key; the
// watchdog is execution policy (pure observation), so two submissions
// differing only there are the same job.
type JobSpec struct {
	Schema   string `json:"schema"`
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	// Scale is the problem scale (tiny, default, paper); "" = default.
	Scale string `json:"scale,omitempty"`
	// Profile names a builtin interconnect backend (pci1996, rdma,
	// cxl). The server never reads client-supplied file paths; a custom
	// machine travels inline as Config instead. "" with nil Config is
	// Table 1.
	Profile string `json:"profile,omitempty"`
	// Config, when set, is the full machine model (wins over Profile) —
	// how sweep cells with continuously-mutated parameters (Figures
	// 13-16) become jobs.
	Config *params.Config `json:"config,omitempty"`
	// Procs overrides the config/profile processor count when > 0.
	Procs int `json:"procs,omitempty"`
	// Watchdog is the liveness window in cycles; 0 arms the default. A
	// stalled run fails with a structured stall report instead of
	// wedging a worker. Negative (watchdog off) is not accepted: an
	// unwatched job could hold a pool slot forever.
	Watchdog int64 `json:"watchdog,omitempty"`
	// Faults is the optional fault-injection scenario.
	Faults *JobFaults `json:"faults,omitempty"`
}

// JobFaults is the job spec's fault block: uniform link rates plus an
// explicit per-node controller schedule. It deliberately covers what
// faults.Plan can express minus per-link overrides (a map keyed by a
// struct, which JSON cannot carry); the sweeps and chaos grids only
// ever use the uniform + controller form.
type JobFaults struct {
	Seed     uint64                   `json:"seed,omitempty"`
	Drop     float64                  `json:"drop,omitempty"`
	Dup      float64                  `json:"dup,omitempty"`
	Delay    float64                  `json:"delay,omitempty"`
	DelayMin int64                    `json:"delay_min,omitempty"`
	DelayMax int64                    `json:"delay_max,omitempty"`
	Ctrl     map[int]faults.CtrlFault `json:"ctrl,omitempty"`
}

// plan resolves the block into a validated fault plan.
func (f *JobFaults) plan() (*faults.Plan, error) {
	if f == nil {
		return nil, nil
	}
	p := &faults.Plan{
		Seed: f.Seed,
		Default: faults.Link{
			Drop: f.Drop, Dup: f.Dup, Delay: f.Delay,
			DelayMin: sim.Time(f.DelayMin), DelayMax: sim.Time(f.DelayMax),
		},
		Ctrl: f.Ctrl,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.LinksEnabled() && !p.CtrlEnabled() {
		return nil, nil // all-zero block: identical to no faults, and keyed as such
	}
	return p, nil
}

// FaultsFromPlan converts a fault plan back into the job block, or an
// error if the plan uses per-link overrides the wire format cannot
// carry. nil (or disabled) plans map to nil.
func FaultsFromPlan(p *faults.Plan) (*JobFaults, error) {
	if p == nil {
		return nil, nil
	}
	if len(p.PerLink) > 0 {
		return nil, fmt.Errorf("serve: per-link fault overrides are not representable in a job spec")
	}
	if !p.LinksEnabled() && !p.CtrlEnabled() {
		return nil, nil
	}
	jf := &JobFaults{
		Seed: p.Seed,
		Drop: p.Default.Drop, Dup: p.Default.Dup, Delay: p.Default.Delay,
		DelayMin: int64(p.Default.DelayMin), DelayMax: int64(p.Default.DelayMax),
	}
	if len(p.Ctrl) > 0 {
		jf.Ctrl = make(map[int]faults.CtrlFault, len(p.Ctrl))
		for n, c := range p.Ctrl {
			jf.Ctrl[n] = c
		}
	}
	return jf, nil
}

// canonicalJob is the hashed identity: every result-determining field,
// fully resolved (profile applied, procs folded into the config,
// protocol label normalized). json.Marshal on this struct is
// deterministic — fixed field order, sorted map keys — so equal jobs
// hash equal regardless of how the submission spelled them.
type canonicalJob struct {
	Schema   string        `json:"schema"`
	App      string        `json:"app"`
	Protocol string        `json:"protocol"`
	Scale    string        `json:"scale"`
	Config   params.Config `json:"config"`
	Faults   *JobFaults    `json:"faults,omitempty"`
}

// ResolvedJob is a validated, canonicalized job ready to execute.
type ResolvedJob struct {
	// Key is the job's identity: hex SHA-256 of the canonical spec.
	Key string
	// Canonical is the canonical spec document (stored in the journal,
	// so a record is self-describing and re-runnable).
	Canonical json.RawMessage
	App       string
	Protocol  string
	ScaleName string
	Scale     experiments.Scale
	Cfg       params.Config
	Spec      core.Spec
}

// AppInstance builds the job's application at its resolved scale.
func (j *ResolvedJob) AppInstance() (dsm.App, error) {
	return experiments.AppAt(j.App, j.Scale)
}

// Resolve validates the submission and computes its canonical identity,
// naming the offending field on rejection.
func (j *JobSpec) Resolve() (*ResolvedJob, error) {
	if j.Schema != JobSchema {
		return nil, fmt.Errorf("serve: schema: got %q, want %q", j.Schema, JobSchema)
	}
	known := false
	for _, n := range apps.Names() {
		known = known || n == j.App
	}
	if !known {
		return nil, fmt.Errorf("serve: app: unknown %q", j.App)
	}
	spec, ok := pipeline.ParseProtocol(j.Protocol)
	if !ok {
		return nil, fmt.Errorf("serve: protocol: unknown %q", j.Protocol)
	}
	scaleName := j.Scale
	if scaleName == "" {
		scaleName = "default"
	}
	sc, ok := experiments.ParseScale(scaleName)
	if !ok {
		return nil, fmt.Errorf("serve: scale: unknown %q (want tiny, default, or paper)", j.Scale)
	}
	var cfg params.Config
	switch {
	case j.Config != nil:
		cfg = *j.Config
	case j.Profile != "":
		prof, err := params.Builtin(j.Profile)
		if err != nil {
			return nil, fmt.Errorf("serve: profile: %w (the server resolves builtin backends only; send a custom machine inline as config)", err)
		}
		cfg = prof.Config()
	default:
		cfg = params.Default()
	}
	if j.Procs > 0 {
		cfg.Processors = j.Procs
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("serve: config: %w", err)
	}
	if j.Watchdog < 0 {
		return nil, fmt.Errorf("serve: watchdog: %d, need >= 0 (an unwatched job could wedge a worker forever)", j.Watchdog)
	}
	plan, err := j.Faults.plan()
	if err != nil {
		return nil, fmt.Errorf("serve: faults: %w", err)
	}
	if plan != nil && plan.CtrlEnabled() {
		for n := range plan.Ctrl {
			if n < 0 || n >= cfg.Processors {
				return nil, fmt.Errorf("serve: faults: ctrl node %d outside 0..%d", n, cfg.Processors-1)
			}
		}
	}
	spec.Watchdog = sim.Time(j.Watchdog)
	spec.Faults = plan

	canonFaults := j.Faults
	if plan == nil {
		canonFaults = nil // all-zero fault blocks key identically to none
	}
	canon, err := json.Marshal(&canonicalJob{
		Schema: JobSchema, App: j.App, Protocol: spec.String(),
		Scale: scaleName, Config: cfg, Faults: canonFaults,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: canonicalize: %w", err)
	}
	sum := sha256.Sum256(canon)
	return &ResolvedJob{
		Key:       hex.EncodeToString(sum[:]),
		Canonical: canon,
		App:       j.App,
		Protocol:  spec.String(),
		ScaleName: scaleName,
		Scale:     sc,
		Cfg:       cfg,
		Spec:      spec,
	}, nil
}

// JobResult is the persisted summary of a completed run: the
// determinism contracts (cycles, events, fingerprint, metrics key
// hash), the validation pair, traffic, the full per-processor
// breakdown, and the reliability counters — everything the sweep
// formatters consume — plus the SHA-256 naming the run-metrics
// artifact in the store.
type JobResult struct {
	Cycles        int64             `json:"cycles"`
	Events        uint64            `json:"events"`
	Fingerprint   string            `json:"fingerprint"`
	MetricsKeys   string            `json:"metrics_keys"`
	AppResult     float64           `json:"app_result"`
	SeqResult     float64           `json:"seq_result"`
	Messages      uint64            `json:"messages"`
	Bytes         uint64            `json:"bytes"`
	Breakdown     *stats.Breakdown  `json:"breakdown"`
	Reliability   stats.Reliability `json:"reliability"`
	MetricsSHA256 string            `json:"metrics_sha256"`
}

// SummarizeResult folds a completed core result into the persisted
// summary. metricsSHA names the run-metrics artifact already written to
// the store.
func SummarizeResult(res *core.Result, metricsSHA string) (*JobResult, error) {
	keys, err := pipeline.MetricsKeyHash(res)
	if err != nil {
		return nil, err
	}
	return &JobResult{
		Cycles:        int64(res.RunningTime),
		Events:        res.EventsRun,
		Fingerprint:   fmt.Sprintf("%016x", res.EventFingerprint),
		MetricsKeys:   keys,
		AppResult:     res.AppResult,
		SeqResult:     res.SeqResult,
		Messages:      res.Messages,
		Bytes:         res.Bytes,
		Breakdown:     res.Breakdown,
		Reliability:   res.Reliability,
		MetricsSHA256: metricsSHA,
	}, nil
}

// CoreResult reconstructs the facade-level result the sweep formatters
// need (running time, breakdown, validation pair, traffic, reliability,
// fingerprint). Artifact-only detail (spans, pages, engine profile)
// stays in the stored metrics artifact.
func (r *JobResult) CoreResult(app, protocol string) (*core.Result, error) {
	var fp uint64
	if _, err := fmt.Sscanf(r.Fingerprint, "%x", &fp); err != nil {
		return nil, fmt.Errorf("serve: result fingerprint %q: %w", r.Fingerprint, err)
	}
	return &core.Result{
		RunningTime:      sim.Time(r.Cycles),
		Breakdown:        r.Breakdown,
		AppResult:        r.AppResult,
		SeqResult:        r.SeqResult,
		Messages:         r.Messages,
		Bytes:            r.Bytes,
		Reliability:      r.Reliability,
		EventsRun:        r.Events,
		EventFingerprint: fp,
		Protocol:         protocol,
		App:              app,
	}, nil
}

// StallSummary is the structured liveness report persisted when a job's
// run stalled (PR 5's watchdog machinery surfacing through the service
// layer): instead of a wedged worker, the job fails with this attached.
type StallSummary struct {
	Deadlock     bool     `json:"deadlock"`
	At           int64    `json:"at"`
	LastProgress int64    `json:"last_progress"`
	Blocked      []string `json:"blocked,omitempty"`
	Unacked      int      `json:"unacked_messages,omitempty"`
	Retries      uint64   `json:"transport_retries,omitempty"`
}

// summarizeStall flattens core's stall info for the journal.
func summarizeStall(s *core.StallInfo) *StallSummary {
	if s == nil {
		return nil
	}
	out := &StallSummary{
		Deadlock:     s.Deadlock,
		At:           int64(s.Report.At),
		LastProgress: int64(s.Report.LastProgress),
		Unacked:      s.UnackedMessages,
		Retries:      s.Retries,
	}
	for _, b := range s.Report.Blocked {
		out.Blocked = append(out.Blocked, fmt.Sprintf("%s blocked on %s since cycle %d", b.Name, b.Reason, b.Since))
	}
	return out
}

// equalCanonical reports whether two canonical spec documents describe
// the same job. Both are canonical (fixed field order, sorted keys), so
// compacted byte equality is semantic equality — compaction strips the
// indentation the pretty-printing journal encoder re-flows embedded
// raw messages with.
func equalCanonical(a, b json.RawMessage) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
