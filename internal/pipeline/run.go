package pipeline

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dsm96/internal/core"
	"dsm96/internal/experiments"
)

// ManifestSchema tags the run-folder manifest.
const ManifestSchema = "dsm96/run-manifest/v1"

// Host records where a run's wall-clock numbers were measured. The
// num_cpu field is the host class: trend comparisons refuse to compare
// throughput across different values (metricsdiff -trend), because an
// events/sec regression on an 8-core runner and a 1-core container are
// different facts.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// CellResult is one measured grid point. Cycles, Events, Fingerprint,
// and MetricsKeys are deterministic contracts of the simulator —
// identical on any host. WallNS and EventsPerSec
// are wall-clock facts about the measuring host.
type CellResult struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	Profile  string `json:"profile"`
	Procs    int    `json:"procs"`
	// Fault is the fault scenario's name; empty (and omitted) on
	// fault-free cells, so pre-chaos manifests and trend records keep
	// their byte-exact shape.
	Fault string `json:"fault,omitempty"`
	Scale string `json:"scale"`

	Cycles      int64  `json:"cycles"`
	Events      uint64 `json:"events"`
	Fingerprint string `json:"fingerprint"`
	// MetricsKeys is an FNV-1a hash over the cell's run-metrics schema
	// tag plus its sorted flattened key paths — a drift detector for
	// the metrics *shape*, independent of the values.
	MetricsKeys string `json:"metrics_keys"`

	// WallNS is the fastest measured repeat (warmup discarded).
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	Repeats      int     `json:"repeats"`
	Warmup       int     `json:"warmup"`

	Error string `json:"error,omitempty"`

	result *core.Result
}

// RunResult is one executed experiment, ready to be written as a run
// folder, folded into a trend record, or rendered into a table.
type RunResult struct {
	Experiment Experiment
	Host       Host
	Cells      []CellResult
}

// Failed returns the IDs of cells that errored.
func (r *RunResult) Failed() []string {
	var out []string
	for i := range r.Cells {
		if r.Cells[i].Error != "" {
			out = append(out, r.Cells[i].ID)
		}
	}
	return out
}

// RunExperiment executes every cell of the experiment: warmup+repeats
// executions per cell on the shared simulation pool, the fastest
// measured repeat kept for throughput. Each cell's executions must
// agree bit-for-bit on fingerprint, cycles, and events (a repeat
// divergence is a determinism escape). Per-cell failures are
// recorded in the cell (and summarized by RunResult.Failed), not
// returned: one broken cell must not hide the rest of the grid.
func RunExperiment(e *Experiment) (*RunResult, error) {
	cells, err := e.Expand()
	if err != nil {
		return nil, err
	}
	out := &RunResult{Experiment: *e, Host: CurrentHost()}
	timeout := time.Duration(e.TimeoutSec) * time.Second
	for i := range cells {
		out.Cells = append(out.Cells, runCell(&cells[i], e.Repeats, e.Warmup, timeout))
	}
	return out, nil
}

// runCell executes one cell's warmup+repeats batch under the timeout.
func runCell(c *Cell, repeats, warmup int, timeout time.Duration) CellResult {
	res := CellResult{
		ID: c.ID(), App: c.App, Protocol: c.Protocol, Profile: c.Profile,
		Procs: c.Procs, Fault: c.Fault, Scale: c.ScaleName,
		Repeats: repeats, Warmup: warmup,
	}
	total := warmup + repeats
	batch := make([]experiments.Cell, total)
	for i := range batch {
		batch[i] = experiments.Cell{App: c.App, Spec: c.spec, Cfg: c.cfg, Scale: c.Scale}
	}
	runs, ok := runWithTimeout(batch, timeout)
	if !ok {
		res.Error = fmt.Sprintf("timed out after %s (%d executions)", timeout, total)
		return res
	}
	var ref *experiments.Run
	minWall := int64(1) << 62
	for i := range runs {
		r := &runs[i]
		if r.Err != nil {
			res.Error = r.Err.Error()
			return res
		}
		if ref == nil {
			ref = r
		} else if r.Result.EventFingerprint != ref.Result.EventFingerprint ||
			r.Result.EventsRun != ref.Result.EventsRun ||
			r.Result.RunningTime != ref.Result.RunningTime {
			res.Error = fmt.Sprintf(
				"determinism violation: repeat %d fired (%016x, %d events, %d cycles), repeat 0 fired (%016x, %d events, %d cycles)",
				i, r.Result.EventFingerprint, r.Result.EventsRun, r.Result.RunningTime,
				ref.Result.EventFingerprint, ref.Result.EventsRun, ref.Result.RunningTime)
			return res
		}
		if i >= warmup && int64(r.Wall) < minWall {
			minWall = int64(r.Wall)
		}
	}
	if minWall < 1 {
		minWall = 1 // a sub-nanosecond reading would make events/sec non-finite
	}
	res.WallNS = minWall
	res.Cycles = int64(ref.Result.RunningTime)
	res.Events = ref.Result.EventsRun
	res.Fingerprint = fmt.Sprintf("%016x", ref.Result.EventFingerprint)
	res.EventsPerSec = float64(res.Events) / (float64(res.WallNS) / 1e9)
	res.result = ref.Result
	if keys, err := MetricsKeyHash(ref.Result); err != nil {
		res.Error = fmt.Sprintf("metrics key hash: %v", err)
	} else {
		res.MetricsKeys = keys
	}
	return res
}

// runWithTimeout executes the batch on the shared pool, bounded by the
// timeout (0 = none). On timeout the batch's goroutine is abandoned —
// core.Run is not cancellable — which is acceptable for a CLI run that
// is about to report the cell as failed.
func runWithTimeout(batch []experiments.Cell, timeout time.Duration) ([]experiments.Run, bool) {
	if timeout <= 0 {
		return experiments.RunCells(batch), true
	}
	start := time.Now()
	done := make(chan []experiments.Run, 1)
	go func() { done <- experiments.RunCells(batch) }()
	select {
	case runs := <-done:
		// When the batch and the timer are both ready, select picks
		// either: a batch that outlasted the timeout counts as timed out
		// whichever case won.
		if time.Since(start) >= timeout {
			return nil, false
		}
		return runs, true
	case <-time.After(timeout):
		return nil, false
	}
}

// MetricsKeyHash hashes the run-metrics schema tag plus the sorted
// flattened key paths of a result's metrics JSON — the metrics *shape*
// drift detector the manifest, trend records, and job-server results
// all carry.
func MetricsKeyHash(res *core.Result) (string, error) {
	var buf jsonBuffer
	if err := res.Metrics().WriteJSON(&buf); err != nil {
		return "", err
	}
	var v any
	if err := json.Unmarshal(buf.b, &v); err != nil {
		return "", err
	}
	keys := map[string]bool{}
	flattenKeys("", v, keys)
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, k := range sorted {
		io.WriteString(h, k)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

type jsonBuffer struct{ b []byte }

func (w *jsonBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// flattenKeys records every dotted scalar path of a decoded JSON value.
// Array elements collapse to one segment ("#") so a per-processor list
// does not make the hash depend on the processor count.
func flattenKeys(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenKeys(p, sub, out)
		}
	case []any:
		for _, sub := range x {
			p := "#"
			if prefix != "" {
				p = prefix + ".#"
			}
			flattenKeys(p, sub, out)
		}
	default:
		out[prefix] = true
	}
}

// Manifest is the run folder's index: the experiment spec echoed, the
// measuring host, and one entry per cell with its determinism
// fingerprints and the SHA-256 of its metrics artifact — the
// hash-anchored ledger that makes a run folder self-verifying.
type Manifest struct {
	Schema     string         `json:"schema"`
	Experiment Experiment     `json:"experiment"`
	Stamp      string         `json:"stamp"`
	Host       Host           `json:"host"`
	Cells      []ManifestCell `json:"cells"`
}

// ManifestCell is one cell's manifest entry.
type ManifestCell struct {
	CellResult
	MetricsFile   string `json:"metrics_file,omitempty"`
	MetricsSHA256 string `json:"metrics_sha256,omitempty"`
}

// writeArtifact is WriteFileAtomic, indirected so tests can kill a
// write partway through.
var writeArtifact = experiments.WriteFileAtomic

// WriteRunFolder writes one dated run folder under dir:
//
//	<dir>/<stamp>-<experiment>/
//	  manifest.json   (dsm96/run-manifest/v1)
//	  cells.csv       (canonical: fixed columns, cell order)
//	  metrics/cell-NNNN-<app>-<proto>-<profile>-pN-wM.json
//
// Every artifact goes through the atomic temp-and-rename writer, and
// the manifest — which records each metrics file's SHA-256 — is
// written last, so a killed run never leaves a folder whose manifest
// vouches for artifacts that do not exist or are truncated. Returns
// the run folder path.
func WriteRunFolder(dir, stamp string, r *RunResult) (string, error) {
	folder := filepath.Join(dir, stamp+"-"+r.Experiment.Name)
	if err := os.MkdirAll(filepath.Join(folder, "metrics"), 0o755); err != nil {
		return "", fmt.Errorf("pipeline: %w", err)
	}
	man := Manifest{
		Schema:     ManifestSchema,
		Experiment: r.Experiment,
		Stamp:      stamp,
		Host:       r.Host,
		Cells:      make([]ManifestCell, 0, len(r.Cells)),
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		mc := ManifestCell{CellResult: *c}
		if c.result != nil {
			// Re-derive the cell to name the artifact; c.ID is unique, the
			// stem adds the sequence number for sortable listings.
			stem := (&Cell{App: c.App, Protocol: c.Protocol, Profile: c.Profile,
				Procs: c.Procs, Fault: c.Fault}).Stem(i)
			rel := filepath.Join("metrics", stem+".json")
			h := sha256.New()
			err := writeArtifact(filepath.Join(folder, rel), func(w io.Writer) error {
				return c.result.Metrics().WriteJSON(io.MultiWriter(w, h))
			})
			if err != nil {
				return "", fmt.Errorf("pipeline: cell %s: %w", c.ID, err)
			}
			mc.MetricsFile = rel
			mc.MetricsSHA256 = hex.EncodeToString(h.Sum(nil))
		}
		man.Cells = append(man.Cells, mc)
	}
	if err := writeArtifact(filepath.Join(folder, "cells.csv"), func(w io.Writer) error {
		return writeCSV(w, r)
	}); err != nil {
		return "", fmt.Errorf("pipeline: cells.csv: %w", err)
	}
	if err := writeArtifact(filepath.Join(folder, "manifest.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	}); err != nil {
		return "", fmt.Errorf("pipeline: manifest.json: %w", err)
	}
	return folder, nil
}

// csvHeader is the canonical cells.csv column set, in order.
var csvHeader = []string{
	"experiment", "app", "protocol", "profile", "procs", "fault", "scale",
	"repeats", "warmup", "cycles", "events", "fingerprint", "metrics_keys",
	"wall_ns", "events_per_sec", "error",
}

func writeCSV(w io.Writer, r *RunResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []string{
			r.Experiment.Name, c.App, c.Protocol, c.Profile,
			strconv.Itoa(c.Procs), c.Fault, c.Scale,
			strconv.Itoa(c.Repeats), strconv.Itoa(c.Warmup),
			strconv.FormatInt(c.Cycles, 10), strconv.FormatUint(c.Events, 10),
			c.Fingerprint, c.MetricsKeys,
			strconv.FormatInt(c.WallNS, 10),
			strconv.FormatFloat(c.EventsPerSec, 'f', 0, 64),
			c.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Stamp formats a run-folder timestamp (UTC, sortable).
func Stamp(t time.Time) string { return t.UTC().Format("20060102-150405") }
