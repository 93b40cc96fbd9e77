package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/timeline"
	"dsm96/internal/tmk"
	"dsm96/internal/trace"
)

// obsArtifacts is one fully-instrumented run's observable output: every
// byte stream a user can ask dsmsim for, plus the schedule fingerprint.
type obsArtifacts struct {
	fingerprint uint64
	perfetto    []byte
	metrics     []byte
	spansJSONL  []byte
	traceText   string
	profile     *sim.EngineProfile
}

// runInstrumented executes one run with tracer+timeline+spans attached
// and collects every artifact.
func runInstrumented(t *testing.T, appName string, spec core.Spec, procs int) obsArtifacts {
	t.Helper()
	app, err := apps.Tiny(appName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := params.Default()
	cfg.Processors = procs
	tracer := trace.New(1 << 14)
	rec := timeline.NewRecorder(procs)
	tracker := spans.NewTracker(procs)
	spec.Tracer = tracer
	spec.Timeline = rec
	spec.Spans = tracker
	res, err := core.Run(cfg, spec, app)
	if err != nil {
		t.Fatalf("%s: %v", appName, err)
	}
	out := obsArtifacts{fingerprint: res.EventFingerprint, profile: res.EngineProfile}
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf, tracer.Events()); err != nil {
		t.Fatalf("perfetto: %v", err)
	}
	out.perfetto = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := res.Metrics().WriteJSON(&buf); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	out.metrics = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := tracker.WriteJSONL(&buf); err != nil {
		t.Fatalf("spans: %v", err)
	}
	out.spansJSONL = append([]byte(nil), buf.Bytes()...)
	out.traceText = tracer.String()
	return out
}

// TestObservabilityRepeatParity is the observability wall: with the
// full instrumentation stack attached (trace buffer, timeline recorder,
// span tracker), the Perfetto timeline, run-metrics JSON, spans JSONL,
// and rendered trace must be byte-identical across repeat runs — and
// the schedule fingerprint must equal the uninstrumented run's, proving
// the observers neither reorder themselves nor perturb the simulation.
func TestObservabilityRepeatParity(t *testing.T) {
	type pt struct {
		app  string
		spec core.Spec
		name string
	}
	points := []pt{
		{"water", core.TM(tmk.Base), "water/Base"},
		{"water", core.TM(tmk.IPD), "water/I+P+D"},
		{"radix", core.TM(tmk.Base), "radix/Base"},
		{"radix", core.TM(tmk.IPD), "radix/I+P+D"},
	}
	if testing.Short() {
		points = points[:2]
	}
	for _, p := range points {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			// The uninstrumented schedule is the reference: attaching
			// observers must not move a single event.
			app, err := apps.Tiny(p.app)
			if err != nil {
				t.Fatal(err)
			}
			bareRes, err := core.Run(params.Default(), p.spec, app)
			if err != nil {
				t.Fatal(err)
			}
			a := runInstrumented(t, p.app, p.spec, 16)
			b := runInstrumented(t, p.app, p.spec, 16)
			if a.fingerprint != bareRes.EventFingerprint {
				t.Errorf("instrumented fingerprint %016x, uninstrumented %016x",
					a.fingerprint, bareRes.EventFingerprint)
			}
			if !bytes.Equal(a.perfetto, b.perfetto) {
				t.Errorf("Perfetto timeline differs across repeats (%d vs %d bytes)",
					len(a.perfetto), len(b.perfetto))
			}
			if !bytes.Equal(a.metrics, b.metrics) {
				t.Error("run-metrics JSON differs across repeats")
			}
			if !bytes.Equal(a.spansJSONL, b.spansJSONL) {
				t.Errorf("spans JSONL differs across repeats (%d vs %d bytes)",
					len(a.spansJSONL), len(b.spansJSONL))
			}
			if a.traceText != b.traceText {
				t.Error("rendered trace differs across repeats")
			}
		})
	}
}

// TestObservabilityParityLargeMesh is the same wall on a 128-processor
// mesh: water under I+P+D with spans, timeline, and trace enabled must
// produce byte-identical artifacts across repeat runs.
func TestObservabilityParityLargeMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("128-processor mesh in short mode")
	}
	spec := core.TM(tmk.IPD)
	a := runInstrumented(t, "water", spec, 128)
	b := runInstrumented(t, "water", spec, 128)
	if a.fingerprint != b.fingerprint {
		t.Errorf("fingerprint %016x vs %016x across repeats", a.fingerprint, b.fingerprint)
	}
	if !bytes.Equal(a.perfetto, b.perfetto) {
		t.Errorf("Perfetto timeline differs (%d vs %d bytes)", len(a.perfetto), len(b.perfetto))
	}
	if !bytes.Equal(a.metrics, b.metrics) {
		t.Error("run-metrics JSON differs")
	}
	if !bytes.Equal(a.spansJSONL, b.spansJSONL) {
		t.Errorf("spans JSONL differs (%d vs %d bytes)", len(a.spansJSONL), len(b.spansJSONL))
	}
	if a.traceText != b.traceText {
		t.Error("rendered trace differs")
	}
}

// TestEngineProfileDeterministic pins the self-profiler's contract: the
// profile always carries the dsm96/engine-profile/v1 schema tag, and
// its deterministic block is byte-identical across repeat runs of the
// same configuration — the property metricsdiff -engine-profile gates.
// The host block (wall-clock timings) is intentionally unchecked. The
// engine runs every simulation on one worker, so that is the one case.
func TestEngineProfileDeterministic(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		run := func() (*sim.EngineProfile, uint64) {
			app, err := apps.Tiny("water")
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(params.Default(), core.TM(tmk.IPD), app)
			if err != nil {
				t.Fatal(err)
			}
			if res.EngineProfile == nil {
				t.Fatal("Result.EngineProfile is nil")
			}
			return res.EngineProfile, res.EventsRun
		}
		a, events := run()
		b, _ := run()
		if a.Schema != sim.EngineProfileSchema {
			t.Errorf("schema %q, want %q", a.Schema, sim.EngineProfileSchema)
		}
		if a.Deterministic.EventsRun != events {
			t.Errorf("profile events_run %d, Result.EventsRun %d", a.Deterministic.EventsRun, events)
		}
		da, err := json.Marshal(a.Deterministic)
		if err != nil {
			t.Fatal(err)
		}
		db, err := json.Marshal(b.Deterministic)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("deterministic block differs across repeats:\n a: %s\n b: %s", da, db)
		}
	})
}
