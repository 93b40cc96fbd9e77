package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/params"
	"dsm96/internal/tmk"
)

type declaredMetric struct {
	Name, Unit string
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkMetrics fails unless got carries exactly the declared metrics,
// each with its declared unit.
func checkMetrics(t *testing.T, got map[string]jsonMetric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not printed", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s printed in %q, declared in %q", m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s = %v", m.Name, g.Value)
		}
	}
}

// TestEveryWorkloadOnePass runs the warm-up and one timed pass of every
// workload: no cell may fail, and the JSON line must carry exactly the
// end-to-end metrics BENCHMARK.json declares.
func TestEveryWorkloadOnePass(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := run(options{workload: name, seed: 1, setupRuns: 1}, nanotime())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("%d of %d cells failed: %v", rep.failed, rep.attempted, rep.problems)
			}
			checkMetrics(t, rep.result().Metrics, doc.EndToEnd)
		})
	}
}

// TestTracedRun checks that a traced run repeats the untraced schedule,
// reports exactly the declared per-layer metrics, and writes its files.
func TestTracedRun(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	dir := t.TempDir()
	rep, err := run(options{workload: "migratory", seed: 1, trace: true, traceDir: dir, setupRuns: 1}, nanotime())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%d of %d cells failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	checkMetrics(t, rep.result().Metrics, doc.PerLayer)
	for _, f := range []string{"spans.jsonl", "cpu.pprof", "layers.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
}

// TestWrapperKeepsSchedule runs radix past its 64-slot floor, where an
// unforwarded SetProcs breaks the run, with and without the boundary
// wrapper, under one protocol of each family: the wrapped run must fire
// the same schedule and account for its whole wall time.
func TestWrapperKeepsSchedule(t *testing.T) {
	prof, err := params.Builtin(params.BackendPCI1996)
	if err != nil {
		t.Fatal(err)
	}
	cfg := prof.Config()
	cfg.Processors = 96
	ipd, _ := tmk.ParseMode("I+P+D")
	for _, spec := range []core.Spec{core.TM(ipd), core.AURC(false)} {
		t.Run(spec.String(), func(t *testing.T) {
			c := cell{id: "radix", cfg: cfg, spec: spec, newApp: func() dsm.App {
				app, err := apps.Tiny("radix")
				if err != nil {
					t.Fatal(err)
				}
				return app
			}}
			plain, traced := runCell(&c, false), runCell(&c, true)
			if plain.err != nil {
				t.Fatal(plain.err)
			}
			if err := sameRun(traced, plain); err != nil {
				t.Fatal(err)
			}
			b := traced.b
			sum := b.app + b.oracle() + b.protocol() + b.other()
			if b.broken || sum != b.end-b.start {
				t.Errorf("boundary split %d ns of %d ns wall (crossings out of order: %v)", sum, b.end-b.start, b.broken)
			}
			if b.calls[kindRead] == 0 || b.calls[kindBarrier] == 0 || b.calls[kindFinish] != int64(cfg.Processors) {
				t.Errorf("calls per kind %v", b.calls)
			}
		})
	}
}
