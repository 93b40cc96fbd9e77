// Package dsm96's top-level benchmarks regenerate every table and figure
// of the paper's evaluation as testing.B benchmarks. Each benchmark runs
// the corresponding simulations and reports the figure's headline numbers
// as custom metrics (simulated cycles, normalized percentages, speedups),
// so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Benchmarks use the scaled default inputs; pass -tags or edit the scale
// constant to run the paper-sized inputs (slow).
package dsm96_test

import (
	"fmt"
	"testing"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/experiments"
	"dsm96/internal/params"
	"dsm96/internal/stats"
	"dsm96/internal/tmk"
)

// benchScale picks the input sizes for the benchmark harness.
const benchScale = experiments.ScaleDefault

// BenchmarkTable1Defaults verifies and reports the Table 1 parameters
// (the benchmark exists so the table is regenerated alongside the rest
// of the evaluation; it measures config construction, which is trivial).
func BenchmarkTable1Defaults(b *testing.B) {
	var cfg params.Config
	for i := 0; i < b.N; i++ {
		cfg = params.Default()
	}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cfg.Processors), "processors")
	b.ReportMetric(float64(cfg.PageSize), "page-bytes")
	b.ReportMetric(float64(cfg.MessagingOverhead), "msg-overhead-cycles")
	b.ReportMetric(cfg.NetworkBandwidthMBps(), "net-MB/s")
}

// BenchmarkFig1Speedups regenerates Figure 1: base-TreadMarks speedups
// for all six applications on 16 processors (vs their 1-processor runs).
func BenchmarkFig1Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig1(benchScale, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range apps.Names() {
				b.ReportMetric(data[name][0].Speedup, name+"-speedup-16p")
			}
		}
	}
}

// BenchmarkFig2Breakdown regenerates Figure 2: the 16-processor
// execution-time breakdown and the diff-operation percentages.
func BenchmarkFig2Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.DiffPct, r.App+"-diffops-%")
				b.ReportMetric(100*r.Fraction[stats.Busy], r.App+"-busy-%")
			}
		}
	}
}

// benchFig5to10 regenerates one of Figures 5-10: the six overlap
// variants for one application, reporting each variant's running time
// normalized to Base (the numbers atop the paper's bars).
func benchFig5to10(b *testing.B, app string) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5to10(app, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Normalized, r.Protocol+"-%")
			}
		}
	}
}

func BenchmarkFig5TSP(b *testing.B)    { benchFig5to10(b, "tsp") }
func BenchmarkFig6Water(b *testing.B)  { benchFig5to10(b, "water") }
func BenchmarkFig7Radix(b *testing.B)  { benchFig5to10(b, "radix") }
func BenchmarkFig8Barnes(b *testing.B) { benchFig5to10(b, "barnes") }
func BenchmarkFig9Em3d(b *testing.B)   { benchFig5to10(b, "em3d") }
func BenchmarkFig10Ocean(b *testing.B) { benchFig5to10(b, "ocean") }

// BenchmarkFig11_12AURC regenerates Figures 11-12: overlapping
// TreadMarks (I+D) against AURC and AURC+P for every application.
func BenchmarkFig11_12AURC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig11_12(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range apps.Names() {
				b.ReportMetric(data[name][1].Normalized, name+"-AURC-%")
				b.ReportMetric(data[name][2].Normalized, name+"-AURC+P-%")
			}
		}
	}
}

// benchSweep regenerates one of Figures 13-16, reporting the normalized
// running times of both protocols at the sweep's extremes.
func benchSweep(b *testing.B, run func() ([]experiments.SweepPoint, error), unit string) {
	for i := 0; i < b.N; i++ {
		pts, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			lo, hi := pts[0], pts[len(pts)-1]
			b.ReportMetric(lo.TMNorm, fmt.Sprintf("TM@%g%s", lo.X, unit))
			b.ReportMetric(hi.TMNorm, fmt.Sprintf("TM@%g%s", hi.X, unit))
			b.ReportMetric(lo.AURCNorm, fmt.Sprintf("AURC@%g%s", lo.X, unit))
			b.ReportMetric(hi.AURCNorm, fmt.Sprintf("AURC@%g%s", hi.X, unit))
		}
	}
}

// BenchmarkFig13Messaging regenerates Figure 13 (messaging overhead,
// with AURC updates paying the full per-message overhead — the curve the
// paper shows degrading).
func BenchmarkFig13Messaging(b *testing.B) {
	benchSweep(b, func() ([]experiments.SweepPoint, error) {
		return experiments.Fig13(benchScale, []float64{0.5, 4, 40})
	}, "us")
}

// BenchmarkFig14NetworkBandwidth regenerates Figure 14.
func BenchmarkFig14NetworkBandwidth(b *testing.B) {
	benchSweep(b, func() ([]experiments.SweepPoint, error) {
		return experiments.Fig14(benchScale, []float64{20, 100, 200})
	}, "MB/s")
}

// BenchmarkFig15MemoryLatency regenerates Figure 15.
func BenchmarkFig15MemoryLatency(b *testing.B) {
	benchSweep(b, func() ([]experiments.SweepPoint, error) {
		return experiments.Fig15(benchScale, []float64{40, 100, 200})
	}, "ns")
}

// BenchmarkFig16MemoryBandwidth regenerates Figure 16.
func BenchmarkFig16MemoryBandwidth(b *testing.B) {
	benchSweep(b, func() ([]experiments.SweepPoint, error) {
		return experiments.Fig16(benchScale, []float64{60, 200})
	}, "MB/s")
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// cycles per second of wall time for a representative run (useful when
// assessing whether paper-scale inputs are feasible).
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		app, err := apps.Default("water")
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(params.Default(), core.TM(tmk.Base), app)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.RunningTime
	}
	b.ReportMetric(float64(cycles), "sim-cycles/run")
}
