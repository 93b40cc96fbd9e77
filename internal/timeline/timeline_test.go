package timeline

import (
	"bytes"
	"strings"
	"testing"

	"dsm96/internal/stats"
	"dsm96/internal/trace"
)

// TestNilRecorderZeroCost is the structural-zero-cost gate: every
// recording method on a nil *Recorder must be a no-op that allocates
// nothing. Combined with the protocols installing the plain accounting
// hook when no recorder is attached, a disabled timeline cannot perturb
// the repo benchmark's allocation counts or the event schedule.
func TestNilRecorderZeroCost(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Stall(0, "busy", 0, 10)
		r.Controller(0, "send", 0, 10)
		r.Link(0, 0, 10)
		r.InitLinks(nil)
		if r.Nodes() != 0 || r.ProcSpans(0) != nil || r.ControllerSpans(0) != nil {
			t.Fatal("nil recorder returned data")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v times per call set, want 0", allocs)
	}
}

// BenchmarkNilRecorder quantifies the disabled-path cost: a nil-receiver
// method call per record point (compare with the repo benchmark,
// benchmark/run.sh, which runs with no recorder attached at all).
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Stall(0, "busy", 0, 10)
		r.Link(0, 0, 10)
	}
}

// TestPhaseCategoryConsistency pins the reason -> phase -> category
// chain against the protocols' reason -> category accounting: every
// reason string the protocols use must land in the same stats.Category
// via the timeline's phases, or span sums will not reconcile with the
// Breakdown.
func TestPhaseCategoryConsistency(t *testing.T) {
	want := map[string]stats.Category{
		"busy":           stats.Busy,
		"tlb-fill":       stats.Other,
		"cache-miss":     stats.Other,
		"wbuf-full":      stats.Other,
		"interrupt":      stats.Other,
		"page-fetch":     stats.Data,
		"twin":           stats.Data,
		"lock":           stats.Synch,
		"lock-grant":     stats.Synch,
		"barrier":        stats.Synch,
		"prefetch-issue": stats.Synch,
		"ipc-steal":      stats.IPC,
	}
	for reason, cat := range want {
		if got := PhaseForReason(reason).Category(); got != cat {
			t.Errorf("reason %q: phase %v maps to %v, protocols charge %v",
				reason, PhaseForReason(reason), got, cat)
		}
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if strings.Contains(ph.String(), "?") {
			t.Errorf("phase %d has no label", ph)
		}
	}
}

// TestSpanMerging checks adjacency merging on processor and link tracks.
func TestSpanMerging(t *testing.T) {
	r := NewRecorder(2)
	r.Stall(0, "busy", 0, 10)
	r.Stall(0, "busy", 10, 30)       // contiguous same phase: merges
	r.Stall(0, "busy", 40, 50)       // gap: new span
	r.Stall(0, "page-fetch", 50, 70) // contiguous, different phase: new span
	r.Stall(0, "lock", 70, 70)       // zero length: dropped
	if got := len(r.ProcSpans(0)); got != 3 {
		t.Fatalf("got %d spans, want 3: %+v", got, r.ProcSpans(0))
	}
	tot := r.PhaseTotals(0)
	if tot[PhaseCompute] != 40 || tot[PhaseReadFault] != 20 {
		t.Fatalf("bad totals: %v", tot)
	}
	ct := r.CategoryTotals(0)
	if ct[stats.Busy] != 40 || ct[stats.Data] != 20 {
		t.Fatalf("bad category totals: %v", ct)
	}

	r.InitLinks([]string{"l0"})
	r.Link(0, 0, 5)
	r.Link(0, 5, 9) // back-to-back transfers merge
	r.Link(0, 20, 25)
	if got := len(r.links[0]); got != 2 {
		t.Fatalf("got %d link spans, want 2", got)
	}

	// Out-of-range tracks are ignored, not a panic.
	r.Stall(5, "busy", 0, 1)
	r.Controller(-1, "x", 0, 1)
	r.Link(3, 0, 1)
}

// TestWritePerfettoShape sanity-checks the exported JSON: valid shape,
// one slice per span, instants carried through, and byte determinism
// across repeated exports.
func TestWritePerfettoShape(t *testing.T) {
	r := NewRecorder(1)
	r.Stall(0, "busy", 0, 100)
	r.Controller(0, "send", 10, 40)
	r.InitLinks([]string{"n0+x"})
	r.Link(0, 20, 30)
	evs := []trace.Event{{Time: 15, Node: 0, Page: 3, Kind: trace.KindFault, Detail: `read "quoted"`}}

	var a, b bytes.Buffer
	if err := r.WritePerfetto(&a, evs); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePerfetto(&b, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated export differs")
	}
	out := a.String()
	for _, want := range []string{
		`"name":"compute"`, `"name":"send"`, `"name":"xfer"`,
		`"name":"fault"`, `"name":"n0+x"`, `read \"quoted\"`,
		`"ph":"M"`, `"ph":"X"`, `"ph":"i"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s:\n%s", want, out)
		}
	}

	// A nil recorder still exports instants (events-only timeline).
	var nilRec *Recorder
	var c bytes.Buffer
	if err := nilRec.WritePerfetto(&c, evs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), `"ph":"i"`) {
		t.Fatal("nil-recorder export lost the instant events")
	}
}
