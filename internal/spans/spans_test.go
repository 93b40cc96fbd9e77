package spans

import (
	"bytes"
	"testing"

	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// TestStagePartition exercises the milestone attribution rules: marks
// arrive out of order and eagerly (future-timestamped), End sorts them,
// assigns each gap to the closing milestone's stage, clamps marks past
// the close, and the stages sum exactly to the window.
func TestStagePartition(t *testing.T) {
	tr := NewTracker(1)
	op := tr.Begin(0, OpReadFault, 7, 100)
	op.Mark(StageWire, 150)
	op.Mark(StageQueue, 140)  // recorded later, happened earlier
	op.Mark(StageRemote, 250) // eager reservation end past the close
	tr.End(op, 220)
	if op.Stages[StageQueue] != 40 || op.Stages[StageWire] != 10 || op.Stages[StageRemote] != 70 {
		t.Errorf("stages = %v", op.Stages)
	}
	var sum sim.Time
	for _, s := range op.Stages {
		sum += s
	}
	if sum != op.End-op.Start {
		t.Errorf("stages sum to %d, window is %d", sum, op.End-op.Start)
	}
}

func TestTrailingGapIsUnblock(t *testing.T) {
	tr := NewTracker(1)
	op := tr.Begin(0, OpLock, 3, 1000)
	op.Mark(StageReply, 1400)
	tr.End(op, 1500)
	if op.Stages[StageReply] != 400 || op.Stages[StageUnblock] != 100 {
		t.Errorf("stages = %v", op.Stages)
	}
}

// Zero-length operations are kept: per-kind span counts must equal the
// protocol's operation counters, and a free operation is still real.
func TestZeroLengthSpanKept(t *testing.T) {
	tr := NewTracker(1)
	op := tr.Begin(0, OpWriteFault, 1, 500)
	tr.End(op, 500)
	if len(tr.Ops()) != 1 {
		t.Fatalf("zero-length span dropped")
	}
	if tr.Ops()[0].End != tr.Ops()[0].Start {
		t.Errorf("span window %d..%d", tr.Ops()[0].Start, tr.Ops()[0].End)
	}
}

// TestNilSafety: the disabled state is a nil tracker and nil ops; every
// method must be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracker
	op := tr.Begin(0, OpReadFault, 0, 0)
	if op != nil {
		t.Fatal("nil tracker returned a live op")
	}
	op.Mark(StageWire, 10)
	tr.End(op, 20)
	tr.Detach(0, op)
	tr.Charge(0, stats.Data, 5, 10)
	tr.Controller(0, 0, 10)
	tr.NetSend(0, 0, 10)
	if tr.Ops() != nil || tr.Report() != nil {
		t.Error("nil tracker produced data")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestChargeAttribution(t *testing.T) {
	tr := NewTracker(2)
	op := tr.Begin(1, OpBarrier, 0, 100)
	tr.Charge(1, stats.Synch, 50, 200) // while current: attributed
	tr.Charge(1, stats.Busy, 30, 230)  // busy: attributed but not blocked
	tr.Charge(0, stats.Data, 40, 240)  // other node: not this op
	tr.End(op, 300)
	tr.Charge(1, stats.Synch, 10, 310) // after End: no current op
	if op.Charged[stats.Synch] != 50 || op.Charged[stats.Busy] != 30 || op.Charged[stats.Data] != 0 {
		t.Errorf("charged = %v", op.Charged)
	}
	if got := totalLen(union(tr.blocked[1])); got != 60 {
		t.Errorf("node 1 blocked %d cycles, want 60 (busy excluded)", got)
	}
}

func TestDetachStopsCharging(t *testing.T) {
	tr := NewTracker(1)
	op := tr.Begin(0, OpPrefetch, 9, 100)
	tr.Charge(0, stats.Synch, 10, 110)
	tr.Detach(0, op)
	tr.Charge(0, stats.Data, 99, 300)
	tr.End(op, 400)
	if op.Charged[stats.Synch] != 10 || op.Charged[stats.Data] != 0 {
		t.Errorf("charged = %v", op.Charged)
	}
}

func TestIntervalMath(t *testing.T) {
	ivs := union([]interval{{10, 20}, {15, 25}, {30, 40}, {40, 50}, {5, 5}})
	want := []interval{{10, 25}, {30, 50}}
	if len(ivs) != len(want) {
		t.Fatalf("union = %v", ivs)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("union = %v, want %v", ivs, want)
		}
	}
	if got := totalLen(ivs); got != 35 {
		t.Errorf("totalLen = %d", got)
	}
	other := []interval{{0, 12}, {22, 33}, {45, 60}}
	// [10,25)∩[0,12)=2, [10,25)∩[22,33)=3, [30,50)∩[22,33)=3, [30,50)∩[45,60)=5
	if got := intersectLen(ivs, other); got != 13 {
		t.Errorf("intersectLen = %d, want 13", got)
	}
}

func TestAppendMergedCoalesces(t *testing.T) {
	var ivs []interval
	ivs = appendMerged(ivs, interval{10, 20})
	ivs = appendMerged(ivs, interval{20, 30}) // touching: coalesce
	ivs = appendMerged(ivs, interval{25, 28}) // contained: absorbed
	ivs = appendMerged(ivs, interval{40, 40}) // empty: dropped
	ivs = appendMerged(ivs, interval{50, 60})
	if len(ivs) != 2 || ivs[0] != (interval{10, 30}) || ivs[1] != (interval{50, 60}) {
		t.Errorf("ivs = %v", ivs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := []sim.Time{10, 20, 30, 40}
	for _, tc := range []struct {
		p    int
		want int64
	}{{50, 20}, {90, 40}, {99, 40}, {1, 10}, {100, 40}} {
		if got := percentile(d, tc.p); got != tc.want {
			t.Errorf("p%d = %d, want %d", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile not zero")
	}
}

// TestReportFixedShape: a report always carries one per-kind row per
// kind and one overlap row per node, even with no spans at all, so two
// reports always flatten to the same metricsdiff key set.
func TestReportFixedShape(t *testing.T) {
	r := NewTracker(3).Report()
	if len(r.PerKind) != int(NumKinds) {
		t.Errorf("%d per-kind rows, want %d", len(r.PerKind), NumKinds)
	}
	if len(r.Overlap.PerNode) != 3 {
		t.Errorf("%d overlap rows, want 3", len(r.Overlap.PerNode))
	}
	if r.Digest == "" {
		t.Error("empty digest")
	}
}

func TestOverlapHiddenCycles(t *testing.T) {
	tr := NewTracker(1)
	// Controller busy [0,100), wire [80,150): activity union [0,150).
	tr.Controller(0, 0, 100)
	tr.NetSend(0, 80, 150)
	// Processor blocked [50,120): 70 cycles of the activity are covered.
	tr.Charge(0, stats.Data, 70, 120)
	r := tr.Report()
	n := r.Overlap.PerNode[0]
	if n.ActivityCycles != 150 || n.BlockedCycles != 70 || n.HiddenCycles != 80 {
		t.Errorf("overlap = %+v", n)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	build := func() *Tracker {
		tr := NewTracker(2)
		a := tr.Begin(0, OpReadFault, 4, 10)
		a.Mark(StageWire, 30)
		tr.Charge(0, stats.Data, 15, 40)
		tr.End(a, 40)
		b := tr.Begin(1, OpBarrier, 0, 20)
		tr.End(b, 90)
		return tr
	}
	var x, y bytes.Buffer
	if err := build().WriteJSONL(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&y); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Error("JSONL differs between identical trackers")
	}
	if x.Len() == 0 || bytes.Count(x.Bytes(), []byte("\n")) != 2 {
		t.Errorf("want 2 lines, got %q", x.String())
	}
	if build().Report().Digest != build().Report().Digest {
		t.Error("digest differs between identical trackers")
	}
}

// TestBarrierEpisodeChunking drives barrierEpisodes directly: two
// two-node episodes on one barrier object, the late arriver flagged
// critical with its pre-arrival operation chain summarized.
func TestBarrierEpisodeChunking(t *testing.T) {
	tr := NewTracker(2)
	// Episode 0: node 0 arrives at 100, node 1 at 180 (critical).
	a0 := tr.Begin(0, OpBarrier, 0, 100)
	// Node 1 served a read fault 40..170 before arriving late.
	f := tr.Begin(1, OpReadFault, 5, 40)
	tr.End(f, 170)
	a1 := tr.Begin(1, OpBarrier, 0, 180)
	tr.End(a0, 200)
	tr.End(a1, 200)
	// Episode 1: node 1 arrives first this time.
	b1 := tr.Begin(1, OpBarrier, 0, 300)
	b0 := tr.Begin(0, OpBarrier, 0, 350)
	tr.End(b1, 400)
	tr.End(b0, 400)
	eps := tr.Report().Barriers
	if len(eps) != 2 {
		t.Fatalf("%d episodes, want 2", len(eps))
	}
	e0 := eps[0]
	if e0.CriticalNode != 1 || e0.CriticalSlack != 80 || e0.Arrivals != 2 {
		t.Errorf("episode 0 = %+v", e0)
	}
	if e0.ChainOps != 1 || e0.ChainCycles != 130 || e0.LongestChainKind != "read-fault" {
		t.Errorf("episode 0 chain = %+v", e0)
	}
	if eps[1].CriticalNode != 0 || eps[1].Episode != 1 {
		t.Errorf("episode 1 = %+v", eps[1])
	}
}
