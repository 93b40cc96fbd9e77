package aurc

import (
	"fmt"

	"dsm96/internal/spans"
	"dsm96/internal/timeline"
	"dsm96/internal/trace"
)

// SetTracer attaches a structured event buffer: protocol events (page
// faults, automatic-update drains, prefetch issues) are recorded for
// every page, subject to the buffer's own filters. AURC emits fewer
// event kinds than TreadMarks — there are no twins, diffs, or intervals
// to report on the fault path — but the same buffer and timebase apply.
func (pr *Protocol) SetTracer(b *trace.Buffer) { pr.tracer = b }

// Tracer returns the attached buffer (nil if none).
func (pr *Protocol) Tracer() *trace.Buffer { return pr.tracer }

// SetTimeline attaches a phase recorder: processor stall/busy spans are
// recorded per node. AURC has no protocol controller, so the recorder's
// controller tracks stay empty. Must be called before InstallProc
// (core.Run's wiring order) so the recording accounting hook is the one
// installed.
func (pr *Protocol) SetTimeline(rec *timeline.Recorder) { pr.rec = rec }

// SetSpans attaches a causal-span tracker. AURC has no protocol
// controller, so only the processor-side span hooks apply. Must be
// called before InstallProc (core.Run's wiring order) so the charging
// accounting hook is the one installed.
func (pr *Protocol) SetSpans(tr *spans.Tracker) { pr.sp = tr }

// emit records a structured protocol event (no-op without a tracer).
func (n *anode) emit(pg int, kind trace.Kind, format string, args ...any) {
	if n.pr.tracer == nil {
		return
	}
	n.pr.tracer.Emit(trace.Event{
		Time: n.pr.eng.Now(), Node: n.id, Page: pg, Kind: kind,
		Detail: fmt.Sprintf(format, args...),
	})
}
