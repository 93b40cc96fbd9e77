package tmk

import (
	"fmt"

	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/timeline"
	"dsm96/internal/trace"
)

// TracePage, when set to a page number (>= 0), logs that page's protocol
// events (notices, faults, diff creation/service/application, protection
// changes) to stdout with simulated timestamps. Debugging aid; -1 = off.
var TracePage = -1

// SetTracer attaches a structured event buffer: every protocol event
// (for every page, subject to the buffer's own filters) is recorded.
func (pr *Protocol) SetTracer(b *trace.Buffer) { pr.tracer = b }

// Tracer returns the attached buffer (nil if none).
func (pr *Protocol) Tracer() *trace.Buffer { return pr.tracer }

// SetTimeline attaches a phase recorder: processor stall/busy spans are
// recorded per node, and on the controller variants each controller
// core's service windows feed the recorder's controller tracks. Must be
// called before InstallProc (core.Run's wiring order) so the recording
// accounting hook is the one installed.
func (pr *Protocol) SetTimeline(rec *timeline.Recorder) {
	pr.rec = rec
	if rec == nil || !pr.mode.Ctrl() {
		return
	}
	for _, n := range pr.nodes {
		id := n.id
		n.ctl.Core.Trace = func(job string, start, end sim.Time) {
			rec.Controller(id, job, start, end)
		}
	}
}

// SetSpans attaches a causal-span tracker. Must be called before
// InstallProc (core.Run's wiring order) so the charging accounting hook
// is the one installed, and after SetTimeline so the controller trace
// chains onto the recorder's rather than being overwritten by it.
func (pr *Protocol) SetSpans(tr *spans.Tracker) {
	pr.sp = tr
	if tr == nil || !pr.mode.Ctrl() {
		return
	}
	for _, n := range pr.nodes {
		id := n.id
		prev := n.ctl.Core.Trace
		n.ctl.Core.Trace = func(job string, start, end sim.Time) {
			if prev != nil {
				prev(job, start, end)
			}
			tr.Controller(id, start, end)
		}
	}
}

// emit records a structured protocol event and mirrors it to stdout when
// TracePage matches. Synchronization events (lock/barrier) carry pg = -1:
// they are recorded for every tracer but never match a page filter.
func (n *pnode) emit(pg int, kind trace.Kind, format string, args ...any) {
	stdout := pg >= 0 && pg == TracePage
	if n.pr.tracer == nil && !stdout {
		return
	}
	detail := fmt.Sprintf(format, args...)
	now := n.eng.Now()
	n.pr.tracer.Emit(trace.Event{Time: now, Node: n.id, Page: pg, Kind: kind, Detail: detail})
	if stdout {
		fmt.Printf("[%10d] n%d pg%d %s %s\n", now, n.id, pg, kind, detail)
	}
}

// tracef keeps the old stdout-only behaviour for ad-hoc prints.
func (n *pnode) tracef(pg int, format string, args ...any) {
	n.emit(pg, trace.KindOther, format, args...)
}
