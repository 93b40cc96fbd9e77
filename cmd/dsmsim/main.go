// Command dsmsim runs one application under one DSM protocol on the
// simulated network of workstations and prints the paper-style execution
// breakdown, protocol counters, and validation status.
//
// Usage:
//
//	dsmsim -app ocean -proto I+D -procs 16 [-scale default]
//	dsmsim -app tsp -proto AURC+P
//	dsmsim -app em3d -proto I+P+D -profile rdma
//	dsmsim -app radix -proto AURC -profile profiles/cxl.json
//	dsmsim -app em3d -proto I+P+D -drop 0.02 -fault-seed 7
//	dsmsim -app water -proto I+P+D -ctrl-crash 0@0,3@50000 -ctrl-hang 2@10000+30000
//	dsmsim -p 16 -app radix -mode ipd -timeline t.json -metrics m.json
//
// Protocols: Base, I, I+D, P, I+P, I+P+D, AURC, AURC+P (matched
// case-insensitively, "+" optional: "ipd" means I+P+D). -mode is an
// alias for -proto, -p for -procs.
//
// -profile selects the machine model: a builtin interconnect backend
// (pci1996, rdma, cxl) or a dsm96/params-profile/v1 JSON file (see
// profiles/README.md). The default — no profile — is Table 1 of the
// paper, and `-profile pci1996` is bit-identical to it. An explicit
// -procs overrides the profile's processor count; -netbw, -memlat and
// -msgov are applied on top of the profile in that order.
//
// The -drop/-dup/-delay flags make the simulated network unreliable
// (deterministically, keyed by -fault-seed); the protocols recover via
// the reliable transport, and the reliability counter block is printed.
//
// The -ctrl-crash/-ctrl-hang flags fail protocol controllers:
// NODE@CYCLE items (NODE may be "all") crash a node's controller
// permanently, NODE@CYCLE+WINDOW items wedge it for a window. The
// owning node detects the dead doorbell by submit timeout and fails
// over to inline software protocol handling — the run stays correct
// and validated, it just slows down; the degradation counters are
// printed. -watchdog bounds how long the engine tolerates zero process
// progress before failing the run with a structured stall report.
//
// -timeline writes a Perfetto-loadable Chrome trace-event timeline of
// the run (per-processor phase tracks, controller occupancy, mesh-link
// occupancy, protocol instant events; open at ui.perfetto.dev, where
// 1 µs = 1 simulated cycle); -metrics writes the machine-readable run
// metrics JSON (schema dsm96/run-metrics/v3, including the causal-span
// report); -spans writes one JSON line per blocking protocol operation
// (read/write fault, lock, barrier, prefetch) with its stage-by-stage
// latency decomposition. All artifacts are byte-identical across repeat
// runs.
//
// -engine-profile FILE writes the engine's self-profile (schema
// dsm96/engine-profile/v1): the fired event count in a deterministic
// block, and the run's wall time and host CPU counts in a host block.
// `metricsdiff -engine-profile a b` compares the deterministic block
// exactly while ignoring the host block.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsm96/internal/apps"
	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/faults"
	"dsm96/internal/params"
	"dsm96/internal/sim"
	"dsm96/internal/spans"
	"dsm96/internal/stats"
	"dsm96/internal/timeline"
	"dsm96/internal/tmk"
	"dsm96/internal/trace"
)

// pct returns 100*num/den, or 0 when den is 0.
func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// writeArtifact creates path and streams write into it, exiting on error.
func writeArtifact(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmsim:", err)
		os.Exit(1)
	}
}

// printStall renders the structured liveness report core.Run attaches
// when a run deadlocks or the watchdog trips.
func printStall(s *core.StallInfo) {
	kind := "stall (watchdog)"
	if s.Deadlock {
		kind = "deadlock"
	}
	fmt.Fprintf(os.Stderr, "dsmsim: %s at cycle %d (last progress at %d)\n",
		kind, s.Report.At, s.Report.LastProgress)
	for _, b := range s.Report.Blocked {
		fmt.Fprintf(os.Stderr, "  %-6s blocked on %-12s since cycle %d\n", b.Name, b.Reason, b.Since)
	}
	for _, op := range s.OpenOps {
		fmt.Fprintf(os.Stderr, "  op %d: %s(obj %d) on node %d, open since cycle %d\n",
			op.ID, op.Kind, op.Obj, op.Node, op.Start)
	}
	fmt.Fprintf(os.Stderr, "  transport: %d unacked message(s), %d retransmission(s) so far\n",
		s.UnackedMessages, s.Retries)
}

func main() {
	appName := flag.String("app", "ocean", "application: tsp, water, radix, barnes, ocean, em3d")
	proto := flag.String("proto", "Base", "protocol: Base, I, I+D, P, I+P, I+P+D, AURC, AURC+P")
	flag.StringVar(proto, "mode", "Base", "alias for -proto")
	procs := flag.Int("procs", 16, "number of processors")
	flag.IntVar(procs, "p", 16, "alias for -procs")
	scale := flag.String("scale", "default", "problem scale: tiny, default, paper")
	profileArg := flag.String("profile", "", "machine model: builtin backend (pci1996, rdma, cxl) or a params-profile JSON file (default: Table 1)")
	netBW := flag.Float64("netbw", 0, "override network bandwidth (MB/s)")
	memLat := flag.Float64("memlat", 0, "override memory latency (ns)")
	msgOv := flag.Float64("msgov", 0, "override messaging overhead (us)")
	verbose := flag.Bool("v", false, "print per-processor breakdown")
	tracePg := flag.Int("trace", -1, "dump the protocol event history of this page (TreadMarks variants)")
	traceN := flag.Int("tracen", 200, "how many trace events to retain")
	drop := flag.Float64("drop", 0, "message drop probability per link (0..1)")
	dup := flag.Float64("dup", 0, "message duplication probability per link (0..1)")
	delay := flag.Float64("delay", 0, "message reorder-delay probability per link (0..1)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed")
	ctrlCrash := flag.String("ctrl-crash", "", "crash controllers: NODE@CYCLE,... (NODE may be \"all\")")
	ctrlHang := flag.String("ctrl-hang", "", "hang controllers: NODE@CYCLE+WINDOW,... (NODE may be \"all\")")
	watchdog := flag.Int64("watchdog", 0, "liveness watchdog window in cycles (0 = default, negative = off)")
	timelineOut := flag.String("timeline", "", "write a Perfetto-loadable timeline (Chrome trace-event JSON) to this file")
	metricsOut := flag.String("metrics", "", "write machine-readable run metrics JSON to this file")
	spansOut := flag.String("spans", "", "write one causal span per blocking protocol operation as JSONL to this file")
	engineProfileOut := flag.String("engine-profile", "", "write the engine self-profile JSON (schema dsm96/engine-profile/v1) to this file")
	flag.Parse()

	var app dsm.App
	var err error
	switch *scale {
	case "tiny":
		app, err = apps.Tiny(*appName)
	case "default":
		app, err = apps.Default(*appName)
	case "paper":
		switch *appName {
		case "tsp":
			app = apps.PaperTSP()
		case "water":
			app = apps.PaperWater()
		case "radix":
			app = apps.PaperRadix()
		case "barnes":
			app = apps.PaperBarnes()
		case "ocean":
			app = apps.PaperOcean()
		case "em3d":
			app = apps.PaperEm3d()
		default:
			err = fmt.Errorf("unknown app %q", *appName)
		}
	default:
		err = fmt.Errorf("unknown scale %q", *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmsim:", err)
		os.Exit(2)
	}

	var spec core.Spec
	switch strings.ToLower(strings.ReplaceAll(*proto, "+", "")) {
	case "aurc":
		spec = core.AURC(false)
	case "aurcp":
		spec = core.AURC(true)
	default:
		m, ok := tmk.ParseMode(*proto)
		if !ok {
			fmt.Fprintf(os.Stderr, "dsmsim: unknown protocol %q\n", *proto)
			os.Exit(2)
		}
		spec = core.TM(m)
	}

	cfg := params.Default()
	if *profileArg != "" {
		prof, perr := params.ResolveProfile(*profileArg)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "dsmsim:", perr)
			os.Exit(2)
		}
		cfg = prof.Config()
		// The profile carries its own processor count; an explicit -procs
		// (or -p) on the command line still wins.
		procsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "procs" || f.Name == "p" {
				procsSet = true
			}
		})
		if procsSet {
			cfg.Processors = *procs
		}
	} else {
		cfg.Processors = *procs
	}
	if *netBW > 0 {
		cfg.SetNetworkBandwidthMBps(*netBW)
	}
	if *memLat > 0 {
		cfg.SetMemoryLatencyNanos(*memLat)
	}
	if *msgOv > 0 {
		cfg.SetMessagingOverheadMicros(*msgOv)
	}

	var tracer *trace.Buffer
	if *tracePg >= 0 {
		tracer = trace.New(*traceN)
		tracer.Page = *tracePg
		spec.Tracer = tracer
	}
	var rec *timeline.Recorder
	if *timelineOut != "" {
		rec = timeline.NewRecorder(cfg.Processors)
		spec.Timeline = rec
		if tracer == nil {
			// Capture protocol events for the timeline's instant markers
			// (all pages; a generous ring so small runs keep everything).
			tracer = trace.New(1 << 16)
			spec.Tracer = tracer
		}
	}
	var tracker *spans.Tracker
	if *spansOut != "" || *metricsOut != "" {
		// Metrics carry the span report (schema v3), so both artifacts
		// share one tracker. Attaching it never perturbs the schedule.
		tracker = spans.NewTracker(cfg.Processors)
		spec.Spans = tracker
	}
	if *drop > 0 || *dup > 0 || *delay > 0 || *ctrlCrash != "" || *ctrlHang != "" {
		plan := &faults.Plan{
			Seed:    *faultSeed,
			Default: faults.Link{Drop: *drop, Dup: *dup, Delay: *delay},
		}
		if err := faults.ParseCtrlCrash(plan, *ctrlCrash, cfg.Processors); err != nil {
			fmt.Fprintln(os.Stderr, "dsmsim:", err)
			os.Exit(2)
		}
		if err := faults.ParseCtrlHang(plan, *ctrlHang, cfg.Processors); err != nil {
			fmt.Fprintln(os.Stderr, "dsmsim:", err)
			os.Exit(2)
		}
		spec.Faults = plan
	}
	spec.Watchdog = sim.Time(*watchdog)
	res, err := core.Run(cfg, spec, app)
	if err != nil {
		if res != nil && res.Stall != nil {
			printStall(res.Stall)
		}
		fmt.Fprintln(os.Stderr, "dsmsim:", err)
		os.Exit(1)
	}

	fmt.Printf("%s under %s on %d processors\n", res.App, res.Protocol, cfg.Processors)
	fmt.Printf("  running time:   %d cycles (%.2f ms at %g MHz)\n",
		res.RunningTime, cfg.Millis(res.RunningTime), cfg.ClockMHz())
	fmt.Printf("  result:         %v (sequential oracle %v, validated)\n", res.AppResult, res.SeqResult)
	fmt.Printf("  network:        %d messages, %d bytes\n", res.Messages, res.Bytes)
	fmt.Println("  breakdown:")
	for _, c := range stats.Categories() {
		fmt.Printf("    %-7s %6.1f%%\n", c, 100*res.Breakdown.Fraction(c))
	}
	fmt.Printf("    diff-ops %5.1f%% of execution time\n", res.Breakdown.DiffPercent())
	fmt.Println("  counters:")
	fmt.Print(res.Breakdown.CounterTable())
	if res.Reliability.Degraded() {
		fmt.Println("  reliability (fault injection active):")
		fmt.Print(res.Reliability.Table())
	}
	if sum := res.Breakdown.Sum(); sum.ControllerFailovers > 0 {
		fmt.Printf("  controller:     %d failover(s) to software handling, %d degraded node-cycles, %d software-fallback diffs\n",
			sum.ControllerFailovers, sum.DegradedNodeCycles, sum.SoftwareFallbackDiffs)
	}
	if *tracePg >= 0 {
		fmt.Printf("  protocol trace for page %d (%d events recorded, last %d shown):\n",
			*tracePg, tracer.Total(), len(tracer.Events()))
		fmt.Print(tracer.String())
	}
	if *timelineOut != "" {
		writeArtifact(*timelineOut, func(w io.Writer) error {
			return rec.WritePerfetto(w, tracer.Events())
		})
		fmt.Printf("  timeline:       %s (open at ui.perfetto.dev; 1 us = 1 cycle)\n", *timelineOut)
	}
	if *metricsOut != "" {
		writeArtifact(*metricsOut, res.Metrics().WriteJSON)
		fmt.Printf("  metrics:        %s\n", *metricsOut)
	}
	if *spansOut != "" {
		writeArtifact(*spansOut, tracker.WriteJSONL)
		fmt.Printf("  spans:          %s (%d operations)\n", *spansOut, len(tracker.Ops()))
	}
	if *engineProfileOut != "" {
		prof := res.EngineProfile
		writeArtifact(*engineProfileOut, prof.WriteJSON)
		fmt.Printf("  engine-profile: %s (%d events)\n", *engineProfileOut, prof.Deterministic.EventsRun)
	}
	if res.Spans != nil {
		ov := res.Spans.Overlap
		fmt.Printf("  overlap:        %d activity cycles, %d hidden (%.1f%% of activity overlapped compute)\n",
			ov.ActivityCycles, ov.HiddenCycles, pct(ov.HiddenCycles, ov.ActivityCycles))
	}
	if *verbose {
		fmt.Println("  per-processor:")
		for i, ps := range res.Breakdown.PerProc {
			fmt.Printf("    cpu%-2d busy %10d data %10d synch %10d ipc %10d others %10d\n",
				i, ps.Cycles[stats.Busy], ps.Cycles[stats.Data],
				ps.Cycles[stats.Synch], ps.Cycles[stats.IPC], ps.Cycles[stats.Other])
		}
	}
}
