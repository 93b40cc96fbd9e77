// Command sweep reproduces the architectural sensitivity studies of
// Section 5.3 (Figures 13-16) — the effect of messaging overhead,
// network bandwidth, memory latency, and memory bandwidth on Em3d under
// the overlapping TreadMarks (I+D) and AURC — plus a reliability sweep
// the paper could not run: the same protocols over a network that
// loses, duplicates, and delays messages.
//
// Usage:
//
//	sweep -messaging            # Figure 13
//	sweep -netbw                # Figure 14
//	sweep -memlat               # Figure 15
//	sweep -membw                # Figure 16
//	sweep -reliability [-fault-seed N]
//	sweep -chaos                # link faults + controller crash/hang
//	sweep -backends             # protocol ladder on every interconnect backend
//	sweep -all [-scale tiny]
//	sweep -all -j 4 -metrics out/   # 4 workers, one metrics JSON per cell
//
// -profile NAME|FILE rebases every sweep on that machine model (builtin
// backend pci1996/rdma/cxl or a params-profile JSON file, see
// profiles/README.md); the default is Table 1. -backends instead runs
// the Base -> I -> I+P+D -> AURC ladder for {tsp, radix, em3d} on every
// builtin backend side by side — the "does the controller still pay off
// in 2026" table of EXPERIMENTS.md.
//
// The -chaos sweep combines link faults with randomized per-node
// controller crash/hang schedules over {tsp, water, radix} × {Base, I,
// I+P+D, AURC}: every cell is validated against the sequential oracle
// and run twice to prove fingerprint reproducibility, and the table
// reports the chaos cost alongside the graceful-degradation accounting
// (failovers, degraded node-cycles, software-fallback diffs). This is
// the sweep `make chaos` gates on (through its test-suite form).
//
// Independent sweep cells run on a worker pool (-j N; 0 = one worker per
// CPU); each cell is a self-contained deterministic simulation, so the
// figure output is identical for any -j. A progress line tracks
// completed cells on stderr (suppress with -q). With -metrics DIR, every
// completed cell additionally writes machine-readable run metrics JSON
// to DIR/cell-<seq>-<app>-<protocol>-p<procs>.json, where <seq> is the
// cell's deterministic submission number; with -spans DIR, each cell
// also writes its causal spans (one JSON line per blocking protocol
// operation) to the same name with a .spans.jsonl suffix. Both are
// written atomically (temp file + rename), so a sweep killed mid-write
// never leaves a truncated artifact behind.
//
// With -server URL the sweep becomes a thin client of a dsmserve job
// server: every cell is submitted as a dsm96/job/v1 spec and executed
// (or answered from the server's memoized store — the simulator is
// deterministic, so a repeated grid is served entirely from cache)
// remotely. Output stays deterministic and ordered because cells still
// land in their submission-order slots. -metrics/-spans cannot combine
// with -server: they collect through in-process pointers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dsm96/internal/core"
	"dsm96/internal/experiments"
	"dsm96/internal/params"
	"dsm96/internal/serve"
)

func main() {
	messaging := flag.Bool("messaging", false, "sweep messaging overhead (Figure 13)")
	netbw := flag.Bool("netbw", false, "sweep network bandwidth (Figure 14)")
	memlat := flag.Bool("memlat", false, "sweep memory latency (Figure 15)")
	membw := flag.Bool("membw", false, "sweep memory bandwidth (Figure 16)")
	reliability := flag.Bool("reliability", false, "sweep message loss rate (deterministic fault injection)")
	chaos := flag.Bool("chaos", false, "chaos sweep: link faults + controller crash/hang, validated and repeat-run")
	backends := flag.Bool("backends", false, "run the protocol ladder on every builtin interconnect backend")
	profileArg := flag.String("profile", "", "rebase all sweeps on this machine model: builtin backend (pci1996, rdma, cxl) or a params-profile JSON file")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed for -reliability")
	all := flag.Bool("all", false, "run all six sweeps")
	scale := flag.String("scale", "default", "problem scale: tiny, default, paper")
	jobs := flag.Int("j", 0, "simulation worker pool size (0 = one worker per CPU)")
	quiet := flag.Bool("q", false, "suppress the stderr progress line")
	metricsDir := flag.String("metrics", "", "write per-cell run metrics JSON files into this directory")
	spansDir := flag.String("spans", "", "write per-cell causal span JSONL files into this directory")
	server := flag.String("server", "", "run every cell through this dsmserve job server instead of locally (repeat sweeps answer from its cache)")
	flag.Parse()

	if *server != "" {
		if *metricsDir != "" || *spansDir != "" {
			fmt.Fprintln(os.Stderr, "sweep: -metrics and -spans collect through in-process pointers and cannot be combined with -server")
			os.Exit(2)
		}
		client := &serve.Client{Base: *server}
		experiments.SetRemoteRunner(func(rr experiments.RemoteRun) (*core.Result, error) {
			return client.RunRemote(rr.App, rr.Spec, rr.Cfg, rr.Scale)
		})
	}
	experiments.SetWorkers(*jobs)
	if *profileArg != "" {
		prof, err := params.ResolveProfile(*profileArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(2)
		}
		cfg := prof.Config()
		experiments.SetBaseConfig(&cfg)
	}
	if !*quiet {
		experiments.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}
	if *metricsDir != "" || *spansDir != "" {
		for _, dir := range []string{*metricsDir, *spansDir} {
			if dir == "" {
				continue
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
		}
		mdir, sdir := *metricsDir, *spansDir
		if sdir != "" {
			experiments.SetSpans(true)
		}
		experiments.SetRunObserver(func(seq int, r experiments.Run) {
			if r.Err != nil || r.Result == nil {
				return
			}
			stem := fmt.Sprintf("cell-%04d-%s-%s-p%d", seq, r.App,
				strings.ReplaceAll(r.Protocol, "+", ""), r.Procs)
			if mdir != "" {
				err := experiments.WriteFileAtomic(filepath.Join(mdir, stem+".json"),
					func(w io.Writer) error { return r.Result.Metrics().WriteJSON(w) })
				if err != nil {
					fmt.Fprintln(os.Stderr, "\nsweep: metrics:", err)
				}
			}
			if sdir != "" {
				err := experiments.WriteFileAtomic(filepath.Join(sdir, stem+".spans.jsonl"),
					r.Spans.WriteJSONL)
				if err != nil {
					fmt.Fprintln(os.Stderr, "\nsweep: spans:", err)
				}
			}
		})
	}

	var sc experiments.Scale
	switch *scale {
	case "tiny":
		sc = experiments.ScaleTiny
	case "default":
		sc = experiments.ScaleDefault
	case "paper":
		sc = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}

	if *all || *messaging {
		pts, err := experiments.Fig13(sc, []float64{0.5, 1, 2, 4, 8, 20, 40})
		die(err)
		fmt.Println(experiments.FormatSweep(
			"Figure 13: Messaging Overhead vs Em3d running time (AURC updates pay full overhead)",
			"latency(us)", pts))
		opt, err := experiments.Fig13Optimistic(sc, []float64{0.5, 1, 2, 4, 8, 20, 40})
		die(err)
		fmt.Println(experiments.FormatSweep(
			"Figure 13 (optimistic AURC updates, 1-cycle overhead — the default)",
			"latency(us)", opt))
	}
	if *all || *netbw {
		pts, err := experiments.Fig14(sc, []float64{20, 50, 100, 150, 200})
		die(err)
		fmt.Println(experiments.FormatSweep("Figure 14: Network Bandwidth vs Em3d running time", "MB/s", pts))
	}
	if *all || *memlat {
		pts, err := experiments.Fig15(sc, []float64{40, 100, 150, 200})
		die(err)
		fmt.Println(experiments.FormatSweep("Figure 15: Memory Latency vs Em3d running time", "ns", pts))
	}
	if *all || *membw {
		pts, err := experiments.Fig16(sc, []float64{60, 94, 150, 200})
		die(err)
		fmt.Println(experiments.FormatSweep("Figure 16: Memory Bandwidth vs Em3d running time", "MB/s", pts))
	}
	if *all || *reliability {
		pts, err := experiments.ReliabilitySweep(sc, *faultSeed, experiments.DefaultLossPcts())
		die(err)
		fmt.Println(experiments.FormatReliability(*faultSeed, pts))
	}
	if *all || *chaos {
		seeds := experiments.DefaultChaosSeeds()
		pts, err := experiments.ChaosSweep(sc, seeds)
		die(err)
		fmt.Println(experiments.FormatChaos(seeds, pts))
	}
	if *all || *backends {
		cells, err := experiments.CrossBackendLadder(sc, nil)
		die(err)
		fmt.Println(experiments.FormatBackendLadder(cells))
	}
	if !*all && !*messaging && !*netbw && !*memlat && !*membw && !*reliability && !*chaos && !*backends {
		flag.Usage()
	}
}
