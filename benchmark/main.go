// Command benchmark measures how fast the simulator runs on four fixed
// workloads, and where its host time goes.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// A run builds its workload's cells, runs one untimed warm-up pass over
// them, and then timed passes until S seconds have gone by (whole passes,
// and at least 100 cells). Every cell is a fresh application in a fresh core.Run.
// A cell fails on a core.Run error (oracle mismatch, stall) or when its
// cycles, events or fingerprint differ from its warm-up run.
//
// The run prints every metric as "name value unit" and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}, whose metrics are
// BENCHMARK.json's end_to_end set, or with --trace 1 its per_layer set.
// A traced run first repeats the untraced measurement over half the time,
// then runs the other half with the boundary wrapper and a CPU profile,
// and writes spans.jsonl, cpu.pprof and layers.json to --trace-dir. It
// exits non-zero if any check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dsm96/internal/core"
	"dsm96/internal/stats"
)

// minTimedCells keeps at least ten cells beyond ns_per_event_p90 when
// the host runs slow: the untraced passes go on past --seconds until
// they have run this many cells.
const minTimedCells = 100

// setupRuns is how many set-ups a run measures: its own and, for the
// rest, fresh processes that stop after the warm-up pass. setup_s is
// their median, so one slow start does not move it.
const setupRuns = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// setupRuns counts this process's own set-up and the fresh processes
	// started after it.
	setupRuns int
	// minCells is the fewest cells the untraced timed passes run.
	minCells int
}

func main() {
	entry := nanotime()
	o := options{setupRuns: setupRuns, minCells: minTimedCells}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "permutes the cell order; lossy also draws its programs and fault plan from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "where a traced run writes its files (default .bench_build/trace-WORKLOAD)")
	setupOnly := flag.Bool("setup-only", false, "run the warm-up pass, print its set-up time and digest, and exit")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag))
	}
	o.trace = *traceFlag == 1
	if o.traceDir == "" {
		o.traceDir = filepath.Join(".bench_build", "trace-"+o.workload)
	}
	if *setupOnly {
		w, _, warm, err := setUp(o)
		if err != nil {
			fatal(err)
		}
		for i, r := range warm {
			if r.err != nil {
				fatal(fmt.Errorf("%s: %w", w.cells[i].id, r.err))
			}
		}
		fmt.Printf("setup_s %v digest %016x\n", seconds(nanotime()-entry), digest(w, warm))
		return
	}
	rep, err := run(o, entry)
	if err != nil {
		fatal(err)
	}
	for _, m := range rep.printed {
		fmt.Println(m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
	}
	for _, d := range rep.digests {
		fmt.Println(d)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "benchmark:", p)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// cellRun is one execution of one cell.
type cellRun struct {
	start, end int64
	res        *core.Result
	err        error
	b          *boundary // traced runs only
}

// runPass runs every cell once in the given order, inFlight at a time,
// and returns the runs indexed like w.cells.
func runPass(w *workload, order []int, traced bool) []cellRun {
	runs := make([]cellRun, len(w.cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < w.inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				runs[idx] = runCell(&w.cells[idx], traced)
			}
		}()
	}
	for _, idx := range order {
		next <- idx
	}
	close(next)
	wg.Wait()
	return runs
}

func runCell(c *cell, traced bool) cellRun {
	r := cellRun{start: nanotime()}
	if traced {
		r.b = newBoundary(r.start)
	}
	r.res, r.err = c.run(r.b)
	r.end = nanotime()
	if traced {
		r.b.end = r.end
	}
	return r
}

// digest hashes every cell's (id, cycles, events, fingerprint) in
// canonical cell order, so it does not depend on the run order.
func digest(w *workload, runs []cellRun) uint64 {
	h := fnv.New64a()
	for i, c := range w.cells {
		if res := runs[i].res; res != nil && runs[i].err == nil {
			fmt.Fprintf(h, "%s %d %d %016x\n", c.id, res.RunningTime, res.EventsRun, res.EventFingerprint)
		} else {
			fmt.Fprintf(h, "%s failed\n", c.id)
		}
	}
	return h.Sum64()
}

// phase is a stretch of timed passes.
type phase struct {
	passes    int
	rates     []float64 // events per host second, one per pass
	cellNS    []float64 // host ns per event, one per cell run
	events    uint64
	attempted int
	failed    int
	allocs    uint64 // heap bytes allocated
	gcs       uint64 // GC cycles completed
	digest    uint64 // of the first pass
	problems  []string
	bounds    []*boundary
	spans     []span
}

// timedPasses runs whole passes until budget seconds have gone by and
// at least minCells cells have run, at least one pass, checking every
// cell against its warm-up run.
func timedPasses(w *workload, rng *rand.Rand, ref []cellRun, budget float64, minCells int, traced bool) *phase {
	ph := &phase{}
	// Start each phase from a collected heap, so the GC cycles counted
	// are the phase's own.
	runtime.GC()
	allocs0, gcs0 := runtimeCounters()
	deadline := nanotime() + int64(budget*1e9)
	for ph.passes == 0 || nanotime() < deadline || ph.attempted < minCells {
		start := nanotime()
		runs := runPass(w, rng.Perm(len(w.cells)), traced)
		wall := nanotime() - start
		if ph.passes == 0 {
			ph.digest = digest(w, runs)
		}
		var events uint64
		for i, r := range runs {
			c := &w.cells[i]
			ph.attempted++
			if err := sameRun(r, ref[i]); err != nil {
				ph.failed++
				ph.problems = append(ph.problems, fmt.Sprintf("pass %d: %s: %v", ph.passes, c.id, err))
				continue
			}
			events += r.res.EventsRun
			ph.cellNS = append(ph.cellNS, float64(r.end-r.start)/float64(r.res.EventsRun))
			if traced {
				ph.bounds = append(ph.bounds, r.b)
				ph.spans = append(ph.spans, r.b.spans(fmt.Sprintf("%s/pass%d/%s", w.name, ph.passes, c.id), map[string]any{
					"workload": w.name, "app": c.app, "protocol": c.spec.String(), "profile": c.profile,
					"procs": c.cfg.Processors, "events": r.res.EventsRun, "cycles": r.res.RunningTime,
				})...)
			}
		}
		ph.events += events
		ph.rates = append(ph.rates, float64(events)/seconds(wall))
		ph.passes++
	}
	allocs1, gcs1 := runtimeCounters()
	ph.allocs, ph.gcs = allocs1-allocs0, gcs1-gcs0
	return ph
}

// sameRun reports why a timed run of a cell is not a clean repeat of its
// warm-up run.
func sameRun(got, ref cellRun) error {
	switch {
	case got.err != nil:
		return got.err
	case ref.err != nil || ref.res == nil:
		return errors.New("its warm-up run failed")
	case got.res.RunningTime != ref.res.RunningTime, got.res.EventsRun != ref.res.EventsRun,
		got.res.EventFingerprint != ref.res.EventFingerprint:
		return fmt.Errorf("schedule changed: %d cycles, %d events, fingerprint %016x; warm-up had %d, %d, %016x",
			got.res.RunningTime, got.res.EventsRun, got.res.EventFingerprint,
			ref.res.RunningTime, ref.res.EventsRun, ref.res.EventFingerprint)
	}
	return nil
}

func runtimeCounters() (allocs, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is a finished run: what it printed and what went wrong.
type report struct {
	attempted int
	failed    int
	problems  []string
	printed   []metric        // every metric, in print order
	declared  map[string]bool // the metrics the JSON line carries
	digests   []string        // "digest" lines, printed after the metrics
}

func (r *report) add(declared bool, name string, value float64, unit string) {
	r.printed = append(r.printed, metric{name, value, unit})
	if declared {
		r.declared[name] = true
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.printed {
		if r.declared[m.name] {
			out.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	return out
}

// setUp builds the workload's inputs and runs the untimed warm-up pass,
// whose runs are the reference every later run of a cell must repeat
// exactly. The returned stream orders the timed passes.
func setUp(o options) (*workload, *rand.Rand, []cellRun, error) {
	w, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(o.seed)))
	return w, rng, runPass(w, rng.Perm(len(w.cells)), false), nil
}

func run(o options, entry int64) (*report, error) {
	w, rng, ref, err := setUp(o)
	if err != nil {
		return nil, err
	}
	rep := &report{declared: map[string]bool{}}
	rep.attempted += len(ref)
	for i, r := range ref {
		if r.err != nil {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf("warm-up: %s: %v", w.cells[i].id, r.err))
		}
	}
	sum := digest(w, ref)
	setups := []float64{seconds(nanotime() - entry)}
	for i := 1; i < o.setupRuns; i++ {
		s, d, err := freshSetup(o)
		if err != nil {
			return nil, err
		}
		if d != sum {
			rep.problems = append(rep.problems, fmt.Sprintf("a fresh process's warm-up has digest %016x, this one %016x", d, sum))
		}
		setups = append(setups, s)
	}

	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	plain := timedPasses(w, rng, ref, budget, o.minCells, false)
	var traced *phase
	var cpu map[string]float64
	var samples int
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		profPath := filepath.Join(o.traceDir, "cpu.pprof")
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		traced = timedPasses(w, rng, ref, budget, 0, true)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		if cpu, samples, err = cpuSplit(profPath); err != nil {
			return nil, err
		}
	}
	for _, ph := range []*phase{plain, traced} {
		if ph != nil {
			rep.attempted += ph.attempted
			rep.failed += ph.failed
			rep.problems = append(rep.problems, ph.problems...)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e2e := !o.trace
	rep.add(e2e, "events_per_s", median(plain.rates), "events/s")
	rep.add(e2e, "ns_per_event_p50", percentile(plain.cellNS, 0.5), "ns/event")
	rep.add(e2e, "ns_per_event_p90", percentile(plain.cellNS, 0.9), "ns/event")
	rep.add(e2e, "setup_s", median(setups), "s")
	rep.add(e2e, "peak_rss_mb", rss, "MB")
	rep.add(false, "ns_per_event_samples", float64(len(plain.cellNS)), "count")
	rep.add(false, "passes", float64(plain.passes), "count")
	rep.add(false, "fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.digests = append(rep.digests, fmt.Sprintf("digest %016x", sum))

	layer := o.trace
	exactCounts(rep, layer, ref)
	rep.add(layer, "go.alloc_bytes_per_event", ratio(float64(plain.allocs), float64(plain.events)), "bytes/event")
	rep.add(layer, "go.gc_cycles_per_pass", ratio(float64(plain.gcs), float64(plain.passes)), "count")
	if traced != nil {
		rep.digests = append(rep.digests, fmt.Sprintf("digest.traced %016x", traced.digest))
		if traced.digest != sum {
			rep.problems = append(rep.problems, fmt.Sprintf("traced digest %016x differs from untraced %016x", traced.digest, sum))
		}
		boundaryMetrics(rep, traced.bounds)
		rep.add(true, "cpu.samples", float64(samples), "count")
		for _, b := range cpuBuckets {
			rep.add(true, "cpu."+b, cpu[b], "share")
		}
		rep.add(true, "trace.overhead", ratio(median(traced.rates), median(plain.rates)), "ratio")
		if err := writeTrace(o.traceDir, traced.spans, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// exactCounts adds the simulated work of one pass, summed over its
// cells. These repeat exactly from run to run.
func exactCounts(rep *report, declared bool, ref []cellRun) {
	var s stats.ProcStats
	var cycles, events, handoffs, elided, messages, bytes uint64
	var dropped, retries, held, retryWait uint64
	maxHeap := 0
	for _, r := range ref {
		if r.res == nil {
			continue
		}
		s.Merge(r.res.Breakdown.Sum())
		cycles += uint64(r.res.RunningTime)
		events += r.res.EventsRun
		handoffs += r.res.EngineStats.Handoffs
		elided += r.res.EngineStats.ElidedParks
		if r.res.EngineStats.MaxHeapDepth > maxHeap {
			maxHeap = r.res.EngineStats.MaxHeapDepth
		}
		messages += r.res.Messages
		bytes += r.res.Bytes
		dropped += r.res.Reliability.MessagesDropped
		retries += r.res.Reliability.Retries
		held += r.res.Reliability.HeldForOrder
		retryWait += r.res.Reliability.RetryWaitCycles
	}
	n := func(name string, v uint64, unit string) { rep.add(declared, name, float64(v), unit) }
	rep.add(declared, "sim_mcycles", float64(cycles)/1e6, "Mcycles")
	n("sim.events", events, "count")
	n("sim.handoffs", handoffs, "count")
	n("sim.elided_parks", elided, "count")
	rep.add(declared, "sim.elide_ratio", ratio(float64(elided), float64(elided+handoffs)), "ratio")
	n("sim.max_heap_depth", uint64(maxHeap), "count")
	n("memsys.shared_reads", s.SharedReads, "count")
	n("memsys.shared_writes", s.SharedWrites, "count")
	n("memsys.cache_misses", s.CacheMisses, "count")
	n("memsys.tlb_misses", s.TLBMisses, "count")
	n("proto.read_faults", s.PageFaults, "count")
	n("proto.write_faults", s.WriteFaults, "count")
	n("proto.lock_acquires", s.LockAcquires, "count")
	n("proto.barriers", s.Barriers, "count")
	n("proto.interrupts", s.Interrupts, "count")
	n("proto.prefetches", s.Prefetches, "count")
	rep.add(declared, "proto.prefetch_useful_ratio", ratio(float64(s.UsefulPrefetch), float64(s.Prefetches)), "ratio")
	n("proto.dup_suppressed", s.DupMsgsSuppressed, "count")
	n("lrc.twins", s.TwinsCreated, "count")
	n("lrc.diffs_created", s.DiffsCreated, "count")
	n("lrc.diffs_applied", s.DiffsApplied, "count")
	n("network.messages", messages, "count")
	n("network.bytes", bytes, "bytes")
	n("network.dropped", dropped, "count")
	n("network.retries", retries, "count")
	n("network.held_for_order", held, "count")
	rep.add(declared, "network.retry_wait_mcycles", float64(retryWait)/1e6, "Mcycles")
}

// boundaryMetrics adds the host-time split of the traced cells and the
// per-call costs, and checks that the split accounts for the wall time.
func boundaryMetrics(rep *report, bounds []*boundary) {
	var wall, app, oracle, protocol, other int64
	var ns, calls [numKinds]int64
	broken := 0
	for _, b := range bounds {
		wall += b.end - b.start
		app += b.app
		oracle += b.oracle()
		protocol += b.protocol()
		other += b.other()
		for k := range ns {
			ns[k] += b.ns[k]
			calls[k] += b.calls[k]
		}
		if b.broken {
			broken++
		}
	}
	share := func(v int64) float64 { return ratio(float64(v), float64(wall)) }
	rep.add(true, "host.app_share", share(app), "share")
	rep.add(true, "host.oracle_share", share(oracle), "share")
	rep.add(true, "host.protocol_share", share(protocol), "share")
	rep.add(true, "host.other_share", share(other), "share")
	for _, k := range []int{kindRead, kindWrite, kindCompute, kindLock, kindUnlock, kindBarrier} {
		rep.add(true, "host."+kindNames[k]+"_ns", ratio(float64(ns[k]), float64(calls[k])), "ns/call")
	}
	if sum := share(app + oracle + protocol + other); broken > 0 || math.Abs(sum-1) > 0.01 {
		rep.problems = append(rep.problems, fmt.Sprintf("boundary shares sum to %v over %d cells, %d with crossings out of order", sum, len(bounds), broken))
	}
}

// writeTrace writes the spans, kept in memory until now, and the
// per-layer metrics.
func writeTrace(dir string, spans []span, rep *report) error {
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), []byte(buf.String()), 0o644); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(rep.result().Metrics, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644)
}

// freshSetup measures one set-up in a new process of this program.
func freshSetup(o options) (float64, uint64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up in a fresh process: %w", err)
	}
	var s float64
	var d uint64
	if _, err := fmt.Sscanf(string(out), "setup_s %g digest %x", &s, &d); err != nil {
		return 0, 0, fmt.Errorf("set-up in a fresh process printed %q: %w", out, err)
	}
	return s, d, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// ratio is a / b, or 0 when nothing was counted, which keeps a failed
// run's JSON line valid.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks; it is 0
// for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
