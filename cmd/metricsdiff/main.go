// Command metricsdiff compares two run-metrics JSON artifacts (dsmsim
// -metrics / sweep -metrics output, any dsm96/run-metrics schema) and
// exits nonzero when they drift — the regression gate `make check` runs
// against the committed golden.
//
// Usage:
//
//	metricsdiff golden.json new.json
//	metricsdiff -tol 'counters.bytes=0.05' -tol 'spans.*=0.10' golden.json new.json
//	metricsdiff -ignore 'per_proc_cycles.*' golden.json new.json
//	metricsdiff -schema dsm96/run-metrics/v3 golden.json new.json
//
// Both files are flattened into dotted key paths (array indices become
// path segments: per_proc_cycles.3.busy_cycles). Every key must appear
// in both files with an equal value; -allow-extra tolerates keys that
// exist only in the new file (a newer schema adding fields).
//
// -tol PATH=FRAC allows a relative drift of FRAC on numeric values at
// PATH (repeatable). -ignore PATH skips paths entirely (repeatable). In
// both, a trailing '*' matches any suffix: 'spans.*' covers the whole
// spans block.
//
// -schema TAG additionally asserts that both files carry exactly that
// schema tag — the gate that makes a schema bump (v2 -> v3) a
// deliberate, golden-regenerating act rather than silent drift.
//
// -engine-profile switches to engine self-profile comparison (dsmsim
// -engine-profile output, schema dsm96/engine-profile/v1): the
// deterministic block — the fired event count — must match exactly (it
// is a pure function of the simulated schedule), while the host block
// (wall-clock timings, CPU counts) is ignored entirely; it measures the
// machine, not the simulator:
//
//	metricsdiff -engine-profile run1.json run2.json
//
// -trend switches to trend-record comparison (cmd/experiment -snapshot,
// schema dsm96/trend/v1): per cell, the determinism contract —
// cells.<id>.cycles, .events, .fingerprint, .metrics_keys — must match
// exactly (these are machine-independent facts of the simulator), while
// throughput (.wall_ns, .events_per_sec) may drift by -trend-tol
// relative, and then only when both records carry the same host class
// (host.num_cpu); across host classes throughput is skipped with a
// note, never compared. seq, label, and the host block are provenance,
// not measurements, and are ignored. Arguments name two record files,
// or the trend directory (newest two records), or a directory plus a
// candidate file:
//
//	metricsdiff -trend trends/                 # previous vs newest
//	metricsdiff -trend trends/ /tmp/new.json   # newest committed vs fresh
//	metricsdiff -trend trends/0001.json trends/0002.json
//
// This is the `make trend` gate: a ladder cell whose cycle count or
// event fingerprint moves fails with the named dotted path
// (cells.<profile>/<app>/<proto>/pN/w1.cycles), so protocol changes
// re-snapshot deliberately instead of drifting silently.
//
// Exit status: 0 when the artifacts match, 1 on drift (each drifted
// path is reported), 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"dsm96/internal/pipeline"
	"dsm96/internal/sim"
)

// pattern is one -tol/-ignore rule; star means trailing-* prefix match.
type pattern struct {
	path string
	star bool
	frac float64 // tolerance fraction (unused for -ignore)
}

func parsePattern(s string) pattern {
	if strings.HasSuffix(s, "*") {
		return pattern{path: strings.TrimSuffix(s, "*"), star: true}
	}
	return pattern{path: s}
}

func (p pattern) matches(path string) bool {
	if p.star {
		return strings.HasPrefix(path, p.path)
	}
	return path == p.path
}

// flatten walks a decoded JSON value into dotted scalar paths. Numbers
// arrive as json.Number (the decoder uses UseNumber), so integers far
// beyond float64 precision — cycle counts, byte totals — compare
// exactly unless a tolerance asks for arithmetic.
func flatten(prefix string, v any, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, sub, out)
		}
	case []any:
		for i, sub := range x {
			p := strconv.Itoa(i)
			if prefix != "" {
				p = prefix + "." + p
			}
			flatten(p, sub, out)
		}
	default:
		out[prefix] = v
	}
}

func load(path string) (map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	flat := map[string]any{}
	flatten("", v, flat)
	return flat, nil
}

// equal compares two scalar leaves under a relative tolerance (0 =
// exact). Non-numeric values always compare exactly.
func equal(a, b any, frac float64) bool {
	na, aok := a.(json.Number)
	nb, bok := b.(json.Number)
	if !aok || !bok {
		return a == b
	}
	if na.String() == nb.String() {
		return true
	}
	if frac <= 0 {
		return false
	}
	fa, erra := na.Float64()
	fb, errb := nb.Float64()
	if erra != nil || errb != nil {
		return false
	}
	return math.Abs(fa-fb) <= frac*math.Max(math.Abs(fa), math.Abs(fb))
}

func main() {
	var tols, ignores []pattern
	flag.Func("tol", "PATH=FRAC: allow relative drift FRAC at PATH (trailing * = prefix; repeatable)",
		func(s string) error {
			eq := strings.LastIndex(s, "=")
			if eq < 0 {
				return fmt.Errorf("want PATH=FRAC, got %q", s)
			}
			frac, err := strconv.ParseFloat(s[eq+1:], 64)
			if err != nil || frac < 0 {
				return fmt.Errorf("bad tolerance in %q", s)
			}
			p := parsePattern(s[:eq])
			p.frac = frac
			tols = append(tols, p)
			return nil
		})
	flag.Func("ignore", "PATH: skip this path (trailing * = prefix; repeatable)",
		func(s string) error {
			ignores = append(ignores, parsePattern(s))
			return nil
		})
	allowExtra := flag.Bool("allow-extra", false, "tolerate keys present only in the new file")
	schema := flag.String("schema", "", "require both files to carry exactly this schema tag")
	trend := flag.Bool("trend", false, "compare dsm96/trend/v1 records: per-cell determinism exact, throughput within -trend-tol and only across equal host classes")
	trendTol := flag.Float64("trend-tol", 0.5, "relative tolerance on cell throughput in -trend mode (same host class only)")
	engineProfile := flag.Bool("engine-profile", false, "compare dsm96/engine-profile/v1 profiles: deterministic block exact, host block (wall-clock timings) ignored")
	flag.Parse()
	if *trend && *schema == "" {
		*schema = pipeline.TrendSchema
	}
	if *engineProfile && *schema == "" {
		*schema = sim.EngineProfileSchema
	}
	goldenPath, nextPath := flag.Arg(0), flag.Arg(1)
	if *trend {
		var err error
		goldenPath, nextPath, err = resolveTrendArgs(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricsdiff:", err)
			os.Exit(2)
		}
	} else if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: metricsdiff [-tol PATH=FRAC]... [-ignore PATH]... [-allow-extra] golden.json new.json")
		os.Exit(2)
	}
	golden, err := load(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricsdiff:", err)
		os.Exit(2)
	}
	next, err := load(nextPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricsdiff:", err)
		os.Exit(2)
	}

	// Host class: throughput facts (wall clock, events/sec) are only
	// comparable between records measured on hosts with the same CPU
	// count. Across classes they are skipped — neither a pass nor a
	// fail — so a trend database can span machine upgrades without
	// faking comparability.
	sameHostClass := true
	if *trend {
		gc, _ := golden["host.num_cpu"].(json.Number)
		nc, _ := next["host.num_cpu"].(json.Number)
		sameHostClass = gc.String() == nc.String()
		if !sameHostClass {
			fmt.Fprintf(os.Stderr, "metricsdiff: host classes differ (num_cpu %s vs %s); skipping throughput fields\n",
				gc, nc)
		}
	}

	throughput := func(path string) bool {
		return strings.HasSuffix(path, ".events_per_sec") || strings.HasSuffix(path, ".wall_ns")
	}
	ignored := func(path string) bool {
		// Trend and engine-profile records carry the measuring host for
		// provenance; two honest records from different machines must
		// still compare. For engine profiles the host block also holds
		// the wall-clock timing — the whole host-dependent half of the
		// artifact.
		if (*trend || *engineProfile) && strings.HasPrefix(path, "host.") {
			return true
		}
		// Trend sequence position and label are bookkeeping, and
		// throughput across host classes is not a comparison at all.
		if *trend && (path == "seq" || path == "label") {
			return true
		}
		if *trend && !sameHostClass && throughput(path) {
			return true
		}
		for _, p := range ignores {
			if p.matches(path) {
				return true
			}
		}
		return false
	}
	tolFor := func(path string) float64 {
		// The last matching -tol wins, so broad patterns can be
		// overridden by later, more specific ones.
		frac := 0.0
		if *trend && throughput(path) {
			// Throughput wobbles run to run; fingerprints, event counts,
			// and simulated cycles stay exact (the engine's contract).
			frac = *trendTol
		}
		for _, p := range tols {
			if p.matches(path) {
				frac = p.frac
			}
		}
		return frac
	}

	paths := make([]string, 0, len(golden)+len(next))
	for p := range golden {
		paths = append(paths, p)
	}
	for p := range next {
		if _, ok := golden[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	drift := 0
	report := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "metricsdiff: "+format+"\n", args...)
		drift++
	}
	if *schema != "" {
		for i, flat := range []map[string]any{golden, next} {
			name := []string{goldenPath, nextPath}[i]
			if got, _ := flat["schema"].(string); got != *schema {
				report("%s: schema %q, want %q", name, got, *schema)
			}
		}
	}
	for _, p := range paths {
		if ignored(p) {
			continue
		}
		gv, inGolden := golden[p]
		nv, inNext := next[p]
		switch {
		case !inNext:
			report("%s: missing from %s (golden has %v)", p, nextPath, gv)
		case !inGolden:
			if !*allowExtra {
				report("%s: only in %s (value %v)", p, nextPath, nv)
			}
		case !equal(gv, nv, tolFor(p)):
			report("%s: golden %v, got %v", p, gv, nv)
		}
	}
	if drift > 0 {
		fmt.Fprintf(os.Stderr, "metricsdiff: %d path(s) drifted between %s and %s\n",
			drift, goldenPath, nextPath)
		os.Exit(1)
	}
	fmt.Printf("metricsdiff: %s and %s match (%d paths compared)\n",
		goldenPath, nextPath, len(paths))
}

// resolveTrendArgs turns the -trend argument forms into an ordered
// (older, newer) pair of record files: a bare trend directory compares
// its previous record against its newest; a directory plus a file
// compares the directory's newest record against that file; two files
// compare as given.
func resolveTrendArgs(args []string) (older, newer string, err error) {
	isDir := func(p string) bool {
		st, serr := os.Stat(p)
		return serr == nil && st.IsDir()
	}
	switch len(args) {
	case 1:
		if !isDir(args[0]) {
			return "", "", fmt.Errorf("-trend with one argument needs a trend directory, got %q", args[0])
		}
		files, ferr := pipeline.TrendFiles(args[0])
		if ferr != nil {
			return "", "", ferr
		}
		if len(files) < 2 {
			return "", "", fmt.Errorf("%s: need at least 2 trend records to compare, have %d", args[0], len(files))
		}
		return files[len(files)-2], files[len(files)-1], nil
	case 2:
		a, b := args[0], args[1]
		for i, p := range []string{a, b} {
			if !isDir(p) {
				continue
			}
			files, ferr := pipeline.TrendFiles(p)
			if ferr != nil {
				return "", "", ferr
			}
			if len(files) == 0 {
				return "", "", fmt.Errorf("%s: no trend records", p)
			}
			newest := files[len(files)-1]
			if i == 0 {
				a = newest
			} else {
				b = newest
			}
		}
		return a, b, nil
	default:
		return "", "", fmt.Errorf("-trend takes a trend directory, or two records, or a directory and a record")
	}
}
