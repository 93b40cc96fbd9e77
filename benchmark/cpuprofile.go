package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuBuckets are the packages a CPU sample can be charged to, in print
// order: the simulator's layers, then bench (this program's own frames,
// the boundary wrapper among them), sched (runtime only, goroutine
// switching) and gc (runtime only, collection). other takes any dsm96
// package not named here.
var cpuBuckets = []string{"apps", "tmk", "aurc", "memsys", "lrc", "sim", "network", "controller", "faults", "dsm", "bench", "sched", "gc", "other"}

// profileSampleRate is runtime/pprof's fixed CPU sampling period.
const profileSampleRate = 10 * time.Millisecond

// cpuSplit charges every sample of a CPU profile to the package of its
// innermost dsm96 frame, so runtime frames go to their caller. It reads
// the profile through `go tool pprof -traces` and returns each bucket's
// share and the sample count the shares are taken of.
func cpuSplit(profile string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	weights := map[string]time.Duration{}
	var total time.Duration
	var weight time.Duration
	var stack []string
	flush := func() {
		if weight > 0 {
			weights[chargeStack(stack)] += weight
			total += weight
		}
		weight, stack = 0, stack[:0]
	}
	// Each trace follows a separator line; its first line carries the
	// weight ahead of the leaf frame, and each further line one caller.
	inTraces, wantWeight := false, false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces, wantWeight = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if wantWeight {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof trace weight %q: %w", fields[0], err)
			}
			weight, fields, wantWeight = d, fields[1:], false
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("cpu profile %s holds no samples", profile)
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = float64(weights[b]) / float64(total)
	}
	return shares, int(total / profileSampleRate), nil
}

// chargeStack picks the bucket for one stack, leaf first.
func chargeStack(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "dsm96/benchmark.") {
			return "bench"
		}
		if pkg, ok := strings.CutPrefix(fn, "dsm96/internal/"); ok {
			pkg, _, _ = strings.Cut(pkg, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			switch pkg {
			case "randprog":
				return "apps"
			case "apps", "tmk", "aurc", "memsys", "lrc", "sim", "network", "controller", "faults", "dsm":
				return pkg
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") {
			return "gc"
		}
	}
	return "sched"
}
