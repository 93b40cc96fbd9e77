package serve

import (
	"strings"
	"testing"

	"dsm96/internal/faults"
	"dsm96/internal/params"
)

func resolve(t *testing.T, spec *JobSpec) *ResolvedJob {
	t.Helper()
	job, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", spec, err)
	}
	return job
}

// TestJobKeyCanonical pins the memoization contract: execution policy
// (the watchdog) and spelling (defaults made explicit, profile vs
// inline config) never change a job's identity; anything
// result-determining does.
func TestJobKeyCanonical(t *testing.T) {
	base := &JobSpec{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4}
	key := resolve(t, base).Key

	same := []*JobSpec{
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4, Watchdog: 5_000_000},
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4, Faults: &JobFaults{}},
	}
	for i, s := range same {
		if got := resolve(t, s).Key; got != key {
			t.Errorf("variant %d: key %s, want %s (execution policy leaked into identity)", i, got, key)
		}
	}
	// An explicit config equal to the resolved default is the same job.
	cfg := params.Default()
	cfg.Processors = 4
	if got := resolve(t, &JobSpec{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Config: &cfg}).Key; got != key {
		t.Errorf("explicit default config changed the key")
	}

	diff := []*JobSpec{
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 8},
		{Schema: JobSchema, App: "radix", Protocol: "AURC", Scale: "tiny", Procs: 4},
		{Schema: JobSchema, App: "em3d", Protocol: "I+P+D", Scale: "tiny", Procs: 4},
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "default", Procs: 4},
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4, Profile: "rdma"},
		{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4, Faults: &JobFaults{Seed: 1, Drop: 0.01}},
	}
	seen := map[string]int{key: -1}
	for i, s := range diff {
		got := resolve(t, s).Key
		if prev, dup := seen[got]; dup {
			t.Errorf("variants %d and %d collide on %s", prev, i, got)
		}
		seen[got] = i
	}
}

// TestJobKeyStable pins one job key as computed before the engine
// worker count left the job spec: keys index the persistent store, so
// a change here would orphan every memoized result.
func TestJobKeyStable(t *testing.T) {
	const want = "359f426732ba4cb4c5df529db8f14f9343d07ff543a5d7f497eba45ca455cf1a"
	if got := resolve(t, &JobSpec{Schema: JobSchema, App: "radix", Protocol: "I+P+D", Scale: "tiny", Procs: 4}).Key; got != want {
		t.Errorf("job key %s, want %s", got, want)
	}
}

// TestJobKeySeedMatters pins fault scenarios into the identity: a
// different seed is a different deterministic universe.
func TestJobKeySeedMatters(t *testing.T) {
	mk := func(seed uint64) *JobSpec {
		return &JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Scale: "tiny",
			Faults: &JobFaults{Seed: seed, Drop: 0.05}}
	}
	if resolve(t, mk(1)).Key == resolve(t, mk(2)).Key {
		t.Fatal("fault seed does not affect the job key")
	}
}

// TestJobResolveRejects is the validation matrix: every malformed spec
// is refused with the offending field named.
func TestJobResolveRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"schema", JobSpec{Schema: "bogus/v9", App: "tsp", Protocol: "Base"}, "schema"},
		{"app", JobSpec{Schema: JobSchema, App: "doom", Protocol: "Base"}, "app"},
		{"protocol", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "XYZ"}, "protocol"},
		{"scale", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Scale: "huge"}, "scale"},
		{"profile", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Profile: "../../etc/passwd"}, "profile"},
		{"watchdog off", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Watchdog: -1}, "watchdog"},
		{"fault rate", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Faults: &JobFaults{Drop: 1.5}}, "faults"},
		{"ctrl node range", JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Procs: 4,
			Faults: &JobFaults{Ctrl: map[int]faults.CtrlFault{9: {Crash: true, CrashAt: 1}}}}, "ctrl node"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Resolve()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultsRoundTrip pins the JobFaults <-> faults.Plan conversion the
// sweep client leans on.
func TestFaultsRoundTrip(t *testing.T) {
	spec := &JobSpec{Schema: JobSchema, App: "tsp", Protocol: "Base", Scale: "tiny", Procs: 4,
		Faults: &JobFaults{Seed: 7, Drop: 0.02, Delay: 0.1, DelayMin: 100, DelayMax: 500,
			Ctrl: map[int]faults.CtrlFault{1: {Hang: true, HangAt: 1000, HangFor: 5000}}}}
	job := resolve(t, spec)
	back, err := FaultsFromPlan(job.Spec.Faults)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := *spec
	spec2.Faults = back
	if got := resolve(t, &spec2).Key; got != job.Key {
		t.Fatalf("fault round-trip changed the key: %s vs %s", got, job.Key)
	}
	if _, err := FaultsFromPlan(&faults.Plan{PerLink: map[faults.Pair]faults.Link{{Src: 0, Dst: 1}: {Drop: 1}}}); err == nil {
		t.Fatal("per-link plan must not serialize")
	}
}
