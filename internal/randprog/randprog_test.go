package randprog_test

import (
	"fmt"
	"testing"

	"dsm96/internal/core"
	"dsm96/internal/dsm"
	"dsm96/internal/params"
	"dsm96/internal/randprog"
	"dsm96/internal/tmk"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := randprog.New(7, 10, 2048, 3)
	b := randprog.New(7, 10, 2048, 3)
	ra := dsm.RunSequential(a, 4096)
	rb := dsm.RunSequential(b, 4096)
	if ra != rb {
		t.Fatalf("same seed, different results: %v vs %v", ra, rb)
	}
	c := randprog.New(8, 10, 2048, 3)
	if rc := dsm.RunSequential(c, 4096); rc == ra {
		t.Fatalf("different seeds produced identical checksum %v (suspicious)", rc)
	}
}

// TestFuzzProtocols is the protocol fuzzer: random DRF programs across
// every protocol and several machine sizes, all validated against the
// sequential oracle. Seeds are fixed so failures reproduce exactly.
func TestFuzzProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz matrix is expensive; run without -short")
	}
	protocols := []core.Spec{
		core.TM(tmk.Base), core.TM(tmk.I), core.TM(tmk.ID),
		core.TM(tmk.P), core.TM(tmk.IP), core.TM(tmk.IPD),
		core.AURC(false), core.AURC(true),
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, spec := range protocols {
			for _, procs := range []int{4, 16} {
				seed, spec, procs := seed, spec, procs
				name := fmt.Sprintf("seed%d/%s/%dp", seed, spec, procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					prog := randprog.New(seed, 12, 4096, 4)
					cfg := params.Default()
					cfg.Processors = procs
					if _, err := core.Run(cfg, spec, prog); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFuzzSmall runs a quick slice of the fuzz matrix even with -short.
func TestFuzzSmall(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		prog := randprog.New(seed, 8, 1024, 2)
		cfg := params.Default()
		cfg.Processors = 8
		if _, err := core.Run(cfg, core.TM(tmk.Base), prog); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzArchitectures varies machine parameters too: protocol
// correctness must not depend on timing.
func TestFuzzArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	mutations := []func(*params.Config){
		func(c *params.Config) { c.SetNetworkBandwidthMBps(20) },
		func(c *params.Config) { c.SetMemoryLatencyNanos(200) },
		func(c *params.Config) { c.MessagingOverhead = 2000 },
		func(c *params.Config) { c.WriteBufferSize = 1 },
		func(c *params.Config) { c.CacheSize = 8 * 1024 },
	}
	for i, mut := range mutations {
		for _, spec := range []core.Spec{core.TM(tmk.IPD), core.AURC(true)} {
			i, mut, spec := i, mut, spec
			t.Run(fmt.Sprintf("mut%d/%s", i, spec), func(t *testing.T) {
				t.Parallel()
				prog := randprog.New(uint64(100+i), 10, 2048, 3)
				cfg := params.Default()
				mut(&cfg)
				if _, err := core.Run(cfg, spec, prog); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFuzzLazyHybrid fuzzes the Lazy Hybrid grant-piggyback extension.
func TestFuzzLazyHybrid(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, m := range []tmk.Mode{tmk.Base, tmk.ID} {
			prog := randprog.New(seed, 10, 2048, 3)
			cfg := params.Default()
			cfg.Processors = 8
			spec := core.TMOpt(m, tmk.Options{LazyHybrid: true})
			if _, err := core.Run(cfg, spec, prog); err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec, err)
			}
		}
	}
}

// TestFuzzCorpus is the short-mode fuzz gate: 32 fixed seeds, a TreadMarks
// overlap variant and AURC, at 4 and 16 processors, every run validated
// against the sequential oracle inside core.Run. It is cheap enough to run
// on every `go test -short`, so engine and protocol changes cannot land
// without surviving the corpus.
func TestFuzzCorpus(t *testing.T) {
	protocols := []core.Spec{core.TM(tmk.IPD), core.AURC(false)}
	for seed := uint64(1); seed <= 32; seed++ {
		for _, spec := range protocols {
			for _, procs := range []int{4, 16} {
				seed, spec, procs := seed, spec, procs
				t.Run(fmt.Sprintf("seed%d/%s/%dp", seed, spec, procs), func(t *testing.T) {
					t.Parallel()
					prog := randprog.New(seed, 8, 1024, 2)
					cfg := params.Default()
					cfg.Processors = procs
					if _, err := core.Run(cfg, spec, prog); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// FuzzRandprog is a native fuzz target over the program generator's
// parameters: any generated DRF program must validate against the
// sequential oracle under both protocol families. Seed inputs live in
// testdata/fuzz/FuzzRandprog; run with
//
//	go test ./internal/randprog -fuzz FuzzRandprog -fuzztime 30s
func FuzzRandprog(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(1))
	f.Add(uint64(17), uint8(12), uint8(3))
	f.Add(uint64(42), uint8(10), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, steps, procSel uint8) {
		nSteps := 4 + int(steps)%12
		procs := []int{2, 4, 8, 16}[int(procSel)%4]
		newProg := func() *randprog.Program { return randprog.New(seed, nSteps, 1024, 2) }
		cfg := params.Default()
		cfg.Processors = procs
		for _, spec := range []core.Spec{core.TM(tmk.ID), core.AURC(false)} {
			if _, err := core.Run(cfg, spec, newProg()); err != nil {
				t.Fatal(err)
			}
		}
	})
}
