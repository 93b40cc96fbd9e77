# Development targets for the dsm96 simulator. `make check` is the
# pre-commit gate: formatting, vet, build, the full test suite, the race
# detector over the whole tree, and one pass of the repo benchmark.

GO ?= go

.PHONY: check fmt vet build test race benchcheck bench-snapshot golden fuzz docs timeline metricsdiff chaos profiles experiments trend render trend-snapshot obsparity serve

check: fmt vet build test race benchcheck timeline metricsdiff chaos profiles experiments obsparity serve trend docs

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine runs each simulated processor as a runtime coroutine that
# the parallel engine's shard workers resume from their own OS threads,
# and the job server runs simulations on a worker pool: the race
# detector over the whole tree (short mode trims the heavyweight app
# inputs) is the cheapest way to catch an accidental shared write.
race:
	$(GO) test -race -short ./...

# The repo benchmark's own tests (benchmark/, a separate module): one
# pass of every workload, checking each cell's schedule against its
# warm-up run and the digest against a fresh process. An engine change
# that perturbs a schedule fails here. Measuring speed is
# `bash benchmark/run.sh` (see EXPERIMENTS.md, "Engine throughput").
benchcheck:
	cd benchmark && $(GO) test -short ./...

# Parallel-engine scaling snapshot: events/sec across 64/128/256-node
# meshes at 1/2/4/8 engine workers, written to BENCH_parallel_engine.json
# (atomically). Every cell is fingerprint-checked against workers=1; the
# >=2x speedup assertion applies only on hosts with 8+ CPUs (the script
# says so when it skips). Compare snapshots with metricsdiff -bench.
bench-snapshot:
	sh scripts/bench.sh BENCH_parallel_engine.json

# Regenerate the golden cycle totals after an INTENTIONAL timing change.
golden:
	$(GO) test ./internal/experiments -run TestGoldenCycles -update-golden

# Exploratory fuzzing beyond the checked-in corpus.
fuzz:
	$(GO) test ./internal/randprog -fuzz FuzzRandprog -fuzztime 30s

# Smoke-test the observability artifacts: generate a Perfetto timeline,
# run-metrics JSON, and a causal-span JSONL from a tiny run, then
# validate them with jq (the timeline must be one trace-event object,
# the metrics must carry the v2 schema tag, a per-processor breakdown,
# and a span digest; every span's stages must sum to its window).
timeline:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dsmsim -p 8 -app radix -mode ipd -scale tiny \
		-timeline "$$dir/t.json" -metrics "$$dir/m.json" -spans "$$dir/s.jsonl" >/dev/null; \
	jq -e '.traceEvents | length > 0' "$$dir/t.json" >/dev/null; \
	jq -e '.schema == "dsm96/run-metrics/v3" and (.per_proc_cycles | length == 8) and (.spans.digest | length == 16)' "$$dir/m.json" >/dev/null; \
	jq -es 'all(.[]; (.stages | add) == .end - .start)' "$$dir/s.jsonl" >/dev/null; \
	echo "timeline: ok"

# Metrics regression gate: rerun the golden configuration (tiny radix,
# I+P+D, 4 processors) and diff its metrics JSON — every counter, cycle
# total, percentile, and the span digest — against the committed golden,
# asserting the v3 schema tag on both sides; then prove the differ
# actually fails by injecting a counter drift, and that the schema
# assertion fails on a wrong tag.
metricsdiff:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dsmsim -p 4 -app radix -mode ipd -scale tiny \
		-metrics "$$dir/m.json" >/dev/null; \
	$(GO) run ./cmd/metricsdiff -schema dsm96/run-metrics/v3 \
		internal/timeline/testdata/radix_ipd_p4.metrics.json "$$dir/m.json"; \
	jq '.counters.messages += 1' "$$dir/m.json" > "$$dir/drift.json"; \
	if $(GO) run ./cmd/metricsdiff internal/timeline/testdata/radix_ipd_p4.metrics.json \
		"$$dir/drift.json" >/dev/null 2>&1; then \
		echo "metricsdiff: FAILED to detect injected drift"; exit 1; fi; \
	if $(GO) run ./cmd/metricsdiff -schema dsm96/run-metrics/v2 \
		internal/timeline/testdata/radix_ipd_p4.metrics.json "$$dir/m.json" >/dev/null 2>&1; then \
		echo "metricsdiff: FAILED to reject wrong schema tag"; exit 1; fi; \
	echo "metricsdiff: drift and schema detection ok"

# Chaos gate: link faults plus randomized controller crash/hang over the
# {tsp, water, radix} x {Base, I, I+P+D, AURC} matrix at tiny scale with
# a fixed, bounded seed set. Every cell is validated against the
# sequential oracle and run twice for fingerprint equality, and the
# whole sweep is rerun under GOMAXPROCS=1 — chaos must cost cycles, not
# correctness or determinism. Also anchors degradation correctness: an
# all-controllers-crashed I+P+D run must compute Base's exact answer.
chaos:
	$(GO) test ./internal/experiments -count 1 \
		-run 'TestChaosSweep|TestDegradedMatchesBase|TestCtrlFaultsVacuousOffController'
	@echo "chaos: ok"

# Profiles gate: every checked-in params-profile parses, validates, and
# is byte-for-byte the canonical serialization of its builtin (so the
# template files can never drift from the constants the backend goldens
# pin), and -profile pci1996 stays bit-identical to the profile-less
# default machine (compared via run-metrics JSON).
profiles:
	$(GO) run ./cmd/profilecheck
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dsmsim -p 4 -app radix -mode ipd -scale tiny \
		-metrics "$$dir/default.json" >/dev/null; \
	$(GO) run ./cmd/dsmsim -p 4 -app radix -mode ipd -scale tiny \
		-profile pci1996 -metrics "$$dir/pci1996.json" >/dev/null; \
	cmp "$$dir/default.json" "$$dir/pci1996.json" || \
		{ echo "profiles: -profile pci1996 diverged from the default machine"; exit 1; }; \
	$(GO) run ./cmd/dsmsim -p 4 -app radix -mode ipd -scale tiny \
		-profile profiles/rdma.json >/dev/null; \
	echo "profiles: ok"

# Docs gate: vet + formatting, every example builds, the prose in
# README/ARCHITECTURE/EXPERIMENTS references only make targets and paths
# that actually exist, and the generated tables of EXPERIMENTS.md match
# a fresh render (scripts/checkdocs.sh).
docs: fmt vet
	$(GO) build ./examples/...
	sh scripts/checkdocs.sh

# Experiment-pipeline smoke gate: the committed experiments.json loads
# and validates, and the smoke grid runs end-to-end into a throwaway run
# folder whose manifest parses and carries the run-manifest schema tag
# with zero failed cells. Seconds of wall clock.
experiments:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiment -list >/dev/null; \
	$(GO) run ./cmd/experiment -run smoke -out "$$dir" -q; \
	jq -e '.schema == "dsm96/run-manifest/v1" and ([.cells[] | select(.error != null and .error != "")] | length == 0)' \
		"$$dir"/*-smoke/manifest.json >/dev/null; \
	echo "experiments: ok"

# Parallel-observability gate: the worker-parity matrix (Perfetto
# timeline, run-metrics JSON, spans JSONL, rendered trace byte-identical
# across worker counts, fingerprint equal to the uninstrumented run) and
# the engine self-profiler's determinism contract, run under the race
# detector; then the artifact-level proof through the real CLI — two
# dsmsim runs of the same sharded configuration must carry the
# dsm96/engine-profile/v1 schema tag and pass metricsdiff
# -engine-profile (deterministic block exact, host block ignored).
obsparity:
	$(GO) test -race ./internal/core -count 1 \
		-run 'TestObservabilityWorkerParity|TestObservabilityParityLargeMesh|TestEngineProfileDeterministic'
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/dsmsim -p 8 -app water -mode ipd -scale tiny -workers 4 \
		-engine-profile "$$dir/a.json" >/dev/null; \
	$(GO) run ./cmd/dsmsim -p 8 -app water -mode ipd -scale tiny -workers 4 \
		-engine-profile "$$dir/b.json" >/dev/null; \
	jq -e '.schema == "dsm96/engine-profile/v1" and .workers == 4 and (.deterministic.windows > 0)' \
		"$$dir/a.json" >/dev/null; \
	$(GO) run ./cmd/metricsdiff -engine-profile "$$dir/a.json" "$$dir/b.json"; \
	echo "obsparity: ok"

# Service gate: boot dsmserve on a throwaway store, submit the same job
# twice through the built-in client, and require the second answer to be
# a cache hit with the same fingerprint and a byte-identical
# content-addressed artifact; then SIGTERM-drain and require exit 0
# (scripts/serve_smoke.sh).
serve:
	sh scripts/serve_smoke.sh

# Trend gate: take a fresh snapshot of the ladder experiment and compare
# it against the newest committed record in trends/ with metricsdiff
# -trend — determinism fields (cycles, events, fingerprint, metrics key
# hash) exact, throughput only within the same host class; then prove
# the differ bites by injecting a one-cycle drift into a copy and
# requiring a nonzero exit naming the drifted dotted path. The chaos
# grid gets the same treatment against its own record sequence in
# trends/chaos, so fault-injection cells are regression-gated too.
trend:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiment -snapshot -trend-out "$$dir/fresh.json" -q; \
	$(GO) run ./cmd/metricsdiff -trend trends "$$dir/fresh.json"; \
	jq '(.cells[.cells | keys | first].cycles) += 1' "$$dir/fresh.json" > "$$dir/drift.json"; \
	if $(GO) run ./cmd/metricsdiff -trend trends "$$dir/drift.json" >/dev/null 2>&1; then \
		echo "trend: FAILED to detect injected cycle drift"; exit 1; fi; \
	$(GO) run ./cmd/experiment -snapshot -trend-of chaos -trend-dir trends/chaos \
		-trend-out "$$dir/fresh-chaos.json" -q; \
	$(GO) run ./cmd/metricsdiff -trend trends/chaos "$$dir/fresh-chaos.json"; \
	echo "trend: drift detection ok"

# Append a real trend record to trends/ (one per PR, committed).
trend-snapshot:
	$(GO) run ./cmd/experiment -snapshot -label "$${LABEL:-}"

# Regenerate the measured tables of EXPERIMENTS.md in place.
render:
	$(GO) run ./cmd/experiment -render
