#!/usr/bin/env bash
# Checks that the benchmark agrees with itself. For each workload (all of
# BENCHMARK.json's, or those named), it makes two sets of RUNS untraced
# runs (default 5): set A with seeds 1..RUNS, set B with seeds
# RUNS+1..2*RUNS, then one more run of seed 1. It prints each end-to-end
# metric's median and quartiles per set and flags:
#
#   DIFFER  the two medians differ by more than the metric's bound;
#   SPREAD  the quartile spread over all 2*RUNS runs, as a share of their
#           median, exceeds a third of the bound (setup_s is exempt);
#   DIGEST  the repeat of seed 1 printed another digest or sim_mcycles.
#
# Run it from the repository root:  bash benchmark/agree.sh [workload ...]
# Output of every run is kept in .bench_build/agree/. Exits 1 on any flag.
set -euo pipefail
runs=${RUNS:-5}
dir=.bench_build/agree
mkdir -p "$dir"
if [ $# -eq 0 ]; then
	set -- $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for w in "$@"; do
	for seed in $(seq 1 $((2 * runs))) repeat; do
		arg=$seed
		[ "$seed" = repeat ] && arg=1
		bash benchmark/run.sh --workload "$w" --seed "$arg" --seconds "$secs" --trace 0 >"$dir/$w-$seed.out"
	done
done
python3 - "$runs" "$dir" "$@" <<'EOF'
import json, statistics, sys

runs, out = int(sys.argv[1]), sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
flags = 0

def parse(path):
    lines = open(path).read().splitlines()
    text = dict(l.split(" ", 1) for l in lines[:-1] if " " in l)
    return json.loads(lines[-1])["metrics"], text.get("digest"), text.get("sim_mcycles")

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3

for w in sys.argv[3:]:
    got = {s: parse(f"{out}/{w}-{s}.out") for s in [str(i) for i in range(1, 2 * runs + 1)] + ["repeat"]}
    sets = {"A": [str(i) for i in range(1, runs + 1)], "B": [str(i) for i in range(runs + 1, 2 * runs + 1)]}
    print(f"== {w}")
    print(f"  {'metric':<18} {'set':<3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med = {}
        for s, seeds in sets.items():
            xs = [got[k][0][name]["value"] for k in seeds]
            q1, med[s], q3 = quartiles(xs)
            print(f"  {name:<18} {s:<3} {q1:>14.6g} {med[s]:>14.6g} {q3:>14.6g} {(q3 - q1) / med[s]:>8.2%}")
        xs = [got[k][0][name]["value"] for k in sets["A"] + sets["B"]]
        q1, mall, q3 = quartiles(xs)
        spread, diff = (q3 - q1) / mall, abs(med["B"] - med["A"]) / med["A"]
        note = f"  {name:<18} all {q1:>14.6g} {mall:>14.6g} {q3:>14.6g} {spread:>8.2%}  medians {diff:.2%} apart, bound {bound:.0%}"
        if diff > bound:
            note += "  DIFFER"
            flags += 1
        if name != "setup_s" and spread > bound / 3:
            note += "  SPREAD"
            flags += 1
        print(note)
    first, again = got["1"], got["repeat"]
    digests = sorted({g[1] for g in got.values()})
    print(f"  digest {first[1]} sim_mcycles {first[2]} (seed 1); {len(digests)} distinct digests over all runs")
    if (first[1], first[2]) != (again[1], again[2]):
        print(f"  DIGEST  repeat of seed 1 printed {again[1]} sim_mcycles {again[2]}")
        flags += 1
sys.exit(1 if flags else 0)
EOF
