#!/usr/bin/env sh
# Paired A/B of a change against its parent. Reports only; gates nothing.
#
# Exports both commits with `git archive` into a scratch directory (each
# side gets its own cargo target directory there, and the repository's own
# checkout and .git are not touched), builds them, then runs the two sides
# in alternating pairs: the parent first in odd pairs, the change first in
# even ones. Each pair runs `perfbench/run.py --trace 0` (unchanged) for
# the checkout's BENCHMARK.json `run_seconds` and the `sim_throughput`
# bench once per side; the `figures` kind runs each side's figure benches
# at the caller's RESCACHE_WARMUP/RESCACHE_MEASURE. A side's figure benches
# are the `[[bench]]` targets of its own crates/bench/Cargo.toml other than
# `sim_throughput` and `ablation`, so a revision with one `paper` bench is
# compared with one that printed each figure from its own bench.
# Each bench binary runs as the only child of its own python3 process,
# which reads the bench's peak RSS (MiB) and CPU seconds from
# getrusage(RUSAGE_CHILDREN) and times its wall seconds. For every
# perfbench end-to-end metric, every sim_throughput stage median, every
# figure bench `completed in` line and every bench's peak RSS, CPU and
# wall time it prints each side's median and quartiles, the change/parent
# ratio (median, min and max over the pairs) and how many pairs the change
# won and tied (a tie counts as neither). A row only one side has (a bench
# the other side does not build) prints that side's median and quartiles
# alone. The figures kind also compares per-side totals over all figure
# benches: `figures: wall_s` and `figures: cpu_s` (sums) and
# `figures: peak_rss_mb` (the largest bench's peak).
#
# Run from the repository root:
#   sh ci/paired_ab.sh [-p PARENT] [-c CHANGE] [-n PAIRS] [-w WORKLOAD]
#                      [-s "SEED ..."] [-d SCRATCH] [-k KINDS]
#
#   PARENT    parent revision (default HEAD~1)
#   CHANGE    changed revision (default HEAD)
#   PAIRS     number of pairs, at least 5 (default 5)
#   WORKLOAD  perfbench workload (default fig5_paper)
#   SEED      perfbench seeds, used in turn by successive pairs (default 1)
#   SCRATCH   work directory (default ${TMPDIR:-/tmp}/rescache-paired-ab);
#             its results/ and both source trees are replaced, and a side's
#             target directory is kept only while its revision is the same
#   KINDS     any of "perfbench sim_throughput figures" (default
#             "perfbench sim_throughput")
set -eu

parent=HEAD~1
change=HEAD
pairs=5
workload=fig5_paper
seeds=1
scratch=${TMPDIR:-/tmp}/rescache-paired-ab
kinds="perfbench sim_throughput"
while getopts p:c:n:w:s:d:k: opt; do
    case $opt in
        p) parent=$OPTARG ;;
        c) change=$OPTARG ;;
        n) pairs=$OPTARG ;;
        w) workload=$OPTARG ;;
        s) seeds=$OPTARG ;;
        d) scratch=$OPTARG ;;
        k) kinds=$OPTARG ;;
        *) echo "usage: sh ci/paired_ab.sh [-p PARENT] [-c CHANGE] [-n PAIRS] [-w WORKLOAD] [-s SEEDS] [-d SCRATCH] [-k KINDS]" >&2
           exit 2 ;;
    esac
done
if [ "$pairs" -lt 5 ]; then
    echo "paired_ab: at least 5 pairs are needed, got $pairs" >&2
    exit 2
fi

repo=$(pwd)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")
# The figure benches of one exported tree: every `[[bench]]` target of its
# crates/bench/Cargo.toml except `sim_throughput` and `ablation`.
figure_benches() {
    awk '/^\[\[bench\]\]/ { bench = 1; next }
        bench && /^name *=/ {
            gsub(/^name *= *"|".*$/, "")
            if ($0 != "sim_throughput" && $0 != "ablation") print
            bench = 0
        }' "$1/crates/bench/Cargo.toml"
}
# Runs one bench binary (argv: bench name and executable) and prints
# "<bench>: <label><TAB><value>" lines: one per `completed in` line, then
# the process's peak RSS, CPU seconds and wall seconds. The bench is this
# process's only child, so RUSAGE_CHILDREN is the bench's own usage.
bench_run='
import re, resource, subprocess, sys, time
bench, exe = sys.argv[1], sys.argv[2]
start = time.monotonic()
out = subprocess.run([exe, "--bench"], stdout=subprocess.PIPE, text=True, check=True).stdout
wall = time.monotonic() - start
lines = re.findall(r"^\[(.*): completed in ([0-9.]+) s\]$", out, re.M)
for label, secs in lines:
    print(f"{bench}: {label}\t{secs}")
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"{bench}: peak_rss_mb\t{usage.ru_maxrss / 1024:.1f}")
print(f"{bench}: cpu_s\t{usage.ru_utime + usage.ru_stime:.2f}")
print(f"{bench}: wall_s\t{wall:.2f}")
'
# The executable `cargo bench` built for one bench target.
bench_exe() {
    cargo bench --offline --quiet --bench "$1" --no-run --message-format=json |
        python3 -c 'import json, sys
for line in sys.stdin:
    exe = json.loads(line).get("executable")
    if exe:
        print(exe)'
}
rm -rf "$scratch/results"
mkdir -p "$scratch/results"
for side in parent change; do
    eval rev=\$$side
    sha=$(git -C "$repo" rev-parse "$rev")
    # An archive stamps every file with its commit's time, so a target
    # directory built from another revision could look newer than the
    # sources and never rebuild: it is kept only for the same revision.
    if [ "$(cat "$scratch/$side/rev" 2>/dev/null || true)" != "$sha" ]; then
        rm -rf "$scratch/$side"
    fi
    rm -rf "$scratch/$side/tree"
    mkdir -p "$scratch/$side/tree"
    git -C "$repo" archive "$sha" | tar -x -C "$scratch/$side/tree"
    echo "$sha" > "$scratch/$side/rev"
    echo "paired_ab: $side = $(git -C "$repo" rev-parse --short "$sha")" >&2
done

# Builds each side's binaries once, outside the timed runs.
for side in parent change; do
    (
        cd "$scratch/$side/tree"
        export CARGO_TARGET_DIR="$scratch/$side/target"
        for kind in $kinds; do
            case $kind in
                perfbench) cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml ;;
                sim_throughput) cargo bench --offline --quiet --bench sim_throughput --no-run ;;
                figures) for bench in $(figure_benches .); do
                        cargo bench --offline --quiet --bench "$bench" --no-run
                    done ;;
                *) echo "paired_ab: unknown kind $kind" >&2; exit 2 ;;
            esac
        done
    ) >&2
done

# run_side <side> <pair> <seed>: one run of every kind on one side.
run_side() {
    (
        cd "$scratch/$1/tree"
        export CARGO_TARGET_DIR="$scratch/$1/target"
        for kind in $kinds; do
            out="$scratch/results/$1-$kind-$2.json"
            case $kind in
                perfbench)
                    python3 perfbench/run.py --workload "$workload" --seed "$3" \
                        --seconds "$seconds" --trace 0 | tail -n 1 > "$out" ;;
                sim_throughput)
                    # The harness rewrites BENCH_sim_throughput.json at the
                    # root of the tree it was built from.
                    python3 -c "$bench_run" sim_throughput "$(bench_exe sim_throughput)" \
                        > "${out%.json}.tsv"
                    cp BENCH_sim_throughput.json "$out" ;;
                figures)
                    for bench in $(figure_benches .); do
                        python3 -c "$bench_run" "$bench" "$(bench_exe "$bench")"
                    done > "${out%.json}.tsv"
                    # A bench may time nothing (an older side's `table1`),
                    # but a side's figure benches together must.
                    if ! grep -qvE ': (peak_rss_mb|cpu_s|wall_s)	' "${out%.json}.tsv"; then
                        echo "paired_ab: the $1 figure benches printed no completed-in line" >&2
                        exit 1
                    fi ;;
            esac
        done
    )
}

i=1
while [ "$i" -le "$pairs" ]; do
    # Seeds are used in turn: pair i takes the ((i - 1) mod count)-th.
    set -- $seeds
    shift $(( (i - 1) % $# ))
    seed=$1
    echo "paired_ab: pair $i of $pairs (seed $seed)" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$i" "$seed"
        run_side change "$i" "$seed"
    else
        run_side change "$i" "$seed"
        run_side parent "$i" "$seed"
    fi
    i=$((i + 1))
done

python3 - "$scratch/results" "$pairs" "$kinds" "$repo/BENCHMARK.json" <<'EOF'
import json
import os
import statistics
import sys

results, pairs, kinds, benchmark = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(), sys.argv[4]
better = {m["name"]: m["better"] for m in json.load(open(benchmark))["end_to_end"]}


def load_usage(side, kind, i):
    with open(os.path.join(results, f"{side}-{kind}-{i}.tsv")) as f:
        return {name: float(value) for name, value in (line.rstrip("\n").split("\t") for line in f)}


def load(side, kind, i):
    if kind == "figures":
        values = load_usage(side, kind, i)
        column = lambda metric: [v for k, v in values.items() if k.endswith(f": {metric}")]
        totals = {
            "figures: wall_s": sum(column("wall_s")),
            "figures: cpu_s": sum(column("cpu_s")),
            "figures: peak_rss_mb": max(column("peak_rss_mb")),
        }
        values.update(totals)
        return values
    with open(os.path.join(results, f"{side}-{kind}-{i}.json")) as f:
        data = json.load(f)
    if kind == "perfbench":
        values = {k: v["value"] for k, v in data["metrics"].items()}
        values["correct"] = 1.0 if data.get("correct") and data.get("failed") == 0 else 0.0
        return values
    values = {s["name"]: s["median_s"] for s in data["engines"]}
    values.update(load_usage(side, kind, i))
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}]"


for kind in kinds:
    runs = {side: [load(side, kind, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    print(f"== {kind}: {pairs} pairs; per side median [q1, q3]; change/parent ratio median (min, max); pairs won and tied")
    if kind == "perfbench":
        for side, side_runs in runs.items():
            ok = sum(int(r.pop("correct")) for r in side_runs)
            print(f"{side}: correct:true and failed:0 in {ok} of {pairs} runs")
    names = list(dict.fromkeys(name for side in runs.values() for name in side[0]))
    for name in names:
        present = [side for side, side_runs in runs.items() if all(name in r for r in side_runs)]
        if len(present) == 1:
            side = present[0]
            print(f"{name:24} {side} only {spread([r[name] for r in runs[side]])}")
            continue
        if not present:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        lower = better.get(name, "lower") == "lower"
        ratios = [c / p for p, c in zip(parent, change) if p]
        won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        tied = sum(1 for p, c in zip(parent, change) if c == p)
        ratio = (
            f"{statistics.median(ratios):.4f} ({min(ratios):.4f}, {max(ratios):.4f})"
            if ratios
            else "n/a"
        )
        print(
            f"{name:24} parent {spread(parent)}  change {spread(change)}  "
            f"ratio {ratio}  won {won}/{pairs}, tied {tied} ({'lower' if lower else 'higher'} is better)"
        )
EOF
