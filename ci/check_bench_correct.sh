#!/usr/bin/env sh
# Benchmark correctness smoke: runs one perfbench workload and fails unless
# its final line reports "correct":true and "failed":0. A broken traced
# ledger, a failed reference check or a failed request then stops CI, not
# only the benchmark pipeline.
#
# Run from the repository root:
#   sh ci/check_bench_correct.sh <workload> <seconds> <trace>
set -eu

if [ "$#" -ne 3 ]; then
    echo "usage: sh ci/check_bench_correct.sh <workload> <seconds> <trace>" >&2
    exit 2
fi
workload=$1
seconds=$2
trace=$3

out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace "$trace")
printf '%s\n' "$out"
result=$(printf '%s\n' "$out" | tail -n 1)
case $result in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "check_bench_correct: $workload --trace $trace: final line lacks \"correct\":true and \"failed\":0" >&2
        exit 1
        ;;
esac
