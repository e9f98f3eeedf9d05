#!/usr/bin/env sh
# Benchmark correctness smoke: runs one perfbench workload and fails unless
# its final line reports "correct":true and "failed":0. A broken traced
# ledger, a failed reference check or a failed request then stops CI, not
# only the benchmark pipeline. With the optional fourth argument it also
# fails when the final line's peak_rss_mb exceeds that many MB.
#
# Run from the repository root:
#   sh ci/check_bench_correct.sh <workload> <seconds> <trace> [max_peak_rss_mb]
set -eu

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    echo "usage: sh ci/check_bench_correct.sh <workload> <seconds> <trace> [max_peak_rss_mb]" >&2
    exit 2
fi
workload=$1
seconds=$2
trace=$3
max_rss=${4:-}

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

if [ -n "$max_rss" ]; then
    printf '%s\n' "$result" | python3 -c '
import json, sys
limit = float(sys.argv[1])
metric = json.loads(sys.stdin.read())["metrics"].get("peak_rss_mb")
if metric is None:
    sys.exit("check_bench_correct: final line has no peak_rss_mb")
peak = metric["value"]
if peak > limit:
    sys.exit("check_bench_correct: peak_rss_mb %.1f exceeds %g MB" % (peak, limit))
print("check_bench_correct: peak_rss_mb %.1f <= %g MB" % (peak, limit))
' "$max_rss"
fi
