#!/usr/bin/env sh
# I/O discipline gate: the store/codec layers must never unwrap or expect
# an I/O result — every filesystem failure has a typed recovery path
# (a failed load regenerates, a failed save degrades the store to
# in-memory operation). This check
# scans the non-test region of each file (everything before the first
# `#[cfg(test)]`) for `.unwrap()` / `.expect(`; poison-recovery idioms
# such as `.unwrap_or_else(PoisonError::into_inner)` are intentionally
# not matched.
#
# Run from the repository root: sh ci/check_io_discipline.sh
set -eu

status=0
for file in \
    crates/trace/src/codec.rs \
    crates/core/src/experiment/trace_store.rs \
    crates/core/src/experiment/shared_tier.rs \
    crates/core/src/experiment/server/mod.rs \
    crates/core/src/experiment/server/protocol.rs \
    crates/core/src/experiment/server/connection.rs \
    crates/core/src/experiment/server/dispatch.rs \
    crates/core/src/json.rs \
    crates/core/src/knobs.rs
do
    if [ ! -f "$file" ]; then
        echo "check_io_discipline: missing $file" >&2
        status=1
        continue
    fi
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /\.unwrap\(\)|\.expect\(/ { printf "%s:%d: %s\n", FILENAME, NR, $0 }' "$file")
    if [ -n "$hits" ]; then
        echo "check_io_discipline: unwrap/expect in the I/O path of $file:" >&2
        echo "$hits" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "check_io_discipline: FAILED — return a typed error and let the store regenerate or degrade instead" >&2
else
    echo "check_io_discipline: OK"
fi
exit "$status"
