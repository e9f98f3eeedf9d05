#!/usr/bin/env sh
# Knob gate: crates/core/src/knobs.rs is the one place the process
# environment is read. Every runtime RESCACHE_* knob is parsed there,
# strictly and once per process. This check fails if a `std::env::var` /
# `var_os` read appears anywhere else in the non-test region (everything
# before the first `#[cfg(test)]`) of the library, bench and example
# sources. Test files may read the environment (fixture blessing, worker
# hand-off).
#
# Run from the repository root: sh ci/check_knobs.sh
set -eu

hits=$(
    find crates/*/src crates/*/benches crates/*/examples src examples \
        -name '*.rs' -type f 2>/dev/null | sort | while read -r file; do
        [ "$file" = crates/core/src/knobs.rs ] && continue
        awk '/^#\[cfg\(test\)\]/ { exit } /env::var/ { printf "%s:%d: %s\n", FILENAME, NR, $0 }' "$file"
    done
)

if [ -n "$hits" ]; then
    echo "check_knobs: environment read outside crates/core/src/knobs.rs:" >&2
    echo "$hits" >&2
    echo "check_knobs: FAILED — add the variable to Knobs and read it from there" >&2
    exit 1
fi
echo "check_knobs: OK"
