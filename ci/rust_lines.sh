#!/usr/bin/env sh
# Net Rust line count, split into production and test lines, over the
# tracked *.rs files outside perfbench/ (the standalone benchmark package).
# Test lines are every line of a file under a `tests/` directory, plus each
# other file's lines from its first `#[cfg(test)]` onward (the convention
# ci/check_io_discipline.sh uses). Report only: no gate.
#
# Run from the repository root: sh ci/rust_lines.sh
set -eu

git ls-files -- '*.rs' ':(exclude)perfbench/*' | awk '
{
    file = $0
    in_test = (file ~ /(^|\/)tests\//)
    while ((getline line < file) > 0) {
        if (!in_test && line ~ /^#\[cfg\(test\)\]/) in_test = 1
        if (in_test) test++; else production++
    }
    close(file)
}
END { printf "production %d\ntest %d\ntotal %d\n", production, test, production + test }
'
