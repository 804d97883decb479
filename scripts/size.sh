#!/bin/sh
# Prints the number of non-test lines under crates/*/src: each .rs file's
# lines before its first `#[cfg(test)]`, the rule the public-item census
# (crates/bench/tests/census.rs) reads the tree by.
#
#   sh scripts/size.sh          # this checkout
#   sh scripts/size.sh DIR      # another checkout
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { lines++ }
    END { print lines + 0 }
' {} + | awk '{ total += $1 } END { print total }'
