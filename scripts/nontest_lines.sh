#!/usr/bin/env bash
# Prints non-test line counts: for each directory, the lines of its `.rs`
# files (searched recursively) that come before each file's first
# `#[cfg(test)]` (a whole file when it has none), then the total. This is
# the net line count a change reports. With no arguments it counts every
# `crates/*/src`; directories given as arguments are taken relative to the
# repo root. Run from anywhere in the repo:
#
#   scripts/nontest_lines.sh                          # every crate
#   scripts/nontest_lines.sh crates/sim/src/serving   # one directory
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- crates/*/src
fi
total=0
for src in "$@"; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
