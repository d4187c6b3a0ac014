#!/usr/bin/env bash
# Prints the non-test line count of every crate: for each `crates/*/src`,
# the lines of its `.rs` files that come before each file's first
# `#[cfg(test)]` (a whole file when it has none), then the total. This is
# the net line count a change reports. Run from anywhere in the repo:
#
#   scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%7d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
