#!/bin/sh
# Non-test lines per crate: in every .rs file under <crate>/src, the lines
# before the first top-level `#[cfg(test)] mod`. This is the measure
# ROADMAP item 6 and the CHANGES.md size tables use; counting by hand has
# disagreed with itself.
#
#   scripts/loc.sh crates/core crates/rlnc    # named crates and their sum
#   scripts/loc.sh                            # every crate under crates/
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*
total=0
for crate; do
    crate=${crate%/}
    [ -d "$crate/src" ] || { echo "loc.sh: no $crate/src" >&2; exit 2; }
    lines=$(find "$crate/src" -name '*.rs' | while read -r file; do
        awk '/^#\[cfg\(test\)\]$/ { attr = NR; next }
             attr && attr == NR - 1 && /^(pub )?mod / { print attr - 1; cut = 1; exit }
             END { if (!cut) print NR }' "$file"
    done | awk '{ sum += $1 } END { print sum + 0 }')
    printf '%6d  %s/src\n' "$lines" "$crate"
    total=$((total + lines))
done
[ $# -eq 1 ] || printf '%6d  total\n' "$total"
