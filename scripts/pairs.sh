#!/bin/sh
# Alternating-pairs comparison of two built `ag-benchmark` binaries on one
# workload: the protocol the CHANGES.md measurement tables follow.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS [SEED]
#
# Pair i runs both binaries once each with the benchmark seed SEED
# (default 0x51AB51AB, the benchmark's own default) and the trace
# off, the parent first in odd pairs and the change first in even ones,
# so a drift of the host over time falls on both sides alike. It prints
# one line per run (the four end-to-end metrics, `correct` and `failed`),
# then per metric: both medians, the change relative to the parent's
# median, the parent's interquartile range, and in how many pairs the
# change read better. It only reads what the binaries print. A claimed
# gain should also hold on a seed the change was not tuned on: pass one
# as SEED.
#
# First it prints, for each binary, where two byte-compare loops of the
# benchmark were placed: the one inside `undecoded_nodes` (the `[Gf256]`
# `!=` that checks every node's decoded bytes after a gossip run, one byte
# an iteration: 32 KiB a node on `gossip-payload`), and the one inside
# `Workload::pass` (the same `!=` on each `decode-stream` operation's
# decoded generation, 128 KiB an operation). For each: its address, length
# and offset in its 64-byte line, and whether it straddles two lines. The
# first loop's placement alone has moved `core.verify_s` by half and
# `gossip-payload` `wall_s` by about 12 %, and the second's `decode-stream`
# `wall_s` by about 20 %, so a difference on those workloads between two
# binaries that place a loop differently is a layout reading until shown
# otherwise. It needs `nm` and `objdump`, and says so when either is
# missing.
#
# It refuses to run when RAYON_NUM_THREADS is set: the benchmark sets it to
# 2 at startup (benchmark/src/env.rs) over whatever the caller exported, so
# a comparison that relies on the caller's value compares a binary with
# itself.
set -eu
if [ -n "${RAYON_NUM_THREADS+set}" ]; then
    echo "pairs.sh: RAYON_NUM_THREADS is set ('$RAYON_NUM_THREADS'), but the benchmark" \
        "pins it to 2 at startup (benchmark/src/env.rs) whatever the caller set, so" \
        "both sides would run 2 threads; unset it, and build a variant binary to" \
        "compare thread counts" >&2
    exit 2
fi
usage() {
    echo "usage: scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS [SEED]" >&2
    exit 2
}
[ $# -eq 5 ] || [ $# -eq 6 ] || usage
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5 seed=${6:-0x51AB51AB}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "pairs.sh: $bin is not an executable" >&2; exit 2; }
done
runs=$(mktemp) err=$(mktemp)
trap 'rm -f "$runs" "$err"' EXIT

# verify_loop SIDE BIN SYMBOL LABEL: where BIN placed the byte loop of the
# function whose symbol matches SYMBOL: the first backward jump in that
# function whose target loads a byte. LABEL names the loop in the output.
verify_loop() {
    if ! command -v nm >/dev/null || ! command -v objdump >/dev/null; then
        echo "$4  $1: needs nm and objdump"
        return
    fi
    sym=$(nm -S "$2" 2>/dev/null | awk -v pat="$3" '$0 ~ pat { print $1, $2; exit }')
    if [ -z "$sym" ]; then
        echo "$4  $1: no $3 symbol"
        return
    fi
    # shellcheck disable=SC2086 # two words: address and size
    set -- "$1" "$2" $sym "$4"
    objdump -d --no-show-raw-insn --start-address="$((0x$3))" \
        --stop-address="$((0x$3 + 0x$4))" "$2" | awk -v side="$1" -v label="$5" '
        function hex(s,    n, i) {
            n = 0
            for (i = 1; i <= length(s); i++)
                n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return n
        }
        /^ *[0-9a-f]+:\t/ {
            split($0, f, "\t")
            sub(/^ */, "", f[1])
            addr = hex(substr(f[1], 1, length(f[1]) - 1))
            if (open) { end = addr; open = 0 }
            split(f[2], w, " ")
            op[addr] = w[1]
            if (!start && w[1] ~ /^j/ && w[2] ~ /^[0-9a-f]+$/) {
                to = hex(w[2])
                if (to < addr && op[to] ~ /^movzb/) { start = to; open = 1 }
            }
        }
        END {
            if (!end) { printf "%s  %s: not found\n", label, side; exit }
            line = start % 64
            fits = line + end - start <= 64 ? "within one line" : "STRADDLES a 64-byte line"
            printf "%s  %-6s  0x%x  %d bytes  line offset 0x%02x  %s\n", label, side,
                start, end - start, line, fits
        }'
}
verify_loop parent "$parent" undecoded_nodes "verify loop"
verify_loop change "$change" undecoded_nodes "verify loop"
verify_loop parent "$parent" Workload4pass "decode loop"
verify_loop change "$change" Workload4pass "decode loop"
echo

# run PAIR SIDE BIN: one benchmark process; appends its row to $runs.
run() {
    if ! out=$("$3" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 2>"$err"); then
        echo "pairs.sh: the $2 run of pair $1 failed:" >&2
        cat "$err" >&2
        exit 1
    fi
    printf '%s\n' "$out" | awk -v pair="$1" -v side="$2" '
        function field(key,    at) {
            if (!match($0, "\"" key "\":(\\{\"value\":)?[^,}]*")) return "?"
            at = substr($0, RSTART, RLENGTH)
            sub(/.*:/, "", at)
            return at
        }
        /^\{/ {
            printf "%s %s %s %s %s %s %s %s\n", pair, side, field("wall_s"),
                field("slots_per_s"), field("setup_s"), field("peak_rss_mib"),
                field("correct"), field("failed")
            found = 1
        }
        END { if (!found) exit 1 }' >>"$runs" || {
        echo "pairs.sh: the $2 run of pair $1 printed no result line" >&2
        exit 1
    }
    tail -n 1 "$runs" | awk '{ printf "%4s  %-6s  %10.4f  %14.1f  %10.6f  %12.2f  %-7s  %s\n",
        $1, $2, $3, $4, $5, $6, $7, $8 }'
}

printf '%4s  %-6s  %10s  %14s  %10s  %12s  %-7s  %s\n' \
    pair run wall_s slots_per_s setup_s peak_rss_mib correct failed
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$i" parent "$parent"
        run "$i" change "$change"
    else
        run "$i" change "$change"
        run "$i" parent "$parent"
    fi
    i=$((i + 1))
done

echo
awk -v pairs="$pairs" '
    # Sorts a[1..n] ascending (insertion sort: a few dozen values).
    function sort(a, n,    i, j, x) {
        for (i = 2; i <= n; i++) {
            x = a[i]
            for (j = i - 1; j > 0 && a[j] > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
    }
    # The q-quantile of sorted a[1..n], linearly interpolated.
    function quantile(a, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    { for (m = 1; m <= 4; m++) v[$2, $1, m] = $(m + 2) }
    END {
        split("wall_s slots_per_s setup_s peak_rss_mib", name, " ")
        split("lower higher lower lower", better, " ")
        printf "%-13s  %14s  %14s  %8s  %12s  %s\n", "metric", "parent_median",
            "change_median", "change", "parent_iqr", "change_better"
        for (m = 1; m <= 4; m++) {
            wins = 0
            for (p = 1; p <= pairs; p++) {
                par[p] = v["parent", p, m]
                chg[p] = v["change", p, m]
                if (better[m] == "lower" ? chg[p] < par[p] : chg[p] > par[p]) wins++
            }
            sort(par, pairs)
            sort(chg, pairs)
            pm = quantile(par, pairs, 0.5)
            cm = quantile(chg, pairs, 0.5)
            rel = pm == 0 ? 0 : 100 * (cm - pm) / pm
            printf "%-13s  %14.6g  %14.6g  %+7.1f%%  %12.6g  %d/%d\n", name[m], pm, cm,
                rel, quantile(par, pairs, 0.75) - quantile(par, pairs, 0.25), wins, pairs
        }
    }' "$runs"
