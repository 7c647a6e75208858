#!/bin/sh
# Mutation check: each tests/mutants/*.patch is a deliberate bug, and its
# first line names the cargo test that must catch it, e.g.
#
#   # must-fail: -p algebraic-gossip --test alloc_audit
#
# (git apply skips that line as preamble). Each patch is applied to HEAD in
# a temporary git worktree and `cargo test -q <those arguments>` runs there
# under a 900-second `timeout`. A failing run is `killed`; a run the
# timeout ends is `killed (stalled)`, since a mutant that keeps a gossip
# run from completing hangs its test rather than failing it; a passing run
# is `SURVIVED`. A patch without a must-fail line, or one that does not
# apply or build, is `broken`. Prints one line per mutant (verdict, mutant,
# test) and exits non-zero if any mutant survives or is broken. Commit
# before running, since the worktree is checked out from HEAD.
#
# Mutant builds share CARGO_TARGET_DIR (default target/mutants), so only
# the first one compiles the workspace from scratch.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"
work=$(mktemp -d)
tree="$work/tree"
trap 'git -C "$root" worktree remove --force "$tree" 2>/dev/null; rm -rf "$work"' EXIT
git worktree add --detach -q "$tree" HEAD
failed=0
report() {
    printf '%-17s %-38s %s\n' "$1" "$name" "$args"
}
for patch in "$root"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    args=$(sed -n '1s/^# must-fail: //p' "$patch")
    git -C "$tree" checkout -q -- .
    if [ -z "$args" ]; then
        report "broken"
        echo "    (no '# must-fail:' first line)"
        failed=1
        continue
    fi
    # $args is split into words on purpose: it is a cargo argument list.
    # shellcheck disable=SC2086
    if ! git -C "$tree" apply "$patch"; then
        report "broken"
        echo "    (does not apply)"
        failed=1
    elif ! (cd "$tree" && cargo test -q $args --no-run) >/dev/null 2>&1; then
        report "broken"
        echo "    (does not build)"
        failed=1
    else
        status=0
        (cd "$tree" && timeout -k 10 900 cargo test -q $args) >/dev/null 2>&1 || status=$?
        case $status in
            0) report "SURVIVED"; failed=1 ;;
            124 | 137) report "killed (stalled)" ;;
            *) report "killed" ;;
        esac
    fi
done
exit "$failed"
