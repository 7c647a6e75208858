#!/bin/sh
# Mutation check for the exact-chain oracle (tests/exact_chain.rs): each
# tests/mutants/*.patch is applied to HEAD in a temporary git worktree, and
# `cargo test --test exact_chain` must fail there. A mutant that does not
# build is reported as broken. Exits non-zero if any mutant survives or is
# broken; commit before running, since the worktree is checked out from HEAD.
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
for patch in tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    git -C "$tree" checkout -q -- .
    if ! git -C "$tree" apply "$root/$patch"; then
        echo "broken    $name (does not apply)"
        failed=1
    elif ! (cd "$tree" && cargo test -q --test exact_chain --no-run) >/dev/null 2>&1; then
        echo "broken    $name (does not build)"
        failed=1
    elif (cd "$tree" && cargo test -q --test exact_chain) >/dev/null 2>&1; then
        echo "SURVIVED  $name"
        failed=1
    else
        echo "killed    $name"
    fi
done
exit "$failed"
