#!/bin/sh
# Non-test lines of Rust per crate — the one counting rule behind
# ROADMAP item 4's ">= 15 % fewer non-test lines".
#
# Counted: lines of crates/*/src/**/*.rs and src/*.rs (the root crate,
# listed as "dpm") that tools/non-test.awk lets through — no blank
# lines, no comment-only lines, no `#[cfg(test)]` modules.
#
# usage: tools/loc.sh [repo-root]     (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

count() {
    # $@ = files; prints the counted lines
    [ $# -gt 0 ] || { echo 0; return; }
    awk -f "$rule" "$@" | wc -l
}

total=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    case $dir in
        src) name=dpm; files=$(find src -maxdepth 1 -name '*.rs' | sort) ;;
        *) name=$(basename "$(dirname "$dir")"); files=$(find "$dir" -name '*.rs' | sort) ;;
    esac
    # shellcheck disable=SC2086
    n=$(count $files)
    printf '%-14s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
