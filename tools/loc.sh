#!/bin/sh
# Non-test lines of Rust per crate — the one counting rule behind
# ROADMAP item 4's ">= 15 % fewer non-test lines".
#
# Counted: lines of crates/*/src/**/*.rs and src/*.rs (the root crate,
# listed as "dpm"). Not counted: blank lines, comment-only lines
# (first non-blank characters are `//`), and everything from a
# top-level `#[cfg(test)]` + `mod … {` to its closing `}` in column 0
# (the tree is rustfmt-formatted, so that is the module's end).
#
# usage: tools/loc.sh [repo-root]     (default: the checkout it lives in)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

count() {
    # $@ = files; prints the counted lines
    [ $# -gt 0 ] || { echo 0; return; }
    awk '
        FNR == 1 { pending = 0; skipping = 0 }
        skipping { if ($0 ~ /^}/) skipping = 0; next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^(pub )?mod [a-z_0-9]+ \{/ { pending = 0; skipping = 1; next }
        pending && /^#\[/ { next }
        { pending = 0 }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@"
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
