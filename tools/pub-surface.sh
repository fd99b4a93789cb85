#!/bin/sh
# Public surface (DESIGN §18): an item is `pub` only if something
# outside its crate names it. Prints every non-test `pub` item (fn,
# struct, enum, trait, type, const, static, mod) under crates/*/src
# whose name appears in no `.rs` file outside that crate's library —
# other crates' src, a crate's own src/bin (a binary is a crate of its
# own), crates/*/tests, tests/, examples/, src/ and pipeline_bench/src
# — then their count. Fails when the count exceeds the ceiling below,
# the count this rule reached. A name grep, not a resolver: a name
# that some other file happens to use keeps its item off the list, so
# the list is a lower bound. What stays on it is what a public
# signature or field needs (a `pub` fn's error type, a report's row
# type), which stays `pub` so a caller can name what it is handed, and
# items whose only outside user is their own doc test. "Non-test" is
# tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/pub-surface.sh [repo-root]   (default: the checkout it lives in)
set -eu
ceiling=45
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# every word of every .rs file a crate's users may write, one file per crate
find crates/*/src crates/*/tests src tests examples pipeline_bench/src \
    -name '*.rs' 2>/dev/null | sort >"$tmp/all"

total=0
for src in crates/*/src; do
    { grep -v "^$src/" "$tmp/all"; grep "^$src/bin/" "$tmp/all"; } |
        xargs cat | tr -cs 'A-Za-z0-9_' '\n' | sort -u >"$tmp/words"
    find "$src" -name '*.rs' ! -path "$src/bin/*" | sort | xargs awk -f "$rule" |
        sed -nE 's/^([^:]+:[0-9]+):[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static|mod) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \4/p' \
            >"$tmp/items"
    awk 'NR == FNR { seen[$1] = 1; next } !($2 in seen) { print $1 ": " $2 }' \
        "$tmp/words" "$tmp/items" >"$tmp/unused"
    cat "$tmp/unused"
    total=$((total + $(wc -l <"$tmp/unused")))
done

echo "pub-surface: $total pub items named nowhere outside their crate (ceiling $ceiling)"
if [ "$total" -gt "$ceiling" ]; then
    echo "pub-surface: make an item pub(crate) unless another crate, a test, an example or the benchmark names it" >&2
    exit 1
fi
