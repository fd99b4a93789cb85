#!/bin/sh
# One dedup (DESIGN §10): every stage that must not count a meter
# record twice asks dpm_meter::SeqWindow, the bounded per-process
# anti-replay window. Fails when non-test code under crates/*/src
# outside crates/meter/src spells `HashSet<(u16, u32, u32)>` (a
# private seen-set of every (machine, pid, seq)) or
# `HashMap<(u16, u32), u32>` (a private per-process watermark).
# "Non-test" is tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/one-dedup.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src -name '*.rs' | grep -v '^crates/meter/src/' | sort |
    xargs awk -f "$rule" |
    grep -E 'HashSet<\(u16, u32, u32\)>|HashMap<\(u16, u32\), u32>' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-dedup: records are deduplicated through dpm_meter::SeqWindow only" >&2
    exit 1
fi
echo "one-dedup: ok"
