#!/bin/sh
# No host clock on the record path (ROADMAP aims 2-3): what the meter,
# the filters, the store, the live engine and the analysis decide about
# a record may depend on virtual time and on the records themselves,
# never on how fast the host ran. Fails when non-test code under
# crates/{meter,filter,logstore,live,analysis}/src spells
# `Instant::now`, `SystemTime` or `thread::sleep`.
# "Non-test" is tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/record-path-clock.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/meter/src crates/filter/src crates/logstore/src crates/live/src \
    crates/analysis/src -name '*.rs' | sort |
    xargs awk -f "$rule" |
    grep -E 'Instant::now|SystemTime|thread::sleep' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "record-path-clock: the record path reads no host clock and never sleeps" >&2
    exit 1
fi
echo "record-path-clock: ok"
