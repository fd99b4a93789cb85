#!/bin/sh
# One byte codec (DESIGN §16): fails when non-test code under
# crates/*/src spells `from_le_bytes`/`to_le_bytes` anywhere but
# crates/meter/src/wire.rs (the codec) and crates/logstore/src/crc.rs
# (the CRC's word loads). A private byte cursor cannot read an integer
# without them. "Non-test" is tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/one-codec.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src -name '*.rs' | sort | xargs awk -f "$rule" |
    grep -E '(from|to)_le_bytes' |
    grep -Ev '^crates/(meter/src/wire|logstore/src/crc)\.rs:' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-codec: bytes are read and written through dpm_meter::wire only" >&2
    exit 1
fi
echo "one-codec: ok"
