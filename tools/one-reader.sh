#!/bin/sh
# One store reader (DESIGN §13): a store is listed, read and tailed
# through dpm-logstore's `list_segments` / `StoreReader::load` /
# `StoreTail::poll` over a `StoreSource`, wherever its files live.
# Fails when non-test code under crates/*/src outside
# crates/logstore/src spells `seg_ids_of`, `offer_segment(`,
# `decode_frame(`, `from_segment_bytes` or `from_named_segment_bytes` —
# what a private copy of the listing, the sealed-segment rule, the
# cursor walk or the frame decode cannot be written without.
# "Non-test" is tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/one-reader.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src -name '*.rs' | grep -v '^crates/logstore/src/' | sort |
    xargs awk -f "$rule" |
    grep -E 'seg_ids_of|offer_segment\(|decode_frame\(|from_(named_)?segment_bytes' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-reader: stores are read through dpm-logstore's load/poll over a StoreSource only" >&2
    exit 1
fi
echo "one-reader: ok"
