#!/bin/sh
# One layout (DESIGN §16): each wire message — Appendix A's meter
# bodies (crates/meter/src/msg.rs), the Fig. 3.6 daemon RPC
# (crates/meterd/src/proto.rs) and the control log's events
# (crates/controlplane/src/event.rs) — is described once, as a
# `layout!` list of `dpm_meter::wire` leaves, and its encoder and
# decoder both follow from that list. Fails when non-test code in those
# files takes a `Reader<`/`Writer<` parameter anywhere but in a custom
# leaf's one `put`/`get` pair, or calls the cursor itself (`.u32(`,
# `.str(x`, `.bytes(x`, `.count(x`, `.take(x`, `.raw(`, `.patch_u32(`):
# a second, hand-written walk of a layout. A custom leaf is written
# through other leaves. "Non-test" is tools/non-test.awk, tools/loc.sh's
# rule.
#
# usage: tools/one-layout.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

files="crates/meter/src/msg.rs crates/meterd/src/proto.rs crates/controlplane/src/event.rs"
# shellcheck disable=SC2086
lines=$(awk -f "$rule" $files)
params=$(echo "$lines" | grep -E ': *&(mut )?(wire::)?(Reader|Writer)<' |
    grep -Ev '^[^:]+:[0-9]+: *fn (put|get)\(' || true)
calls=$(echo "$lines" |
    grep -E '\.(u8|u16|u32|u64|raw|patch_u32)\(|\.(str|bytes|count|take)\([^)]' || true)
if [ -n "$params$calls" ]; then
    [ -z "$params" ] || echo "$params"
    [ -z "$calls" ] || echo "$calls"
    echo "one-layout: a message is encoded and decoded from its one layout! list only" >&2
    exit 1
fi
echo "one-layout: ok"
