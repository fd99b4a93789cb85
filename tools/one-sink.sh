#!/bin/sh
# One log sink (DESIGN §17): the standard filter keeps records in the
# binary store and the §3.4 text is a view `getlog` renders. Fails when
# non-test code under crates/*/src spells `store_log`, `mode_arg`,
# `AggSink` or a `"mode"` key arm, or constructs `ShardLog::Text`
# anywhere but crates/filter/src/shard.rs (the library's
# render-to-a-closure sink). "Non-test" is tools/non-test.awk,
# tools/loc.sh's rule.
#
# usage: tools/one-sink.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

code=$(find crates/*/src -name '*.rs' | sort | xargs awk -f "$rule")
hits=$(printf '%s\n' "$code" | grep -E 'store_log|mode_arg|AggSink|"mode" *=>' || true)
text=$(printf '%s\n' "$code" | grep -F 'ShardLog::Text(' |
    grep -v '^crates/filter/src/shard\.rs:' || true)
if [ -n "$hits$text" ]; then
    printf '%s\n' "$hits" "$text" | sed '/^$/d'
    echo "one-sink: the log is the store; text is rendered by getlog, not selected by an option" >&2
    exit 1
fi
echo "one-sink: ok"
