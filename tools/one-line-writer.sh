#!/bin/sh
# One line writer (DESIGN §8): a §3.4 line is written in one way,
# `KeptRecord::write_to` running the event type's line compiled once
# by `Descriptions::parse`; a `LogRecord` is that line. Fails when
# non-test code under crates/*/src or src/ matches a by-name render
# walk (`logged_fields`, `logged_header`, `logged_body` called or
# declared), `all_fields`, `to_log_record` or `feed_into` — the second
# renderers and their wrappers. "Non-test" is tools/non-test.awk,
# tools/loc.sh's rule.
#
# usage: tools/one-line-writer.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src src -name '*.rs' | sort |
    xargs awk -f "$rule" |
    grep -E 'logged_(fields|header|body) *[(<]|all_fields|to_log_record|feed_into' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-line-writer: a §3.4 line is written by KeptRecord::write_to only" >&2
    exit 1
fi
echo "one-line-writer: ok"
