#!/bin/sh
# One matcher (DESIGN §8): a record is matched against the templates
# in one way, by the table `Rules` compiles once per event type, each
# condition resolved to its field's place in the record. Fails when
# non-test code under crates/*/src or src/ declares or calls a by-name
# field lookup on the record path — a `fn lookup(` over a record or
# descriptions (or with its parameters on the lines below),
# `match_condition`, `FieldValue` or `fn field(&self, record` — the
# interpreter the table replaced. A `lookup` of something else (the
# network's host registry) passes. "Non-test" is tools/non-test.awk,
# tools/loc.sh's rule.
#
# usage: tools/one-matcher.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src src -name '*.rs' | sort |
    xargs awk -f "$rule" |
    grep -E 'fn lookup *\(([^)]*(record|Descriptions)|$)|match_condition|FieldValue|fn field *\(&self, *record' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-matcher: a record is matched by the compiled rules only" >&2
    exit 1
fi
echo "one-matcher: ok"
