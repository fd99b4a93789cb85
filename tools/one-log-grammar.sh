#!/bin/sh
# One log grammar (DESIGN §9): the §3.4 text line is tokenized in one
# place, `LogRecord::tokens` in crates/filter/src/log.rs, and everything
# that reads log text goes through it. Fails when non-test code under
# crates/*/src or src/ outside that file calls `LogRecord::parse` or
# `parse_log`, or defines an `unescape` — what a second parser of the
# text cannot be written without. "Non-test" is tools/non-test.awk,
# tools/loc.sh's rule.
#
# usage: tools/one-log-grammar.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/*/src src -name '*.rs' | grep -v '^crates/filter/src/log\.rs$' | sort |
    xargs awk -f "$rule" |
    grep -E 'LogRecord::parse([^_[:alnum:]]|$)|parse_log|fn +unescape([^_[:alnum:]]|$)' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-log-grammar: log text is read through LogRecord::tokens only" >&2
    exit 1
fi
echo "one-log-grammar: ok"
