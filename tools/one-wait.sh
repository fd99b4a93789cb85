#!/bin/sh
# One way to wait (DESIGN §2): a finished run's trace is read through
# Simulation::getlog, which drains its filters exactly
# (Machine::wait_drained), not by re-reading until two reads agree.
# Fails when `stable_log` appears in a .rs file under crates/ src/
# tests/ examples/ or in README.md, or when a file of non-test code
# under crates/*/src outside crates/workloads has more `thread::sleep`
# calls than its allowance below. "Non-test" is tools/non-test.awk,
# tools/loc.sh's rule.
#
# usage: tools/one-wait.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

# The sleeps still allowed: dpm-bench's connect retry, `watch`'s
# interval=, meterd's virtual-time reply poll and its SIGCHLD watcher
# with no children, and connect back-off.
allowance() {
    case $1 in
        crates/bench/src/lib.rs) echo 1 ;;
        crates/controller/src/session.rs) echo 1 ;;
        crates/meterd/src/daemon.rs) echo 2 ;;
        crates/simos/src/backoff.rs) echo 1 ;;
        *) echo 0 ;;
    esac
}

guesses=$({
    grep -rn --include='*.rs' 'stable_log' crates src tests examples || true
    grep -n 'stable_log' README.md | sed 's/^/README.md:/' || true
})
sleeps=$(find crates/*/src -name '*.rs' | grep -v '^crates/workloads/' | sort |
    xargs awk -f "$rule" | grep 'thread::sleep' | cut -d: -f1 | sort | uniq -c |
    while read -r n file; do
        allowed=$(allowance "$file")
        [ "$n" -le "$allowed" ] || echo "$file: $n thread::sleep > $allowed"
    done)
if [ -n "$guesses$sleeps" ]; then
    [ -z "$guesses" ] || echo "$guesses"
    [ -z "$sleeps" ] || echo "$sleeps"
    echo "one-wait: wait through Simulation::getlog / Machine::wait_drained, not stable_log or a sleep" >&2
    exit 1
fi
echo "one-wait: ok"
