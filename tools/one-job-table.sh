#!/bin/sh
# One job table (DESIGN §15): the controller's state is a
# dpm_controlplane::JobTable, and every change to it is one
# ControlEvent folded in by the controller's one `apply` (and appended
# to the control log when replication is on). Fails when non-test code
# under crates/controller/src keeps a second process model
# (`ManagedProc`, `parse_proc_state`), rebuilds the table from the log
# (`replayed_table`), keeps its own lease map (`self.leases`), or
# writes process state by hand (`procs.push(`, `procs.remove(`,
# `.state = `). "Non-test" is tools/non-test.awk, tools/loc.sh's rule.
#
# usage: tools/one-job-table.sh [repo-root]   (default: the checkout it lives in)
set -eu
rule=$(cd "$(dirname "$0")" && pwd)/non-test.awk
root=${1:-$(dirname "$0")/..}
cd "$root"

hits=$(find crates/controller/src -name '*.rs' | sort |
    xargs awk -f "$rule" |
    grep -E 'ManagedProc|parse_proc_state|replayed_table|self\.leases|procs\.push\(|procs\.remove\(|\.state = ' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "one-job-table: controller state changes only through JobTable::apply, by one ControlEvent" >&2
    exit 1
fi
echo "one-job-table: ok"
