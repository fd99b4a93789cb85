//! Process-level fault executors: crashing and restarting a machine's
//! meterdaemon, and killing a controller for failover scenarios.
//!
//! Network and disk faults are injected passively through hook points;
//! killing a daemon or controller is an *action* a chaos scenario
//! performs at a chosen moment. These helpers find the victim by its
//! well-known program name (no pid-window guessing), kill it with an
//! uncatchable signal, and later respawn it as root — modelling a
//! machine whose monitor daemon dies and is restarted by init, or a
//! controller host that drops dead mid-session and whose jobs a
//! standby must adopt.

use std::sync::Arc;

use dpm_meterd::{meterd_main, METERD_PROGRAM};
use dpm_simos::{Cluster, Machine, Pid, Sig, Uid};

/// The program name controllers spawn under (their notification
/// listener forks as `control+`).
pub(crate) const CONTROLLER_PROGRAM: &str = "control";

/// Live (non-zombie) meterdaemon pids on `machine`.
fn live_daemons(machine: &Machine) -> Vec<Pid> {
    machine
        .procs_named(METERD_PROGRAM)
        .into_iter()
        .filter(|&pid| {
            machine
                .proc_state(pid)
                .is_some_and(|state| !state.is_dead())
        })
        .collect()
}

/// Kills every live meterdaemon on the named machine with `SIGKILL`
/// and returns the pids that were killed (empty if none was running).
/// The daemon's sockets close, so in-flight RPCs to it fail and
/// clients fall back to their retry policies — exactly the condition
/// the hardened RPC layer exists for.
///
/// # Panics
///
/// If the cluster has no machine with that name — a harness bug.
pub fn crash_daemon(cluster: &Arc<Cluster>, machine: &str) -> Vec<Pid> {
    let m = cluster
        .machine(machine)
        .unwrap_or_else(|| panic!("no machine named '{machine}'"));
    let pids = live_daemons(&m);
    for &pid in &pids {
        // `from: None` is the kernel itself: permission checks do not
        // apply, and `Sig::Kill` cannot be caught or ignored.
        let _ = m.signal(None, pid, Sig::Kill);
    }
    pids
}

/// Spawns a fresh meterdaemon on the named machine (as root, the uid
/// meterdaemons run under) and returns its pid. Call after
/// [`crash_daemon`] to model a daemon restart; the new daemon rebinds
/// the well-known port, re-registers with its filters, and serves the
/// same RPC surface — clients that kept retrying reconnect to it
/// transparently.
///
/// # Panics
///
/// If the cluster has no machine with that name, or a live daemon is
/// still running there (two daemons would fight over the port).
pub fn restart_daemon(cluster: &Arc<Cluster>, machine: &str) -> Pid {
    let m = cluster
        .machine(machine)
        .unwrap_or_else(|| panic!("no machine named '{machine}'"));
    assert!(
        live_daemons(&m).is_empty(),
        "meterdaemon already running on '{machine}'"
    );
    m.spawn_fn(METERD_PROGRAM, Uid::ROOT, None, true, |p| {
        meterd_main(p, Vec::new())
    })
}

/// Kills every live controller process on the named machine with
/// `SIGKILL` — both the parked `control` body and its forked
/// `control+` notification listener — and returns the pids killed.
/// The controller's control-log lease stops being renewed the moment
/// it dies; once the lease lapses (simulated time keeps advancing), a
/// standby's `Controller::adopt_from` takes the jobs over.
///
/// # Panics
///
/// If the cluster has no machine with that name — a harness bug.
pub fn crash_controller(cluster: &Arc<Cluster>, machine: &str) -> Vec<Pid> {
    let m = cluster
        .machine(machine)
        .unwrap_or_else(|| panic!("no machine named '{machine}'"));
    let mut pids: Vec<Pid> = [CONTROLLER_PROGRAM, "control+"]
        .iter()
        .flat_map(|name| m.procs_named(name))
        .filter(|&pid| m.proc_state(pid).is_some_and(|state| !state.is_dead()))
        .collect();
    pids.sort();
    pids.dedup();
    for &pid in &pids {
        let _ = m.signal(None, pid, Sig::Kill);
    }
    pids
}

/// Whether the named machine currently has a live meterdaemon.
///
/// # Panics
///
/// If the cluster has no machine with that name.
pub fn daemon_alive(cluster: &Arc<Cluster>, machine: &str) -> bool {
    let m = cluster
        .machine(machine)
        .unwrap_or_else(|| panic!("no machine named '{machine}'"));
    !live_daemons(&m).is_empty()
}
