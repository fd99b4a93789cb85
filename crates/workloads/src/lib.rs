//! Distributed programs to monitor.
//!
//! The measurement tools are only interesting when pointed at real
//! computations; this crate supplies the ones the paper used or
//! motivates, each written against the simulated kernel's system-call
//! interface (so they can be created by the meterdaemons, metered
//! transparently, and controlled through the controller):
//!
//! * `ab` — the two-process computation of the Appendix-B example
//!   session (`A` on red, `B` on green);
//! * [`tsp`] — the distributed traveling-salesman branch-and-bound of
//!   Lai & Miller 84, the computation the paper reports debugging and
//!   speeding up with these tools (§5);
//! * [`ring`] — a datagram token ring with retransmission, for
//!   exercising datagram loss and the unmatched-send analysis;
//! * `pipeline` — a staged stream pipeline, for the parallelism
//!   analysis;
//! * [`client_server`] — a forking server in the `inetd` style, the
//!   natural target of the `acquire` command;
//! * `lamport_mutex` — Lamport's distributed mutual exclusion,
//!   emitting length-beacon datagrams so the trace checker
//!   (`dpm_analysis::properties`) can verify safety from the log;
//! * `byzantine` — synchronous Byzantine agreement (oral messages,
//!   one traitor among four generals), likewise trace-checkable.
//!
//! [`register_all`] registers every program with a cluster and
//! installs the corresponding `/bin` files on every machine.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod ab;
mod byzantine;
pub mod client_server;
mod lamport_mutex;
mod pipeline;
pub mod ring;
pub mod tsp;
pub mod util;

use dpm_simos::Cluster;
use std::sync::Arc;

/// Registers every workload program on the cluster.
pub fn register_all(cluster: &Arc<Cluster>) {
    ab::register(cluster);
    tsp::register(cluster);
    ring::register(cluster);
    pipeline::register(cluster);
    client_server::register(cluster);
    lamport_mutex::register(cluster);
    byzantine::register(cluster);
}
