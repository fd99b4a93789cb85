//! `dpm-chaos`: deterministic fault injection for the distributed
//! programs monitor.
//!
//! The monitor's whole value is what it reports when a distributed
//! program misbehaves — so the monitor itself must survive the same
//! weather: lost and duplicated datagrams, partitioned machines,
//! crashed meterdaemons, flaky disks. This crate scripts that weather
//! as **pure data**: a [`ChaosSpec`] names fault classes and rates, a
//! seed pins the exact schedule, and a [`FaultPlan`] (spec + seed +
//! machine roster) produces the stateful decision-makers the
//! simulation hooks consume. Same `(seed, spec)`, same faults, same
//! order — a failing chaos run is replayed from its one-line banner.
//!
//! Four fault surfaces:
//!
//! * **Network** — [`FaultPlan::injector`] yields a [`ChaosInjector`]
//!   implementing the simulated kernel's
//!   [`FaultInjector`](dpm_simnet::FaultInjector) hooks: per-datagram
//!   drop/duplicate/delay, partition windows that refuse connections
//!   and hold stream bytes until heal time, and meter-flush
//!   duplication (which the filter's sequence dedup must absorb).
//! * **Disk** — [`FaultyBackend`] wraps a log store backend and makes
//!   appends tear or fail on a counter schedule; the store's
//!   group-commit writer must heal.
//! * **Processes** — [`crash_daemon`]/[`restart_daemon`] kill and
//!   respawn a machine's meterdaemon; the hardened RPC layer
//!   (timeouts, bounded retry, idempotent request ids) and the
//!   controller's resync must ride it out. [`crash_controller`] kills
//!   a controller mid-session; the control log and lease takeover
//!   must let a standby adopt its jobs.
//! * **Verification** — the [`invariants`] module reads a store back
//!   and checks that faults never became corruption: no accepted
//!   record lost, none duplicated; and, for the control plane, that
//!   every accepted job reached exactly one terminal state, no filter
//!   was orphaned, and job ownership never overlapped
//!   ([`invariants::check_control_plane`]).
//!
//! ```
//! use dpm_chaos::{ChaosSpec, FaultPlan};
//!
//! let spec = ChaosSpec::new()
//!     .drop(0.05)
//!     .duplicate(0.02)
//!     .partition("red", "blue", 200_000, 900_000);
//! let plan = FaultPlan::new(42, spec, &["red", "blue", "green"]);
//! let injector = plan.injector(); // install via ClusterBuilder::fault_injector
//! println!("{}", plan.describe()); // quote this line to replay the run
//! # let _ = injector;
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod disk;
mod exec;
pub mod invariants;
mod plan;
mod spec;

pub use disk::{DiskFaultStats, FaultyBackend};
pub use exec::{crash_controller, crash_daemon, daemon_alive, restart_daemon};
pub use plan::{ChaosInjector, FaultPlan, FaultTally};
pub use spec::{ChaosSpec, DiskSpec, Partition, Prob};
