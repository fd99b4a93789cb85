//! # dpm — A Distributed Programs Monitor for (simulated) Berkeley UNIX
//!
//! A complete Rust reproduction of Miller, Macrander & Sechrest,
//! *A Distributed Programs Monitor for Berkeley UNIX* (UCB CSRG /
//! ICDCS 1985): transparent kernel-resident metering of distributed
//! programs, filter processes with selection rules, meterdaemons for
//! cross-machine process control, an interactive controller, and
//! trace-analysis routines — all running against a faithful simulation
//! of a multi-machine 4.2BSD environment.
//!
//! This crate re-exports [`dpm_core`] and hosts the runnable examples
//! (`examples/quickstart.rs` reproduces the paper's Appendix-B
//! session) and the cross-crate integration tests. Start with
//! [`dpm_core::Simulation`]:
//!
//! ```
//! use dpm::Simulation;
//!
//! let sim = Simulation::builder().machines(["yellow", "red"]).build();
//! let mut control = sim.controller("yellow")?;
//! control.exec("filter f1 red");
//! assert!(control.transcript().contains("created"));
//! control.exec("die");
//! sim.shutdown();
//! # Ok::<(), dpm::SysError>(())
//! ```

#![forbid(unsafe_code)]

pub use dpm_core::*;

/// The individual subsystem crates, for direct access.
pub mod crates {
    pub use dpm_analysis as analysis;
    pub use dpm_chaos as chaos;
    pub use dpm_controller as controller;
    pub use dpm_controlplane as controlplane;
    pub use dpm_filter as filter;
    pub use dpm_live as live;
    pub use dpm_logstore as logstore;
    pub use dpm_meter as meter;
    pub use dpm_meterd as meterd;
    pub use dpm_simnet as simnet;
    pub use dpm_simos as simos;
    pub use dpm_telemetry as telemetry;
    pub use dpm_workloads as workloads;
}
