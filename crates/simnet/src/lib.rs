//! Simulated network substrate for the distributed programs monitor.
//!
//! The paper's monitor ran on several VAXen on a LAN, each with its own
//! unsynchronized hardware clock. This crate supplies the equivalents:
//!
//! * [`GlobalTime`] — the hidden "true" time of the simulation,
//!   advanced by activity (discrete-event style). No component of the
//!   monitored system can observe it; it exists so that latency and
//!   ordering are well defined.
//! * [`MachineClock`] — a per-machine view of time with configurable
//!   offset and rate skew. As the paper notes (§1.1), time can be
//!   synchronized in a relative sense but a complete ordering of
//!   events is not possible; machine clocks here genuinely disagree.
//! * [`LatencyModel`] and [`NetConfig`] — message delay is finite and
//!   non-deterministic (§1.1's *delay* factor), datagrams may be lost
//!   or reordered (§3.1), streams are reliable.
//! * [`HostRegistry`] — maps literal host names to numeric host ids.
//!   Socket names are exchanged as literal host name + port because a
//!   host may have different addresses on different networks (§3.5.4).
//! * [`WireStats`] — counts frames/bytes for the benchmark harness.
//!
//! # Example
//!
//! ```
//! use dpm_simnet::{GlobalTime, HostRegistry, NetConfig};
//! use std::sync::Arc;
//!
//! let time = Arc::new(GlobalTime::new());
//! let mut hosts = HostRegistry::new();
//! let red = hosts.register("red");
//! let blue = hosts.register("blue");
//! assert_ne!(red, blue);
//! assert_eq!(hosts.lookup("red"), Some(red));
//!
//! let cfg = NetConfig::lan();
//! let mut latency = cfg.latency_model(7);
//! let d = latency.sample_us(red, blue);
//! assert!(d >= cfg.latency_min_us && d <= cfg.latency_max_us);
//! # let _ = time;
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod clock;
mod config;
mod fault;
mod registry;
mod stats;

pub use clock::{ClockSpec, GlobalTime, MachineClock};
pub use config::{Fate, LatencyModel, NetConfig};
pub use fault::{DgramFault, FaultInjector, NoFaults};
pub use registry::{HostId, HostRegistry, UnknownHostError};
pub use stats::WireStats;
