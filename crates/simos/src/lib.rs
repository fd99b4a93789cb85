//! A simulated multi-machine Berkeley UNIX 4.2BSD environment with
//! kernel-resident metering — the substrate of the distributed
//! programs monitor.
//!
//! The paper's measurement tools required "changes to the Berkeley
//! UNIX kernel": flagged system calls by metered processes generate
//! meter messages that are buffered in the kernel and delivered to a
//! filter process over a hidden stream connection. This crate
//! implements that kernel — process tables with the three added meter
//! fields, BSD sockets (stream and datagram, UNIX and Internet
//! domains), `fork` inheritance of metering, signals, per-machine
//! skewed clocks, a latency/loss network, and the `setmeter(2)` system
//! call of Appendix C.
//!
//! Simulated processes are real OS threads executing against the
//! simulated kernel through a [`Proc`] handle, so blocking semantics
//! (`accept`, `recv`, `wait`) are the natural ones, while *time* is
//! virtual: a hidden discrete-event clock advanced by computation and
//! message latency, viewed through each machine's skewed clock.
//!
//! # Example: metered echo over a stream connection
//!
//! ```
//! use dpm_simos::{connect_backoff, Backoff, BindTo, Cluster, Domain, SockType, Uid};
//! use dpm_simnet::NetConfig;
//!
//! let cluster = Cluster::builder()
//!     .net(NetConfig::ideal())
//!     .machine("red")
//!     .machine("green")
//!     .build();
//!
//! let server = cluster.spawn_user("green", "server", Uid(1), |p| {
//!     let s = p.socket(Domain::Inet, SockType::Stream)?;
//!     p.bind(s, BindTo::Port(1700))?;
//!     p.listen(s, 5)?;
//!     let (conn, _who) = p.accept(s)?;
//!     let msg = p.read(conn, 1024)?;
//!     p.write(conn, &msg)?;
//!     Ok(())
//! })?;
//!
//! let client = cluster.spawn_user("red", "client", Uid(1), |p| {
//!     // The server may not be listening yet: retry refused connects.
//!     let s = connect_backoff(&p, "green", 1700, Backoff::standard())?;
//!     p.write(s, b"hello")?;
//!     assert_eq!(p.read(s, 1024)?, b"hello");
//!     Ok(())
//! })?;
//!
//! let green = cluster.machine("green").unwrap();
//! let red = cluster.machine("red").unwrap();
//! assert_eq!(green.wait_exit(server), Some(dpm_meter::TermReason::Normal));
//! assert_eq!(red.wait_exit(client), Some(dpm_meter::TermReason::Normal));
//! cluster.shutdown();
//! # Ok::<(), dpm_simos::SysError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod backoff;
mod cluster;
mod error;
mod fs;
mod machine;
mod metering;
mod process;
mod socket;
mod syscall;

pub use backoff::{connect_backoff, Backoff};
pub use cluster::{Cluster, ClusterBuilder, ClusterConfig, CpuCosts};
pub use error::{SysError, SysResult};
pub use fs::SimFs;
pub use machine::Machine;
pub use process::{Pid, RunState, Sig, Uid};
pub use socket::{Domain, SockType};
pub use syscall::{BindTo, Fd, FlagSel, PidSel, Proc, SockSel};

// Re-export the vocabulary types users constantly need alongside.
pub use dpm_meter::{MeterFlags, SockName, TermReason};
