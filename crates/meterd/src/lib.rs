//! The meterdaemon: remote process control for the measurement
//! system.
//!
//! Machine boundaries in 4.2BSD are not transparent — "direct control
//! of a process on another machine is impossible" (§3.5.1) — so a
//! *meterdaemon* runs on every machine and carries out control
//! functions for the controller over a typed request/reply protocol
//! (Fig. 3.6) on temporary stream connections. The daemon:
//!
//! * creates metered processes, suspended, wiring their meter
//!   connection to the filter and (optionally) their stdio through a
//!   gateway socket (§3.5.2);
//! * starts, stops, and kills processes; sets meter flags; acquires
//!   already-running processes;
//! * reports process terminations back to the controller, initiating
//!   the connection itself — the one exception to the RPC pattern;
//! * writes and fetches files, standing in for `rcp` (§3.5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod proto;

pub use daemon::{
    meterd_main, notify, read_exact, read_frame, rpc_call, rpc_call_retry, start_meterdaemons,
    METERD_PORT, METERD_PROGRAM, RPC_TIMEOUT_MS,
};
pub use dpm_filter::FilterArgs;
pub use proto::{
    frame_len, msg_type, ProtoError, Reply, Request, RpcStatus, FILTER_SPEC_VERSION, MAX_RPC_FRAME,
};
