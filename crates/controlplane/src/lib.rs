//! `dpm-controlplane`: replicated, highly-available controller state.
//!
//! The paper's monitor hinges on a single controlling process owning a
//! job's lifecycle — if it dies, metered processes are orphaned and
//! the session's measurements are stranded. This crate removes that
//! single point of failure by treating the controller's own state the
//! way the monitor treats everything else: as a durable, replayable
//! stream of records.
//!
//! Three pieces:
//!
//! * **The control log** ([`ControlLog`]) — every mutation a
//!   controller performs (job created, filter created, process added,
//!   flags set, state changed, job removed) is appended as a
//!   CRC-framed [`ControlEvent`] record to a dedicated
//!   [`dpm_logstore`] store, flushed per append so a reader never
//!   trails the writer by more than the record in flight.
//! * **The replayable table** ([`JobTable`]) — folds a control-event
//!   stream back into the full job table. `JobTable::from_store`
//!   reconstructs exactly the state an in-memory table built by
//!   applying the same events holds, so *any* controller with access
//!   to the store can adopt the session.
//! * **Leases** ([`Lease`]) — each job carries an owner id and an
//!   expiry in simulated time, renewed through the control log. A
//!   standby watches the log; once a job's lease lapses it appends its
//!   own `LeaseAcquired` record and takes over deterministically.
//!   Ownership history forms a linear chain: a new owner's acquisition
//!   time never precedes the previous lease's expiry
//!   (see [`JobTable::check_lease_chain`]).
//!
//! ```
//! use dpm_controlplane::{ControlEvent, ControlLog, JobTable, DEFAULT_LEASE_MS};
//! use dpm_logstore::{MemBackend, StoreReader};
//! use std::sync::Arc;
//!
//! let backend = Arc::new(MemBackend::new());
//! let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
//! log.append(&ControlEvent::JobCreated {
//!     job: "foo".into(),
//!     filter: "f1".into(),
//! });
//! log.append(&ControlEvent::LeaseAcquired {
//!     job: "foo".into(),
//!     owner: "yellow:5000".into(),
//!     at_us: 0,
//!     expires_us: DEFAULT_LEASE_MS * 1_000,
//! });
//! let reader = StoreReader::load(backend.as_ref(), "/usr/tmp/control");
//! let table = JobTable::from_store(&reader);
//! assert_eq!(table.jobs["foo"].lease.as_ref().unwrap().owner, "yellow:5000");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod log;
mod table;

pub use event::{ControlEvent, CONTROL_EVENT_VERSION, CONTROL_MAGIC};
pub use log::{ControlLog, CONTROL_SHARD};
pub use table::{FilterRecord, JobRecord, JobTable, Lease, ProcRecord};

/// Default lease period, in virtual milliseconds. Long next to RPC
/// latencies (so an owner that is merely slow keeps its jobs) yet
/// short enough that a standby adopts an orphaned job promptly.
pub const DEFAULT_LEASE_MS: u64 = 2_000;
