//! The control process of the distributed programs monitor.
//!
//! "The controller provides the mechanisms for establishing the
//! communication paths between all of the components of the
//! measurement system. The controller is a command interpreter …
//! Executing this request may require interacting with other
//! components of the measurement system and establishing communication
//! paths between the various components." (§3.3)
//!
//! The user's commands (§4.3) are `help`, `filter`, `newjob`,
//! `addprocess`, `acquire`, `setflags`, `startjob`, `stopjob`,
//! `removejob`, `removeprocess`, `jobs`, `getlog`, `watch`, `tail`,
//! `check`, `stats`, `source`, `sink`, `input`, and `die`, all
//! implemented by [`Controller::exec`]. The controller's state is a
//! [`dpm_controlplane::JobTable`]: every command changes it by one
//! control event, so the table is the fold of the events the
//! controller applied. Process states follow the Fig. 4.2 machine in
//! [`ProcState`].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod session;

pub use dpm_controlplane::{JobRecord, ProcAction, ProcState};
pub use session::{Controller, FilterInfo};
