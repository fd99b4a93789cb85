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
//! `removejob`, `removeprocess`, `jobs`, `getlog`, `source`, `sink`,
//! and `die`, all implemented by [`Controller::exec`]. Process states
//! follow the Fig. 4.2 machine in [`ProcState`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod session;

pub use job::{Job, ManagedProc, ProcAction, ProcState};
pub use session::{Controller, FilterInfo};
