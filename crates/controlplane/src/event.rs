//! The control-event record and its wire codec.
//!
//! One [`ControlEvent`] is one state mutation of a measurement
//! session. Events are encoded to a compact little-endian binary form
//! and appended to a [`dpm_logstore`] store as ordinary frames; the
//! magic tag and version word up front let a reader skip any frame
//! that is not a control event (or is from a future format) instead of
//! misparsing it.

use crate::state::ProcState;
use dpm_logstore::layout;
use dpm_logstore::wire::{Leaf, Reader, Str, Writer};
use std::fmt;

/// First word of every encoded control event ("CTL1" little-endian) —
/// distinguishes control frames from meter records sharing a reader.
pub(crate) const CONTROL_MAGIC: u32 = 0x314C_5443;

/// Encoding version this build writes and understands.
pub(crate) const CONTROL_EVENT_VERSION: u32 = 2;

/// Longest string any event field may carry (the descriptions text is
/// the big one); a decoder finding more is reading garbage.
const MAX_STR: usize = 64 * 1024;

/// A string field of an event.
type Text = Str<MAX_STR>;

/// One mutation of controller state, as recorded in the control log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEvent {
    /// `newjob`: a job was accepted and bound to a filter.
    JobCreated {
        /// Job name.
        job: String,
        /// The filter collecting its trace.
        filter: String,
    },
    /// `filter`: a filter process was created. Carries everything a
    /// successor controller needs to rebuild its `FilterInfo` —
    /// including the descriptions and templates text, so store frames
    /// render (reduction included) without re-fetching any file.
    FilterCreated {
        /// Controller-local filter name.
        name: String,
        /// Machine it runs on.
        machine: String,
        /// Its pid on that machine.
        pid: u32,
        /// The port metered processes connect to.
        port: u16,
        /// Log path (empty for edges).
        logfile: String,
        /// Shard count.
        shards: u32,
        /// Role keyword (`leaf` / `edge` / `aggregate`).
        role: String,
        /// `host:port` of its upstream, empty when none.
        upstream: String,
        /// The descriptions file text it filters with.
        desc_text: String,
        /// The selection-templates file text it filters with.
        templates_text: String,
    },
    /// `addprocess`/`acquire`: a process joined a job.
    ProcAdded {
        /// The job it joined.
        job: String,
        /// Display name.
        name: String,
        /// Machine it runs on.
        machine: String,
        /// Its pid.
        pid: u32,
        /// Initial state (`new` / `acquired`), carried as its keyword.
        state: ProcState,
    },
    /// `setflags`: the job's accumulated flag set changed.
    FlagsSet {
        /// The job.
        job: String,
        /// The new full flag bits.
        flags: u32,
    },
    /// A process changed state (start/stop/termination/resync).
    ProcStateChanged {
        /// The job.
        job: String,
        /// Machine of the process.
        machine: String,
        /// Its pid.
        pid: u32,
        /// New state (`running` / `stopped` / `killed`), carried as its
        /// keyword.
        state: ProcState,
    },
    /// `removeprocess`: a process left its job.
    ProcRemoved {
        /// The job.
        job: String,
        /// Machine of the process.
        machine: String,
        /// Its pid.
        pid: u32,
    },
    /// `removejob`: the job reached its terminal state.
    JobRemoved {
        /// The job.
        job: String,
    },
    /// A controller claimed ownership of a job.
    LeaseAcquired {
        /// The job.
        job: String,
        /// Owner id (`machine:control_port`).
        owner: String,
        /// Simulated time of the claim, microseconds.
        at_us: u64,
        /// Simulated time the lease lapses, microseconds.
        expires_us: u64,
    },
    /// The current owner extended its lease.
    LeaseRenewed {
        /// The job.
        job: String,
        /// Owner id (must match the current lease's).
        owner: String,
        /// Simulated time of the renewal, microseconds.
        at_us: u64,
        /// New expiry, microseconds.
        expires_us: u64,
    },
}

impl fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlEvent::JobCreated { job, filter } => {
                write!(f, "job-created {job} filter={filter}")
            }
            ControlEvent::FilterCreated {
                name,
                machine,
                pid,
                port,
                ..
            } => write!(
                f,
                "filter-created {name} machine={machine} pid={pid} port={port}"
            ),
            ControlEvent::ProcAdded {
                job,
                name,
                machine,
                pid,
                state,
            } => write!(
                f,
                "proc-added {job}/{name} machine={machine} pid={pid} state={state}"
            ),
            ControlEvent::FlagsSet { job, flags } => {
                write!(f, "flags-set {job} flags={flags:#x}")
            }
            ControlEvent::ProcStateChanged {
                job,
                machine,
                pid,
                state,
            } => write!(
                f,
                "proc-state {job} machine={machine} pid={pid} state={state}"
            ),
            ControlEvent::ProcRemoved { job, machine, pid } => {
                write!(f, "proc-removed {job} machine={machine} pid={pid}")
            }
            ControlEvent::JobRemoved { job } => write!(f, "job-removed {job}"),
            ControlEvent::LeaseAcquired {
                job,
                owner,
                at_us,
                expires_us,
            } => write!(
                f,
                "lease-acquired {job} owner={owner} at={at_us} expires={expires_us}"
            ),
            ControlEvent::LeaseRenewed {
                job,
                owner,
                at_us,
                expires_us,
            } => write!(
                f,
                "lease-renewed {job} owner={owner} at={at_us} expires={expires_us}"
            ),
        }
    }
}

/// Event type codes on the wire.
mod code {
    pub(crate) const JOB_CREATED: u8 = 1;
    pub(crate) const FILTER_CREATED: u8 = 2;
    pub(crate) const PROC_ADDED: u8 = 3;
    pub(crate) const FLAGS_SET: u8 = 4;
    pub(crate) const PROC_STATE_CHANGED: u8 = 5;
    pub(crate) const JOB_REMOVED: u8 = 6;
    pub(crate) const LEASE_ACQUIRED: u8 = 7;
    pub(crate) const LEASE_RENEWED: u8 = 8;
    pub(crate) const PROC_REMOVED: u8 = 9;
}

/// An event's tag: [`CONTROL_MAGIC`] and [`CONTROL_EVENT_VERSION`], so
/// that a reader refuses a frame that is not a control event (or is of
/// another format) instead of misparsing it, then the type code.
struct Code;

impl Leaf<String> for Code {
    type Value = u8;
    fn put(v: &u8, w: &mut Writer<'_>) {
        <(u32, u32) as Leaf<String>>::put(&(CONTROL_MAGIC, CONTROL_EVENT_VERSION), w);
        <u8 as Leaf<String>>::put(v, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, String> {
        match <u32 as Leaf<String>>::get(r)? {
            CONTROL_MAGIC => {}
            magic => return Err(format!("not a control event (magic {magic:#x})")),
        }
        match <u32 as Leaf<String>>::get(r)? {
            CONTROL_EVENT_VERSION => <u8 as Leaf<String>>::get(r),
            version => Err(format!("unknown control event version {version}")),
        }
    }
}

/// A process state as its keyword.
impl Leaf<String> for ProcState {
    type Value = ProcState;
    fn put(v: &ProcState, w: &mut Writer<'_>) {
        <Text as Leaf<String>>::put(&v.keyword().to_owned(), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<ProcState, String> {
        <Text as Leaf<String>>::get(r)?.parse()
    }
}

layout! {
    impl Leaf<String> for ControlEvent by Code;
    fn code() -> u8 {
        code::JOB_CREATED => JobCreated { job: Text, filter: Text },
        code::FILTER_CREATED => FilterCreated {
            name: Text, machine: Text, pid: u32, port: u16, logfile: Text, shards: u32,
            role: Text, upstream: Text, desc_text: Text, templates_text: Text,
        },
        code::PROC_ADDED => ProcAdded {
            job: Text, name: Text, machine: Text, pid: u32, state: ProcState,
        },
        code::FLAGS_SET => FlagsSet { job: Text, flags: u32 },
        code::PROC_STATE_CHANGED => ProcStateChanged {
            job: Text, machine: Text, pid: u32, state: ProcState,
        },
        code::PROC_REMOVED => ProcRemoved { job: Text, machine: Text, pid: u32 },
        code::JOB_REMOVED => JobRemoved { job: Text },
        code::LEASE_ACQUIRED => LeaseAcquired {
            job: Text, owner: Text, at_us: u64, expires_us: u64,
        },
        code::LEASE_RENEWED => LeaseRenewed {
            job: Text, owner: Text, at_us: u64, expires_us: u64,
        },
    } else other => format!("unknown control event type {other}")
}

impl ControlEvent {
    /// Encodes to the control log's record form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        <ControlEvent as Leaf<String>>::put(self, &mut Writer::new(&mut buf));
        buf
    }

    /// Decodes one control-event record.
    ///
    /// # Errors
    ///
    /// A description of the malformation: wrong magic (not a control
    /// event at all), an unknown version or type code, or truncation.
    pub fn decode(buf: &[u8]) -> Result<ControlEvent, String> {
        <ControlEvent as Leaf<String>>::get(&mut Reader::new(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ControlEvent> {
        vec![
            ControlEvent::JobCreated {
                job: "foo".into(),
                filter: "f1".into(),
            },
            ControlEvent::FilterCreated {
                name: "f1".into(),
                machine: "green".into(),
                pid: 2120,
                port: 4000,
                logfile: "/usr/tmp/log.f1".into(),
                shards: 2,
                role: "leaf".into(),
                upstream: String::new(),
                desc_text: "send 1 ...\n".into(),
                templates_text: "type=1, pc=#*\n".into(),
            },
            ControlEvent::ProcAdded {
                job: "foo".into(),
                name: "A".into(),
                machine: "red".into(),
                pid: 2121,
                state: ProcState::New,
            },
            ControlEvent::FlagsSet {
                job: "foo".into(),
                flags: 0b1011,
            },
            ControlEvent::ProcStateChanged {
                job: "foo".into(),
                machine: "red".into(),
                pid: 2121,
                state: ProcState::Killed,
            },
            ControlEvent::JobRemoved { job: "foo".into() },
            ControlEvent::LeaseAcquired {
                job: "foo".into(),
                owner: "yellow:5000".into(),
                at_us: 17,
                expires_us: 2_000_017,
            },
            ControlEvent::LeaseRenewed {
                job: "foo".into(),
                owner: "yellow:5000".into(),
                at_us: 1_000_017,
                expires_us: 3_000_017,
            },
            ControlEvent::ProcRemoved {
                job: "foo".into(),
                machine: "red".into(),
                pid: 2121,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in samples() {
            let wire = ev.encode();
            assert_eq!(ControlEvent::decode(&wire).unwrap(), ev, "{ev}");
            // The tag layout is stable: magic then version.
            assert_eq!(&wire[0..4], &CONTROL_MAGIC.to_le_bytes());
            assert_eq!(&wire[4..8], &CONTROL_EVENT_VERSION.to_le_bytes());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        // A meter record (or anything else) is named as a non-event,
        // not misparsed.
        let err = ControlEvent::decode(&[9u8; 32]).unwrap_err();
        assert!(err.contains("not a control event"), "{err}");
        // Unknown version.
        let mut wire = samples()[0].encode();
        wire[4..8].copy_from_slice(&9u32.to_le_bytes());
        let err = ControlEvent::decode(&wire).unwrap_err();
        assert!(err.contains("version 9"), "{err}");
        // The version whose `FilterCreated` carried a sink keyword is
        // no more understood than a future one.
        wire[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = ControlEvent::decode(&wire).unwrap_err();
        assert!(err.contains("unknown control event version 1"), "{err}");
        // Unknown type code.
        let mut wire = samples()[0].encode();
        wire[8] = 99;
        let err = ControlEvent::decode(&wire).unwrap_err();
        assert!(err.contains("type 99"), "{err}");
        // Truncation.
        let wire = samples()[1].encode();
        assert!(ControlEvent::decode(&wire[..wire.len() - 3]).is_err());
        // A state keyword that names no state.
        let mut wire = samples()[4].encode();
        let at = wire.len() - "killed".len();
        wire[at..].copy_from_slice(b"zombie");
        let err = ControlEvent::decode(&wire).unwrap_err();
        assert!(err.contains("unknown process state 'zombie'"), "{err}");
        // Absurd string length.
        let mut wire = samples()[5].encode();
        wire[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ControlEvent::decode(&wire).unwrap_err();
        assert!(err.contains("absurd"), "{err}");
    }

    #[test]
    fn display_is_one_line_per_event() {
        for ev in samples() {
            let line = ev.to_string();
            assert!(!line.contains('\n'), "{line}");
            assert!(!line.is_empty());
        }
    }
}
