//! The control-event record and its wire codec.
//!
//! One [`ControlEvent`] is one state mutation of a measurement
//! session. Events are encoded to a compact little-endian binary form
//! and appended to a [`dpm_logstore`] store as ordinary frames; the
//! magic tag and version word up front let a reader skip any frame
//! that is not a control event (or is from a future format) instead of
//! misparsing it.

use crate::state::ProcState;
use dpm_logstore::wire::{Reader, Writer};
use std::fmt;

/// First word of every encoded control event ("CTL1" little-endian) —
/// distinguishes control frames from meter records sharing a reader.
pub(crate) const CONTROL_MAGIC: u32 = 0x314C_5443;

/// Encoding version this build writes and understands.
pub(crate) const CONTROL_EVENT_VERSION: u32 = 2;

/// Longest string any event field may carry (the descriptions text is
/// the big one); a decoder finding more is reading garbage.
const MAX_STR: usize = 64 * 1024;

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

impl ControlEvent {
    /// Encodes to the control log's record form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let mut w = Writer::new(&mut buf);
        w.u32(CONTROL_MAGIC).u32(CONTROL_EVENT_VERSION);
        w.u8(match self {
            ControlEvent::JobCreated { .. } => code::JOB_CREATED,
            ControlEvent::FilterCreated { .. } => code::FILTER_CREATED,
            ControlEvent::ProcAdded { .. } => code::PROC_ADDED,
            ControlEvent::FlagsSet { .. } => code::FLAGS_SET,
            ControlEvent::ProcStateChanged { .. } => code::PROC_STATE_CHANGED,
            ControlEvent::ProcRemoved { .. } => code::PROC_REMOVED,
            ControlEvent::JobRemoved { .. } => code::JOB_REMOVED,
            ControlEvent::LeaseAcquired { .. } => code::LEASE_ACQUIRED,
            ControlEvent::LeaseRenewed { .. } => code::LEASE_RENEWED,
        });
        match self {
            ControlEvent::JobCreated { job, filter } => {
                w.str(job).str(filter);
            }
            ControlEvent::FilterCreated {
                name,
                machine,
                pid,
                port,
                logfile,
                shards,
                role,
                upstream,
                desc_text,
                templates_text,
            } => {
                w.str(name).str(machine).u32(*pid).u16(*port);
                w.str(logfile).u32(*shards).str(role).str(upstream);
                w.str(desc_text).str(templates_text);
            }
            ControlEvent::ProcAdded {
                job,
                name,
                machine,
                pid,
                state,
            } => {
                w.str(job).str(name).str(machine).u32(*pid);
                w.str(state.keyword());
            }
            ControlEvent::FlagsSet { job, flags } => {
                w.str(job).u32(*flags);
            }
            ControlEvent::ProcStateChanged {
                job,
                machine,
                pid,
                state,
            } => {
                w.str(job).str(machine).u32(*pid).str(state.keyword());
            }
            ControlEvent::ProcRemoved { job, machine, pid } => {
                w.str(job).str(machine).u32(*pid);
            }
            ControlEvent::JobRemoved { job } => {
                w.str(job);
            }
            ControlEvent::LeaseAcquired {
                job,
                owner,
                at_us,
                expires_us,
            }
            | ControlEvent::LeaseRenewed {
                job,
                owner,
                at_us,
                expires_us,
            } => {
                w.str(job).str(owner).u64(*at_us).u64(*expires_us);
            }
        }
        buf
    }

    /// Decodes one control-event record.
    ///
    /// # Errors
    ///
    /// A description of the malformation: wrong magic (not a control
    /// event at all), an unknown version or type code, or truncation.
    pub fn decode(buf: &[u8]) -> Result<ControlEvent, String> {
        let mut r = Reader::new(buf);
        let string = |r: &mut Reader<'_>| r.str(MAX_STR).map(str::to_owned);
        let state = |r: &mut Reader<'_>| r.str(MAX_STR)?.parse::<ProcState>();
        let magic = r.u32()?;
        if magic != CONTROL_MAGIC {
            return Err(format!("not a control event (magic {magic:#x})"));
        }
        let version = r.u32()?;
        if version != CONTROL_EVENT_VERSION {
            return Err(format!("unknown control event version {version}"));
        }
        let code = r.u8()?;
        Ok(match code {
            code::JOB_CREATED => ControlEvent::JobCreated {
                job: string(&mut r)?,
                filter: string(&mut r)?,
            },
            code::FILTER_CREATED => ControlEvent::FilterCreated {
                name: string(&mut r)?,
                machine: string(&mut r)?,
                pid: r.u32()?,
                port: r.u16()?,
                logfile: string(&mut r)?,
                shards: r.u32()?,
                role: string(&mut r)?,
                upstream: string(&mut r)?,
                desc_text: string(&mut r)?,
                templates_text: string(&mut r)?,
            },
            code::PROC_ADDED => ControlEvent::ProcAdded {
                job: string(&mut r)?,
                name: string(&mut r)?,
                machine: string(&mut r)?,
                pid: r.u32()?,
                state: state(&mut r)?,
            },
            code::FLAGS_SET => ControlEvent::FlagsSet {
                job: string(&mut r)?,
                flags: r.u32()?,
            },
            code::PROC_STATE_CHANGED => ControlEvent::ProcStateChanged {
                job: string(&mut r)?,
                machine: string(&mut r)?,
                pid: r.u32()?,
                state: state(&mut r)?,
            },
            code::PROC_REMOVED => ControlEvent::ProcRemoved {
                job: string(&mut r)?,
                machine: string(&mut r)?,
                pid: r.u32()?,
            },
            code::JOB_REMOVED => ControlEvent::JobRemoved {
                job: string(&mut r)?,
            },
            code::LEASE_ACQUIRED => ControlEvent::LeaseAcquired {
                job: string(&mut r)?,
                owner: string(&mut r)?,
                at_us: r.u64()?,
                expires_us: r.u64()?,
            },
            code::LEASE_RENEWED => ControlEvent::LeaseRenewed {
                job: string(&mut r)?,
                owner: string(&mut r)?,
                at_us: r.u64()?,
                expires_us: r.u64()?,
            },
            other => return Err(format!("unknown control event type {other}")),
        })
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
