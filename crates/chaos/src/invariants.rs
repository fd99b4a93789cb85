//! Invariant checks a chaos run must uphold.
//!
//! Injected faults are allowed to slow the monitor down, force
//! retries, and crash daemons — they are *not* allowed to corrupt
//! what the log store accepted. These checkers read a store back and
//! verify the safety properties end to end:
//!
//! * **No duplication** — at-least-once meter delivery plus the
//!   filter's sequence dedup must net out to each `(machine, pid,
//!   seq)` appearing at most once in the store.
//! * **No loss of accepted records** — for workloads whose transport
//!   to the filter is reliable, the per-process sequence numbers in
//!   the store must be gapless.
//!
//! Checkers return `Err(description)` rather than panicking so a test
//! can prepend the failing plan's seed and spec (see
//! [`FaultPlan::describe`](crate::FaultPlan::describe)) — the one
//! line needed to replay the failure.
//!
//! Every violation also dumps the telemetry flight recorder
//! ([`dpm_telemetry::dump_failure`]): the recent retries, heals, and
//! give-ups that led up to the bad store are exactly the context a
//! post-mortem needs, and they are gone once the run is torn down.

use std::collections::HashMap;

use dpm_controlplane::{ControlEvent, ControlLog, JobTable};
use dpm_logstore::StoreReader;
use dpm_meter::MeterMsg;

/// The key the sequence invariants are stated over: which process
/// emitted the record, and where.
type ProcKey = (u16, u32); // (machine, pid)

/// Per-process sequence numbers extracted from every frame of a store.
///
/// Frames whose payload is not a decodable meter message, or whose
/// sequence is `0` (unsequenced, the paper's original header layout),
/// are counted but not tracked — the sequence invariants only apply to
/// kernel-stamped records.
#[derive(Debug, Default)]
pub struct SeqCensus {
    /// `(machine, pid)` → every sequence number seen, in scan order.
    pub seqs: HashMap<ProcKey, Vec<u32>>,
    /// Frames scanned in total.
    pub frames: u64,
    /// Frames skipped: undecodable payload or unsequenced (`seq == 0`).
    pub skipped: u64,
}

/// Reads every frame of `reader` and tallies per-process sequences.
pub fn census(reader: &StoreReader) -> SeqCensus {
    let mut out = SeqCensus::default();
    for frame in reader.scan() {
        out.frames += 1;
        match MeterMsg::decode(frame.raw) {
            Ok((msg, _)) if msg.header.seq != 0 => {
                out.seqs
                    .entry((msg.header.machine, msg.body.pid()))
                    .or_default()
                    .push(msg.header.seq);
            }
            _ => out.skipped += 1,
        }
    }
    out
}

/// Checks that no `(machine, pid, seq)` triple appears twice in the
/// store — the "no record duplicated" invariant. Duplicated meter
/// flushes must be absorbed by the filter's dedup before they reach
/// the store.
///
/// # Errors
///
/// A description of the first duplicated triple found.
pub fn check_no_duplicates(reader: &StoreReader) -> Result<SeqCensus, String> {
    let c = census(reader);
    for (&(machine, pid), seqs) in &c.seqs {
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if pair[0] == pair[1] {
                let msg = format!(
                    "duplicate record: machine {machine} pid {pid} seq {} appears twice \
                     ({} records for that process)",
                    pair[0],
                    seqs.len()
                );
                dpm_telemetry::dump_failure(&format!("invariant no-duplicates failed: {msg}"));
                return Err(msg);
            }
        }
    }
    Ok(c)
}

/// Checks that each process's stored sequences are gapless `1..=n` —
/// the "no accepted record lost" invariant, applicable when the
/// meter-message path to the filter is reliable (duplication and
/// daemon crashes are fine; datagram *drop* chaos between meter
/// sources and the filter would legitimately lose records and should
/// not be checked with this).
///
/// # Errors
///
/// A description of the first gap found.
pub(crate) fn check_gapless(reader: &StoreReader) -> Result<SeqCensus, String> {
    let c = census(reader);
    for (&(machine, pid), seqs) in &c.seqs {
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &seq) in sorted.iter().enumerate() {
            let expect = (i + 1) as u32;
            if seq != expect {
                let msg = format!(
                    "lost record: machine {machine} pid {pid} expected seq {expect}, \
                     found {seq} (process has {} distinct seqs)",
                    sorted.len()
                );
                dpm_telemetry::dump_failure(&format!("invariant gapless failed: {msg}"));
                return Err(msg);
            }
        }
    }
    Ok(c)
}

/// Both sequence invariants at once: no duplicates, no gaps.
///
/// # Errors
///
/// The first violated invariant's description.
pub fn check_exactly_once(reader: &StoreReader) -> Result<SeqCensus, String> {
    check_no_duplicates(reader)?;
    check_gapless(reader)
}

/// What [`check_control_plane`] verified, for assertions in tests.
#[derive(Debug, Default)]
pub struct ControlCensus {
    /// Control events replayed from the log.
    pub events: u64,
    /// Jobs ever created (including since-removed ones).
    pub jobs_created: usize,
    /// Jobs still live at the end of the log.
    pub jobs_live: usize,
    /// Filters created.
    pub filters: usize,
}

/// Replays a control log and checks the failover safety invariants —
/// what controller crashes and lease takeovers are *not* allowed to
/// corrupt:
///
/// * **One creation per job** — a job name is created at most once
///   (idempotent RPC plus the log means a retried `newjob` must not
///   fork the job's history).
/// * **Exactly one terminal state** — every job that was accepted
///   either was removed or has every process in a terminal state
///   (killed, or merely acquired) by the end of the log; no job is
///   left half-running with nobody responsible for it.
/// * **No orphaned filter reference** — every job's filter was
///   recorded in the log, so a standby can always rebuild the
///   rendering path for `getlog`/`watch` after takeover.
/// * **Linear lease chain** — job ownership never overlapped: each
///   takeover's lease begins at or after the previous owner's expiry
///   ([`JobTable::check_lease_chain`]).
///
/// # Errors
///
/// A description of the first violated invariant; the telemetry
/// flight recorder is dumped alongside.
pub fn check_control_plane(reader: &StoreReader) -> Result<ControlCensus, String> {
    let events = ControlLog::replay(reader);
    let mut created: HashMap<String, u64> = HashMap::new();
    for (_, ev) in &events {
        if let ControlEvent::JobCreated { job, .. } = ev {
            *created.entry(job.clone()).or_default() += 1;
        }
    }
    let fail = |msg: String| {
        dpm_telemetry::dump_failure(&format!("invariant control-plane failed: {msg}"));
        Err(msg)
    };
    for (job, n) in &created {
        if *n > 1 {
            return fail(format!("job '{job}' created {n} times"));
        }
    }
    let mut table = JobTable::new();
    table.apply_all(events.iter().map(|(_, ev)| ev));
    for jr in table.jobs.values() {
        if table.filter(&jr.filter).is_none() {
            return fail(format!(
                "job '{}' references filter '{}' which the log never created",
                jr.name, jr.filter
            ));
        }
        if jr.removed || jr.finished() {
            continue;
        }
        if let Some(p) = jr.procs.iter().find(|p| !p.state.finished()) {
            return fail(format!(
                "job '{}' ended the log with process '{}' (pid {} on {}) still {} — \
                 no terminal state reached",
                jr.name, p.name, p.pid, p.machine, p.state
            ));
        }
    }
    if let Err(msg) = table.check_lease_chain() {
        return fail(msg);
    }
    Ok(ControlCensus {
        events: events.len() as u64,
        jobs_created: created.len(),
        jobs_live: table.live_jobs().len(),
        filters: table.filters.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_controlplane::ProcState;
    use dpm_logstore::{LogStore, MemBackend, StoreConfig};
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterTermProc, TermReason};
    use std::sync::Arc;

    fn record(machine: u16, pid: u32, seq: u32) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                machine,
                seq,
                cpu_time: 10,
                ..MeterHeader::default()
            },
            body: MeterBody::TermProc(MeterTermProc {
                pid,
                pc: 0,
                reason: TermReason::Normal,
            }),
        }
        .encode()
    }

    fn store_with(records: &[Vec<u8>]) -> StoreReader {
        let backend = Arc::new(MemBackend::new());
        let store = LogStore::open(backend.clone(), "inv", StoreConfig::default());
        let mut w = store.writer(0);
        for r in records {
            w.append(r);
        }
        w.sync();
        StoreReader::load(backend.as_ref(), "inv")
    }

    #[test]
    fn clean_store_passes_both_invariants() {
        let reader = store_with(&[
            record(1, 100, 1),
            record(1, 100, 2),
            record(2, 100, 1), // same pid on another machine is distinct
            record(1, 101, 1),
            record(1, 100, 3),
        ]);
        let c = check_exactly_once(&reader).expect("clean store");
        assert_eq!(c.frames, 5);
        assert_eq!(c.skipped, 0);
        assert_eq!(c.seqs[&(1, 100)], vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_seq_is_reported_with_coordinates() {
        let reader = store_with(&[record(1, 100, 1), record(1, 100, 2), record(1, 100, 2)]);
        let err = check_no_duplicates(&reader).unwrap_err();
        assert!(err.contains("machine 1 pid 100 seq 2"), "{err}");
        // Gaplessness treats the duplicate as one record and passes.
        check_gapless(&reader).expect("dup is not a gap");
    }

    #[test]
    fn gap_is_reported_and_unsequenced_records_are_exempt() {
        let reader = store_with(&[record(1, 100, 1), record(1, 100, 3), record(1, 200, 0)]);
        let err = check_gapless(&reader).unwrap_err();
        assert!(err.contains("expected seq 2, found 3"), "{err}");
        let c = check_no_duplicates(&reader).expect("no dups");
        assert_eq!(c.skipped, 1, "seq 0 is unsequenced and skipped");
    }

    fn control_store(events: &[ControlEvent]) -> StoreReader {
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), "ctl");
        for ev in events {
            log.append(ev);
        }
        StoreReader::load(backend.as_ref(), "ctl")
    }

    fn filter_created(name: &str) -> ControlEvent {
        ControlEvent::FilterCreated {
            name: name.to_owned(),
            machine: "red".to_owned(),
            pid: 7,
            port: 4000,
            logfile: format!("/usr/tmp/log.{name}"),
            shards: 1,
            role: "leaf".to_owned(),
            upstream: String::new(),
            desc_text: String::new(),
            templates_text: String::new(),
        }
    }

    #[test]
    fn clean_control_log_passes() {
        let reader = control_store(&[
            filter_created("f1"),
            ControlEvent::JobCreated {
                job: "j".to_owned(),
                filter: "f1".to_owned(),
            },
            ControlEvent::LeaseAcquired {
                job: "j".to_owned(),
                owner: "red:3000".to_owned(),
                at_us: 0,
                expires_us: 1_000,
            },
            ControlEvent::ProcAdded {
                job: "j".to_owned(),
                name: "worker".to_owned(),
                machine: "red".to_owned(),
                pid: 9,
                state: ProcState::New,
            },
            // A clean takeover: the next owner begins after expiry.
            ControlEvent::LeaseAcquired {
                job: "j".to_owned(),
                owner: "blue:3000".to_owned(),
                at_us: 1_500,
                expires_us: 2_500,
            },
            ControlEvent::ProcStateChanged {
                job: "j".to_owned(),
                machine: "red".to_owned(),
                pid: 9,
                state: ProcState::Killed,
            },
        ]);
        let c = check_control_plane(&reader).expect("clean control log");
        assert_eq!(c.events, 6);
        assert_eq!(c.jobs_created, 1);
        assert_eq!(c.jobs_live, 1);
        assert_eq!(c.filters, 1);
    }

    #[test]
    fn nonterminal_job_and_orphan_filter_are_reported() {
        let stuck = control_store(&[
            filter_created("f1"),
            ControlEvent::JobCreated {
                job: "j".to_owned(),
                filter: "f1".to_owned(),
            },
            ControlEvent::ProcAdded {
                job: "j".to_owned(),
                name: "worker".to_owned(),
                machine: "red".to_owned(),
                pid: 9,
                state: ProcState::Running,
            },
        ]);
        let err = check_control_plane(&stuck).unwrap_err();
        assert!(err.contains("no terminal state"), "{err}");

        let orphan = control_store(&[ControlEvent::JobCreated {
            job: "j".to_owned(),
            filter: "ghost".to_owned(),
        }]);
        let err = check_control_plane(&orphan).unwrap_err();
        assert!(err.contains("never created"), "{err}");
    }

    #[test]
    fn removed_process_needs_no_terminal_state() {
        let reader = control_store(&[
            filter_created("f1"),
            ControlEvent::JobCreated {
                job: "j".to_owned(),
                filter: "f1".to_owned(),
            },
            ControlEvent::ProcAdded {
                job: "j".to_owned(),
                name: "worker".to_owned(),
                machine: "red".to_owned(),
                pid: 9,
                state: ProcState::Stopped,
            },
            ControlEvent::ProcRemoved {
                job: "j".to_owned(),
                machine: "red".to_owned(),
                pid: 9,
            },
        ]);
        let c = check_control_plane(&reader).expect("removed process left the job");
        assert_eq!(c.jobs_live, 1);
    }

    #[test]
    fn overlapping_lease_owners_are_reported() {
        let reader = control_store(&[
            filter_created("f1"),
            ControlEvent::JobCreated {
                job: "j".to_owned(),
                filter: "f1".to_owned(),
            },
            ControlEvent::JobRemoved {
                job: "j".to_owned(),
            },
            ControlEvent::LeaseAcquired {
                job: "j".to_owned(),
                owner: "red:3000".to_owned(),
                at_us: 0,
                expires_us: 1_000,
            },
        ]);
        // Re-apply the lease under another owner before expiry by
        // appending a conflicting acquisition.
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), "ctl");
        log.append(&filter_created("f1"));
        log.append(&ControlEvent::JobCreated {
            job: "j".to_owned(),
            filter: "f1".to_owned(),
        });
        log.append(&ControlEvent::LeaseAcquired {
            job: "j".to_owned(),
            owner: "red:3000".to_owned(),
            at_us: 0,
            expires_us: 1_000,
        });
        log.append(&ControlEvent::LeaseAcquired {
            job: "j".to_owned(),
            owner: "blue:3000".to_owned(),
            at_us: 500, // before red's lease expired: split brain
            expires_us: 1_500,
        });
        log.append(&ControlEvent::JobRemoved {
            job: "j".to_owned(),
        });
        let bad = StoreReader::load(backend.as_ref(), "ctl");
        let err = check_control_plane(&bad).unwrap_err();
        assert!(err.contains("before"), "{err}");
        // The removed-job store above (no overlap) stays clean.
        check_control_plane(&reader).expect("removed job is terminal");
    }
}
