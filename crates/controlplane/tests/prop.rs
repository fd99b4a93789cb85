//! The control plane's central property: a [`JobTable`] reconstructed
//! from a control-log store (`from_store`, the standby's path) is
//! exactly the table built by applying the same events incrementally
//! (the owner's path) — for *arbitrary* event interleavings, including
//! stale, duplicate, and unknown-job events.

use dpm_controlplane::{ControlEvent, ControlLog, JobTable};
use dpm_logstore::MemBackend;
use proptest::prelude::*;
use std::sync::Arc;

const DIR: &str = "/usr/tmp/control.prop";

const JOBS: [&str; 3] = ["alpha", "beta", "gamma"];
const MACHINES: [&str; 3] = ["red", "green", "blue"];
const OWNERS: [&str; 3] = ["red:5000", "green:5001", "blue:5002"];
const STATES: [&str; 5] = ["new", "acquired", "running", "stopped", "killed"];

/// One arbitrary control event drawn from small pools, so streams
/// routinely hit the same job/proc from several angles (duplicates,
/// unknown references, deposed-owner renewals).
fn arb_event() -> impl Strategy<Value = ControlEvent> {
    let job = 0usize..JOBS.len();
    prop_oneof![
        (job.clone(), 0usize..2).prop_map(|(j, f)| ControlEvent::JobCreated {
            job: JOBS[j].into(),
            filter: format!("f{f}"),
        }),
        (0usize..2, 0usize..MACHINES.len(), 1u32..5, 4000u16..4004).prop_map(
            |(f, m, pid, port)| ControlEvent::FilterCreated {
                name: format!("f{f}"),
                machine: MACHINES[m].into(),
                pid,
                port,
                logfile: format!("/usr/tmp/log.f{f}"),
                shards: 1 + (pid % 3),
                role: "leaf".into(),
                upstream: String::new(),
                desc_text: "send 1\nreceive 2\n".into(),
                templates_text: "type=1, pc=#*\n".into(),
            }
        ),
        (job.clone(), 0usize..MACHINES.len(), 10u32..14).prop_map(|(j, m, pid)| {
            ControlEvent::ProcAdded {
                job: JOBS[j].into(),
                name: format!("p{pid}"),
                machine: MACHINES[m].into(),
                pid,
                state: "new".into(),
            }
        }),
        (job.clone(), 0u32..16).prop_map(|(j, flags)| ControlEvent::FlagsSet {
            job: JOBS[j].into(),
            flags,
        }),
        (
            job.clone(),
            0usize..MACHINES.len(),
            10u32..14,
            0usize..STATES.len()
        )
            .prop_map(|(j, m, pid, s)| ControlEvent::ProcStateChanged {
                job: JOBS[j].into(),
                machine: MACHINES[m].into(),
                pid,
                state: STATES[s].into(),
            }),
        job.clone().prop_map(|j| ControlEvent::JobRemoved {
            job: JOBS[j].into()
        }),
        (job.clone(), 0usize..OWNERS.len(), 0u64..1000).prop_map(|(j, o, at)| {
            ControlEvent::LeaseAcquired {
                job: JOBS[j].into(),
                owner: OWNERS[o].into(),
                at_us: at,
                expires_us: at + 2_000,
            }
        }),
        (job, 0usize..OWNERS.len(), 0u64..1000).prop_map(|(j, o, at)| {
            ControlEvent::LeaseRenewed {
                job: JOBS[j].into(),
                owner: OWNERS[o].into(),
                at_us: at,
                expires_us: at + 2_000,
            }
        }),
    ]
}

proptest! {
    /// `from_store` == incremental fold, for any interleaving.
    #[test]
    fn from_store_equals_incremental_fold(
        events in proptest::collection::vec(arb_event(), 0..60),
    ) {
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), DIR);
        let mut incremental = JobTable::new();
        for ev in &events {
            log.append(ev);
            incremental.apply(ev);
        }
        let replayed = JobTable::from_store(&log.reader());
        prop_assert_eq!(&replayed, &incremental);
        prop_assert_eq!(replayed.events, events.len() as u64);
    }

    /// The wire codec is lossless for any event the pools produce.
    #[test]
    fn codec_round_trips(ev in arb_event()) {
        let wire = ev.encode();
        prop_assert_eq!(ControlEvent::decode(&wire).unwrap(), ev);
    }

    /// Replay order is indifferent to *how* the log was written —
    /// re-opening the log mid-stream (a controller restart) changes
    /// segments and writer state but not the reconstructed table.
    #[test]
    fn reopening_the_log_midstream_changes_nothing(
        events in proptest::collection::vec(arb_event(), 1..40),
        split in 0usize..40,
    ) {
        let split = split.min(events.len());

        let solid = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(solid.clone(), DIR);
        for ev in &events {
            log.append(ev);
        }
        let want = JobTable::from_store(&log.reader());

        let reopened = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(reopened.clone(), DIR);
        for ev in &events[..split] {
            log.append(ev);
        }
        drop(log);
        let mut log = ControlLog::open(reopened.clone(), DIR);
        for ev in &events[split..] {
            log.append(ev);
        }
        prop_assert_eq!(JobTable::from_store(&log.reader()), want);
    }
}
