//! The replayable job table: folds a control-event stream back into
//! the full controller state.

use std::collections::BTreeMap;

use dpm_logstore::StoreReader;

use crate::event::ControlEvent;
use crate::log::ControlLog;

/// Ownership of one job: who holds it and until when (simulated
/// time). Renewed through the control log; a lapsed lease is the
/// takeover signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Owner id, `machine:control_port`.
    pub owner: String,
    /// When (µs, simulated) this lease was acquired or last renewed.
    pub at_us: u64,
    /// When (µs, simulated) it lapses unless renewed.
    pub expires_us: u64,
}

impl Lease {
    /// True once the lease has lapsed at simulated time `now_us`.
    pub fn expired(&self, now_us: u64) -> bool {
        now_us >= self.expires_us
    }
}

/// One process of a job, as the control log knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcRecord {
    /// Display name.
    pub name: String,
    /// Machine it runs on.
    pub machine: String,
    /// Its pid there.
    pub pid: u32,
    /// Last recorded state keyword (`new`, `acquired`, `running`,
    /// `stopped`, `killed`).
    pub state: String,
}

/// One job reconstructed from the control log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Job name.
    pub name: String,
    /// The filter collecting its trace.
    pub filter: String,
    /// Accumulated meter-flag bits.
    pub flags: u32,
    /// Its processes, in addition order.
    pub procs: Vec<ProcRecord>,
    /// Current lease, once one was acquired.
    pub lease: Option<Lease>,
    /// Every lease change applied, in log order — the material for
    /// [`JobTable::check_lease_chain`].
    pub lease_history: Vec<Lease>,
    /// True once `JobRemoved` was applied: the single terminal state.
    pub removed: bool,
}

impl JobRecord {
    fn proc_mut(&mut self, machine: &str, pid: u32) -> Option<&mut ProcRecord> {
        self.procs
            .iter_mut()
            .find(|p| p.machine == machine && p.pid == pid)
    }
}

/// One filter reconstructed from the control log — everything a
/// successor controller needs to re-bind to the live filter process
/// and render its store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRecord {
    /// Controller-local filter name.
    pub name: String,
    /// Machine it runs on.
    pub machine: String,
    /// Its pid there.
    pub pid: u32,
    /// Port metered processes connect to.
    pub port: u16,
    /// Log path (empty for edges).
    pub logfile: String,
    /// Shard count.
    pub shards: u32,
    /// Role keyword (`leaf` / `edge` / `aggregate`).
    pub role: String,
    /// Upstream `host:port`, empty when none.
    pub upstream: String,
    /// The descriptions text it filters with.
    pub desc_text: String,
    /// The selection-templates text it filters with.
    pub templates_text: String,
}

/// The folded state of a control-event stream.
///
/// Built either incrementally ([`apply`](JobTable::apply), as the
/// owning controller does alongside its own in-memory state) or in one
/// shot from a store ([`from_store`](JobTable::from_store), as a
/// standby does at takeover). The two constructions are equivalent by
/// definition — both are folds of the same stream — and the property
/// test in `tests/prop.rs` holds them to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTable {
    /// Jobs by name.
    pub jobs: BTreeMap<String, JobRecord>,
    /// Job names in creation order.
    pub order: Vec<String>,
    /// Filters in creation order.
    pub filters: Vec<FilterRecord>,
    /// Events applied so far.
    pub events: u64,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Folds one event into the table.
    ///
    /// Every arm tolerates out-of-order or stale input the same way
    /// replay must: an event naming an unknown job or process is
    /// dropped, a duplicate `JobCreated` is dropped, and a
    /// `LeaseRenewed` from anyone but the current owner is dropped
    /// (that last one is the safety property — a deposed controller's
    /// renewals are no-ops once a successor's `LeaseAcquired` is in
    /// the log).
    pub fn apply(&mut self, ev: &ControlEvent) {
        self.events += 1;
        match ev {
            ControlEvent::JobCreated { job, filter } => {
                if !self.jobs.contains_key(job) {
                    self.jobs.insert(
                        job.clone(),
                        JobRecord {
                            name: job.clone(),
                            filter: filter.clone(),
                            flags: 0,
                            procs: Vec::new(),
                            lease: None,
                            lease_history: Vec::new(),
                            removed: false,
                        },
                    );
                    self.order.push(job.clone());
                }
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
                let rec = FilterRecord {
                    name: name.clone(),
                    machine: machine.clone(),
                    pid: *pid,
                    port: *port,
                    logfile: logfile.clone(),
                    shards: *shards,
                    role: role.clone(),
                    upstream: upstream.clone(),
                    desc_text: desc_text.clone(),
                    templates_text: templates_text.clone(),
                };
                match self.filters.iter_mut().find(|f| f.name == *name) {
                    Some(existing) => *existing = rec,
                    None => self.filters.push(rec),
                }
            }
            ControlEvent::ProcAdded {
                job,
                name,
                machine,
                pid,
                state,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if j.proc_mut(machine, *pid).is_none() {
                        j.procs.push(ProcRecord {
                            name: name.clone(),
                            machine: machine.clone(),
                            pid: *pid,
                            state: state.clone(),
                        });
                    }
                }
            }
            ControlEvent::FlagsSet { job, flags } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    j.flags = *flags;
                }
            }
            ControlEvent::ProcStateChanged {
                job,
                machine,
                pid,
                state,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    if let Some(p) = j.proc_mut(machine, *pid) {
                        p.state = state.clone();
                    }
                }
            }
            ControlEvent::JobRemoved { job } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    j.removed = true;
                }
            }
            ControlEvent::LeaseAcquired {
                job,
                owner,
                at_us,
                expires_us,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    let lease = Lease {
                        owner: owner.clone(),
                        at_us: *at_us,
                        expires_us: *expires_us,
                    };
                    j.lease = Some(lease.clone());
                    j.lease_history.push(lease);
                }
            }
            ControlEvent::LeaseRenewed {
                job,
                owner,
                at_us,
                expires_us,
            } => {
                if let Some(j) = self.jobs.get_mut(job) {
                    let current = matches!(&j.lease, Some(l) if l.owner == *owner);
                    if current {
                        let lease = Lease {
                            owner: owner.clone(),
                            at_us: *at_us,
                            expires_us: *expires_us,
                        };
                        j.lease = Some(lease.clone());
                        j.lease_history.push(lease);
                    }
                }
            }
        }
    }

    /// Folds a whole event sequence.
    pub fn apply_all<'a, I: IntoIterator<Item = &'a ControlEvent>>(&mut self, evs: I) {
        for ev in evs {
            self.apply(ev);
        }
    }

    /// Reconstructs the table from a control-log store — the standby's
    /// first step at takeover.
    pub fn from_store(reader: &StoreReader) -> JobTable {
        let mut t = JobTable::new();
        for (_seq, ev) in ControlLog::replay(reader) {
            t.apply(&ev);
        }
        t
    }

    /// Jobs that are live (created, not yet removed), in creation
    /// order.
    pub fn live_jobs(&self) -> Vec<&JobRecord> {
        self.order
            .iter()
            .filter_map(|n| self.jobs.get(n))
            .filter(|j| !j.removed)
            .collect()
    }

    /// The filter record named `name`, if the log recorded one.
    pub fn filter(&self, name: &str) -> Option<&FilterRecord> {
        self.filters.iter().find(|f| f.name == name)
    }

    /// Verifies that every job's ownership history is a linear chain:
    /// the owner only ever changes to a successor whose acquisition
    /// time is at or past the previous lease's expiry — i.e. no two
    /// controllers ever held the same job at once.
    ///
    /// # Errors
    ///
    /// Names the job and the offending pair of leases.
    pub fn check_lease_chain(&self) -> Result<(), String> {
        for j in self.jobs.values() {
            for w in j.lease_history.windows(2) {
                let (prev, next) = (&w[0], &w[1]);
                if next.owner != prev.owner && next.at_us < prev.expires_us {
                    return Err(format!(
                        "job '{}': owner '{}' acquired at {}us before '{}' lease expired at {}us",
                        j.name, next.owner, next.at_us, prev.owner, prev.expires_us
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_logstore::MemBackend;
    use std::sync::Arc;

    fn ev_job(job: &str) -> ControlEvent {
        ControlEvent::JobCreated {
            job: job.into(),
            filter: "f1".into(),
        }
    }

    fn ev_proc(job: &str, machine: &str, pid: u32) -> ControlEvent {
        ControlEvent::ProcAdded {
            job: job.into(),
            name: format!("p{pid}"),
            machine: machine.into(),
            pid,
            state: "new".into(),
        }
    }

    fn ev_lease(job: &str, owner: &str, at_us: u64, expires_us: u64) -> ControlEvent {
        ControlEvent::LeaseAcquired {
            job: job.into(),
            owner: owner.into(),
            at_us,
            expires_us,
        }
    }

    #[test]
    fn fold_builds_expected_state() {
        let mut t = JobTable::new();
        t.apply_all(&[
            ev_job("foo"),
            ev_proc("foo", "red", 10),
            ControlEvent::FlagsSet {
                job: "foo".into(),
                flags: 0b11,
            },
            ControlEvent::ProcStateChanged {
                job: "foo".into(),
                machine: "red".into(),
                pid: 10,
                state: "running".into(),
            },
            ev_job("bar"),
            ControlEvent::JobRemoved { job: "bar".into() },
        ]);
        assert_eq!(t.order, vec!["foo", "bar"]);
        let foo = &t.jobs["foo"];
        assert_eq!(foo.flags, 0b11);
        assert_eq!(foo.procs[0].state, "running");
        assert!(t.jobs["bar"].removed);
        assert_eq!(t.live_jobs().len(), 1);
        assert_eq!(t.events, 6);
    }

    #[test]
    fn stale_and_unknown_events_are_dropped() {
        let mut t = JobTable::new();
        // Unknown job / proc: no-ops, no panic.
        t.apply(&ev_proc("ghost", "red", 1));
        t.apply(&ControlEvent::ProcStateChanged {
            job: "ghost".into(),
            machine: "red".into(),
            pid: 1,
            state: "killed".into(),
        });
        assert!(t.jobs.is_empty());
        // Duplicate create keeps the first binding.
        t.apply(&ev_job("foo"));
        t.apply(&ControlEvent::JobCreated {
            job: "foo".into(),
            filter: "other".into(),
        });
        assert_eq!(t.jobs["foo"].filter, "f1");
        assert_eq!(t.order.len(), 1);
        // Duplicate proc add (an AcquireMany retry) keeps one entry.
        t.apply(&ev_proc("foo", "red", 10));
        t.apply(&ev_proc("foo", "red", 10));
        assert_eq!(t.jobs["foo"].procs.len(), 1);
    }

    #[test]
    fn deposed_owner_renewals_are_noops() {
        let mut t = JobTable::new();
        t.apply(&ev_job("foo"));
        t.apply(&ev_lease("foo", "red:5000", 0, 100));
        // Standby takes over after expiry.
        t.apply(&ev_lease("foo", "green:5001", 150, 250));
        // The dead owner's buffered renewal lands late: dropped.
        t.apply(&ControlEvent::LeaseRenewed {
            job: "foo".into(),
            owner: "red:5000".into(),
            at_us: 160,
            expires_us: 260,
        });
        let lease = t.jobs["foo"].lease.as_ref().unwrap();
        assert_eq!(lease.owner, "green:5001");
        assert_eq!(lease.expires_us, 250);
        assert!(t.check_lease_chain().is_ok());
    }

    #[test]
    fn lease_chain_rejects_overlapping_owners() {
        let mut t = JobTable::new();
        t.apply(&ev_job("foo"));
        t.apply(&ev_lease("foo", "red:5000", 0, 1000));
        // A second controller grabbing the job before expiry is the
        // split-brain the chain check exists to name.
        t.apply(&ev_lease("foo", "green:5001", 500, 1500));
        let err = t.check_lease_chain().unwrap_err();
        assert!(err.contains("before"), "{err}");
        assert!(err.contains("red:5000"), "{err}");
    }

    #[test]
    fn renewal_by_owner_extends_lease() {
        let mut t = JobTable::new();
        t.apply(&ev_job("foo"));
        t.apply(&ev_lease("foo", "red:5000", 0, 1000));
        t.apply(&ControlEvent::LeaseRenewed {
            job: "foo".into(),
            owner: "red:5000".into(),
            at_us: 600,
            expires_us: 1600,
        });
        let lease = t.jobs["foo"].lease.as_ref().unwrap();
        assert_eq!(lease.expires_us, 1600);
        assert!(!lease.expired(1599));
        assert!(lease.expired(1600));
        assert!(t.check_lease_chain().is_ok());
    }

    #[test]
    fn from_store_matches_incremental_fold() {
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
        let events = vec![
            ev_job("foo"),
            ControlEvent::FilterCreated {
                name: "f1".into(),
                machine: "green".into(),
                pid: 44,
                port: 4000,
                logfile: "/usr/tmp/log.f1".into(),
                shards: 2,
                role: "leaf".into(),
                upstream: String::new(),
                desc_text: "send 1\n".into(),
                templates_text: String::new(),
            },
            ev_proc("foo", "red", 10),
            ev_lease("foo", "red:5000", 0, 2_000_000),
            ControlEvent::JobRemoved { job: "foo".into() },
        ];
        let mut incremental = JobTable::new();
        for ev in &events {
            log.append(ev);
            incremental.apply(ev);
        }
        let replayed = JobTable::from_store(&log.reader());
        assert_eq!(replayed, incremental);
        assert_eq!(replayed.filter("f1").unwrap().pid, 44);
    }
}
