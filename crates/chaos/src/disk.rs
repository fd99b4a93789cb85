//! Disk fault injection for the log store.
//!
//! [`FaultyBackend`] wraps any log store [`Backend`] and makes
//! [`Backend::try_append`] fail on a deterministic schedule: every Nth
//! append tears (a prefix of the data lands, then the call errors) or
//! fails cleanly. The group-commit writer is expected to heal torn
//! tails by reading the file back and truncating before retrying —
//! which is exactly what these faults exist to exercise.

use std::io;
use std::sync::Arc;

use dpm_logstore::{Backend, StoreSource};
use parking_lot::Mutex;

use crate::spec::DiskSpec;

/// Running totals of what the backend injected, for test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    /// Appends attempted (including ones that failed).
    pub appends: u64,
    /// Appends that tore: a prefix was written, then the call failed.
    pub torn: u64,
    /// Appends that failed cleanly with nothing written.
    pub errors: u64,
}

/// A [`Backend`] decorator that injects torn writes and transient
/// append errors on a counter schedule from a [`DiskSpec`].
///
/// The schedule is a pure function of the append counter — append
/// number `k` tears iff `torn_every > 0 && k % torn_every == 0`
/// (1-based), and likewise for clean errors — so a single-writer
/// store sees the identical fault sequence on every run. Reads,
/// replacing writes, listing and sync pass through untouched: the
/// store must always be able to *heal*, only fresh appends are flaky.
pub struct FaultyBackend {
    inner: Arc<dyn Backend>,
    spec: DiskSpec,
    state: Mutex<DiskFaultStats>,
}

impl FaultyBackend {
    /// Wraps `inner` with the fault schedule in `spec`.
    pub fn new(inner: Arc<dyn Backend>, spec: DiskSpec) -> FaultyBackend {
        FaultyBackend {
            inner,
            spec,
            state: Mutex::new(DiskFaultStats::default()),
        }
    }

    /// What has been injected so far.
    pub fn stats(&self) -> DiskFaultStats {
        *self.state.lock()
    }
}

impl Backend for FaultyBackend {
    fn append(&self, name: &str, data: &[u8]) {
        // The infallible path cannot report a fault; pass through so
        // index sidecars and non-chaos-aware callers stay correct.
        self.inner.append(name, data);
    }

    fn try_append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let (tear, fail) = {
            let mut st = self.state.lock();
            st.appends += 1;
            let k = st.appends;
            let tear =
                self.spec.torn_every > 0 && k.is_multiple_of(u64::from(self.spec.torn_every));
            // A torn write takes precedence over a clean error when the
            // schedules collide — it is the harder case to heal.
            let fail = !tear
                && self.spec.error_every > 0
                && k.is_multiple_of(u64::from(self.spec.error_every));
            if tear {
                st.torn += 1;
            }
            if fail {
                st.errors += 1;
            }
            (tear, fail)
        };
        if tear {
            self.inner.append(name, &data[..data.len() / 2]);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected torn write",
            ));
        }
        if fail {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient append error",
            ));
        }
        self.inner.try_append(name, data)
    }

    fn write(&self, name: &str, data: &[u8]) {
        self.inner.write(name, data);
    }

    fn sync(&self, name: &str) {
        self.inner.sync(name);
    }
}

impl StoreSource for FaultyBackend {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_logstore::MemBackend;

    #[test]
    fn faults_fire_on_the_counter_schedule() {
        let inner = Arc::new(MemBackend::new());
        let spec = DiskSpec {
            torn_every: 3,
            error_every: 0,
        };
        let b = FaultyBackend::new(inner.clone(), spec);
        assert!(b.try_append("f", b"aabb").is_ok()); // 1
        assert!(b.try_append("f", b"ccdd").is_ok()); // 2
        let torn = b.try_append("f", b"eeff"); // 3: tears
        assert!(torn.is_err());
        // Half the torn payload landed — the healing path's job.
        assert_eq!(inner.read("f").unwrap(), b"aabbccddee");
        assert!(b.try_append("f", b"gg").is_ok()); // 4
        let st = b.stats();
        assert_eq!((st.appends, st.torn, st.errors), (4, 1, 0));
    }

    #[test]
    fn clean_errors_write_nothing_and_heal_paths_pass_through() {
        let inner = Arc::new(MemBackend::new());
        let spec = DiskSpec {
            torn_every: 0,
            error_every: 2,
        };
        let b = FaultyBackend::new(inner.clone(), spec);
        assert!(b.try_append("f", b"11").is_ok()); // 1
        assert!(b.try_append("f", b"22").is_err()); // 2: clean failure
        assert_eq!(inner.read("f").unwrap(), b"11");
        // Healing uses `write` (truncate/replace): never faulted.
        b.write("f", b"healed");
        assert_eq!(b.read("f").unwrap(), b"healed");
        assert_eq!(b.list(""), vec!["f".to_owned()]);
        b.sync("f");
        assert_eq!(b.stats().errors, 1);
    }

    #[test]
    fn torn_beats_error_when_schedules_collide() {
        let inner = Arc::new(MemBackend::new());
        let spec = DiskSpec {
            torn_every: 2,
            error_every: 2,
        };
        let b = FaultyBackend::new(inner, spec);
        assert!(b.try_append("f", b"xx").is_ok());
        assert!(b.try_append("f", b"yy").is_err());
        let st = b.stats();
        assert_eq!((st.torn, st.errors), (1, 0));
    }
}
