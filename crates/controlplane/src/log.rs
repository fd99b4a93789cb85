//! The durable control log: an append-only stream of
//! [`ControlEvent`] records in a dedicated [`dpm_logstore`] store.

use std::sync::Arc;

use dpm_logstore::{Backend, LogStore, SegmentWriter, StoreConfig, StoreReader};

use crate::event::ControlEvent;

/// All control events go to one shard — the stream is tiny next to a
/// meter trace and total order is the point.
pub(crate) const CONTROL_SHARD: u16 = 0;

/// Append handle on a control-log store.
///
/// Every [`append`](ControlLog::append) flushes, so a standby reading
/// the same store never trails the owner by more than the record in
/// flight — the price is one backend write per event, which control
/// traffic (tens of events per job) easily affords.
pub struct ControlLog {
    store: LogStore,
    writer: SegmentWriter,
}

impl ControlLog {
    /// Opens (or re-opens) the control log at `dir` on `backend`.
    /// Re-opening an existing log resumes appending after the last
    /// durable record, exactly like any other store.
    pub fn open(backend: Arc<dyn Backend>, dir: &str) -> ControlLog {
        let store = LogStore::open(backend, dir, StoreConfig::default());
        let writer = store.writer(CONTROL_SHARD);
        ControlLog { store, writer }
    }

    /// Appends one event and flushes it to the backend. Returns the
    /// store sequence number assigned to the record.
    pub fn append(&mut self, ev: &ControlEvent) -> u64 {
        let seq = self.writer.append(&ev.encode());
        self.writer.flush();
        dpm_telemetry::registry()
            .counter("controlplane", "events_appended", "")
            .inc();
        seq
    }

    /// The store directory the log lives in.
    pub fn dir(&self) -> &str {
        self.store.dir()
    }

    /// A reader over everything durable so far, including this
    /// handle's own appends.
    pub fn reader(&self) -> StoreReader {
        self.store.reader()
    }

    /// Decodes the control events in `reader`'s store in sequence
    /// order, paired with their store sequence numbers. Frames that
    /// are not control events (wrong magic, future version, torn) are
    /// skipped, so the log shares a reader with anything else.
    pub fn replay(reader: &StoreReader) -> Vec<(u64, ControlEvent)> {
        let mut out = Vec::new();
        for f in reader.scan() {
            if let Ok(ev) = ControlEvent::decode(f.raw) {
                out.push((f.seq, ev));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_logstore::MemBackend;

    #[test]
    fn append_is_immediately_durable() {
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
        let ev = ControlEvent::JobCreated {
            job: "foo".into(),
            filter: "f1".into(),
        };
        log.append(&ev);
        // No explicit flush/sync/drop: a second handle on the same
        // backend already sees the record.
        let reader = StoreReader::load(backend.as_ref(), "/usr/tmp/control");
        let got = ControlLog::replay(&reader);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ev);
    }

    #[test]
    fn reopen_resumes_sequence() {
        let backend = Arc::new(MemBackend::new());
        let first_seq;
        {
            let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
            first_seq = log.append(&ControlEvent::JobRemoved { job: "a".into() });
        }
        let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
        let second_seq = log.append(&ControlEvent::JobRemoved { job: "b".into() });
        assert!(second_seq > first_seq);
        let got = ControlLog::replay(&log.reader());
        assert_eq!(got.len(), 2);
        assert!(got[0].0 < got[1].0, "replay is in sequence order");
    }

    #[test]
    fn replay_skips_foreign_frames() {
        let backend = Arc::new(MemBackend::new());
        let mut log = ControlLog::open(backend.clone(), "/usr/tmp/control");
        // A raw meter-style record interleaved in the same store.
        log.writer.append(b"not a control event");
        log.writer.flush();
        log.append(&ControlEvent::JobRemoved { job: "x".into() });
        let got = ControlLog::replay(&log.reader());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, ControlEvent::JobRemoved { job: "x".into() });
    }
}
