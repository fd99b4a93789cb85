//! The aggregate filter: a tree node merging child record streams.
//!
//! A `role=aggregate` filter is the interior (usually the root) of a
//! filter tree. Its inputs are live record streams from children —
//! edge pre-filters forwarding their accepted records, leaf filters,
//! other aggregates, or raw meter connections; all of them speak the
//! same record framing. Like a leaf filter (§3.3–3.4) it appends each
//! surviving record to its log store as it arrives, so `watch` on a
//! tree root streams while the job runs and a root fed by another
//! aggregate fills as its child does. The store is in arrival order;
//! the canonical `(machine, pid, seq)` order that makes two trees fed
//! the same records agree is a view over it
//! (`Trace::from_store_canonical`).
//!
//! Duplicate suppression is one rule, [`SeqWindow`], asked twice. Each
//! child stream gets its own [`FilterEngine`](crate::FilterEngine),
//! whose window absorbs at-least-once retransmission of meter flushes
//! on that connection; the merge keeps one more window across all
//! children, which catches a child reconnecting after a partition and
//! replaying records the root already holds. Both are bounded per
//! process. A record the merge refuses for falling behind its window
//! is counted apart, as `agg/dedup_stale`: on every stream the repo
//! produces that count is 0, which is the evidence the window is wide
//! enough.

use crate::args::FilterArgs;
use crate::desc::Descriptions;
use crate::prefilter::relay;
use crate::rules::Rules;
use crate::store::open_filter_store;
use dpm_meter::SeqWindow;
use dpm_simos::{Proc, SysError, SysResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One record held by the merge: its raw wire bytes (what the store
/// appends and the upstream hop forwards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRecord {
    /// Raw wire bytes, header + body.
    pub raw: Vec<u8>,
    /// Left empty by the aggregate: the §3.4 line is a view `getlog`
    /// renders from `raw`.
    pub line: String,
}

/// The deterministic merge at the heart of an aggregate filter:
/// accepted records go in keyed by `(machine, pid, seq)`, batches come
/// out in canonical key order, and sequenced records pass one
/// [`SeqWindow`] that outlives drains, so a child replaying after
/// reconnect cannot re-insert.
#[derive(Debug, Default)]
pub struct TreeMerge {
    window: SeqWindow,
    /// Records awaiting the next canonical flush. The arrival counter
    /// in the key orders unsequenced (`seq == 0`) records, which may
    /// legitimately repeat, without ever colliding.
    pending: BTreeMap<(u16, u32, u32, u64), MergedRecord>,
    pending_bytes: usize,
    arrivals: u64,
    duplicates: u64,
}

impl TreeMerge {
    /// A fresh, empty merge.
    #[must_use]
    pub fn new() -> TreeMerge {
        TreeMerge::default()
    }

    /// Offers one accepted record. Returns `false` (and keeps the
    /// record out) when the window refuses it: a record with the same
    /// `(machine, pid, seq)` was already accepted, or it is stale.
    /// Unsequenced records (`seq == 0`) are always taken, in arrival
    /// order.
    pub fn insert(&mut self, machine: u16, pid: u32, seq: u32, rec: MergedRecord) -> bool {
        if !self.window.admit(machine, pid, seq) {
            self.duplicates += 1;
            return false;
        }
        self.arrivals += 1;
        self.pending_bytes += rec.raw.len();
        self.pending.insert((machine, pid, seq, self.arrivals), rec);
        true
    }

    /// Takes everything pending, sorted by `(machine, pid, seq)` (and
    /// arrival order within a key). The dedup memory is kept.
    pub fn drain(&mut self) -> Vec<MergedRecord> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending).into_values().collect()
    }

    /// Bytes of raw record data awaiting the next flush.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Sequenced records dropped, stale ones included.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Records dropped for falling behind the window.
    #[must_use]
    pub(crate) fn stale(&self) -> u64 {
        self.window.stale()
    }
}

/// Runs a `role=aggregate` filter: accept child record streams
/// through the `relay` loop and append every record the merge
/// admits to one log store, chunk by chunk as it arrives.
///
/// One lock covers the merge and the store writer, so a chunk's
/// records are deduplicated against every child, drained, appended
/// and flushed as a unit. With `upstream=` set, the same records go on
/// to a parent filter over the reader's own upstream connection,
/// making trees of arbitrary depth.
///
/// # Errors
///
/// `EINVAL` for an unusable configuration; socket errors propagate;
/// runs until killed.
pub(crate) fn run_aggregate(
    p: &Proc,
    args: &FilterArgs,
    desc: Descriptions,
    rules: Rules,
) -> SysResult<()> {
    if args.logfile.is_empty() {
        return Err(SysError::Einval);
    }
    let writer = open_filter_store(p.machine(), &args.logfile).writer(0);
    let sink = Arc::new(Mutex::new((TreeMerge::new(), writer)));
    let r = dpm_telemetry::registry();
    let dedup_hits = r.counter("agg", "dedup_hits", p.machine().name());
    let dedup_stale = r.counter("agg", "dedup_stale", p.machine().name());
    relay(p, args, desc, rules, move |engine, data, out| {
        let mut guard = sink.lock();
        let (merge, writer) = &mut *guard;
        engine.feed_records(data, &mut |view, _rec| {
            let stale = merge.stale();
            let rec = MergedRecord {
                raw: view.bytes().to_vec(),
                line: String::new(),
            };
            let pid = view.pid().unwrap_or(0);
            if !merge.insert(view.machine(), pid, view.seq(), rec) {
                dedup_hits.inc();
                dedup_stale.add(merge.stale() - stale);
            }
        });
        for rec in merge.drain() {
            writer.append(&rec.raw);
            out.extend_from_slice(&rec.raw);
        }
        writer.flush();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u8) -> MergedRecord {
        MergedRecord {
            raw: vec![tag; 4],
            line: format!("rec{tag}"),
        }
    }

    #[test]
    fn drain_is_canonically_ordered() {
        let mut m = TreeMerge::new();
        // Arrival order scrambled across machines, pids, and seqs.
        assert!(m.insert(2, 10, 1, rec(1)));
        assert!(m.insert(1, 20, 2, rec(2)));
        assert!(m.insert(1, 10, 2, rec(3)));
        assert!(m.insert(1, 10, 1, rec(4)));
        assert!(m.insert(2, 10, 3, rec(5)));
        let tags: Vec<u8> = m.drain().into_iter().map(|r| r.raw[0]).collect();
        assert_eq!(tags, vec![4, 3, 2, 1, 5]);
        assert!(m.drain().is_empty());
    }

    #[test]
    fn sequenced_duplicates_are_dropped_even_across_drains() {
        let mut m = TreeMerge::new();
        assert!(m.insert(1, 10, 1, rec(1)));
        assert!(!m.insert(1, 10, 1, rec(9)), "same batch duplicate");
        let first = m.drain();
        assert_eq!(first.len(), 1);
        // A replay after the flush (child reconnected) is still a
        // duplicate: the dedup memory outlives the drain.
        assert!(!m.insert(1, 10, 1, rec(9)));
        assert!(m.drain().is_empty());
        assert_eq!(m.duplicates(), 2);
    }

    #[test]
    fn unsequenced_records_keep_arrival_order_and_never_collide() {
        let mut m = TreeMerge::new();
        assert!(m.insert(1, 10, 0, rec(1)));
        assert!(m.insert(1, 10, 0, rec(2)));
        assert!(m.insert(1, 10, 0, rec(3)));
        let tags: Vec<u8> = m.drain().into_iter().map(|r| r.raw[0]).collect();
        assert_eq!(tags, vec![1, 2, 3], "seq 0: arrival order, none lost");
    }

    #[test]
    fn pending_bytes_track_raw_sizes() {
        let mut m = TreeMerge::new();
        m.insert(1, 1, 1, rec(1));
        m.insert(1, 1, 2, rec(2));
        assert_eq!(m.pending_bytes(), 8);
        m.drain();
        assert_eq!(m.pending_bytes(), 0);
    }
}
