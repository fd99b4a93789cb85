//! The aggregate filter: a tree node merging child record streams.
//!
//! A `role=aggregate` filter is the interior (usually the root) of a
//! filter tree. Its inputs are live record streams from children —
//! edge pre-filters forwarding their accepted records, leaf filters,
//! or raw meter connections; all of them speak the same record
//! framing. It merges everything it accepts by `(machine, pid, seq)`
//! into **one deterministic log**: records are buffered and written in
//! canonical key order once the tree goes quiet, so
//! `Trace::from_store` and the session's `check`/`getlog` commands
//! work unchanged at the root, and two trees fed the same records
//! produce byte-identical logs regardless of network arrival order.
//!
//! Duplicate suppression is one rule, [`SeqWindow`], asked twice. Each
//! child stream gets its own [`FilterEngine`], whose window absorbs
//! at-least-once retransmission of meter flushes on that connection;
//! the merge keeps one more window across all children and all drains,
//! which catches a child reconnecting after a partition and replaying
//! records the root already holds. Both are bounded per process. A
//! record the merge refuses for falling behind its window is counted
//! apart, as `agg/dedup_stale`: on every stream the repo produces that
//! count is 0, which is the evidence the window is wide enough.

use crate::args::FilterArgs;
use crate::desc::Descriptions;
use crate::engine::FilterEngine;
use crate::rules::Rules;
use crate::store::open_filter_store;
use dpm_meter::SeqWindow;
use dpm_simos::{connect_backoff, Backoff, BindTo, Domain, Proc, SockType, SysError, SysResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// How long the tree must stay quiet (no open children, no arrivals)
/// before the pending records are flushed as one canonical batch.
const QUIET_MS: u64 = 25;

/// Safety valve: pending bytes beyond which the merge flushes even
/// while children are still connected (bounds memory on long runs; the
/// log stays canonical *per batch*).
const MAX_PENDING_BYTES: usize = 8 * 1024 * 1024;

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

    /// Records awaiting the next flush.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
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
    pub fn stale(&self) -> u64 {
        self.window.stale()
    }
}

/// State shared between the connection readers and the flusher.
struct AggShared {
    state: Mutex<AggState>,
    done: AtomicBool,
}

struct AggState {
    merge: TreeMerge,
    open_conns: usize,
    last_touch: std::time::Instant,
}

/// Runs a `role=aggregate` filter: accept child record streams, merge
/// by `(machine, pid, seq)`, write one canonical log store.
///
/// The flush policy favors determinism: records are held until every
/// child connection has closed and the tree has been quiet for
/// a short quiet window (`QUIET_MS`), then written as a single batch
/// in canonical order — so after a job completes, the root's log *is*
/// in `(machine, pid, seq)` order. (A safety valve flushes early if
/// the pending set exceeds `MAX_PENDING_BYTES`; each batch is still
/// canonical.)
///
/// With `upstream=` set, drained raw records are additionally
/// forwarded to a parent filter, making trees of arbitrary depth.
///
/// # Errors
///
/// `EINVAL` for an unusable configuration; socket errors propagate;
/// runs until killed.
pub fn run_aggregate(
    p: &Proc,
    args: &FilterArgs,
    desc: Descriptions,
    rules: Rules,
) -> SysResult<()> {
    if args.logfile.is_empty() {
        return Err(SysError::Einval);
    }
    let mut writer = open_filter_store(p.machine(), &args.logfile).writer(0);

    // Optional upstream hop: a forked child owns the connection and
    // writes whatever the flusher hands it over a channel, keeping
    // all syscalls on simulated-process threads.
    let forward = match args.upstream_addr() {
        Some((host, port)) => {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            p.fork_with(move |c| {
                let up = connect_backoff(&c, &host, port, Backoff::new(100, 5, 160))?;
                while let Ok(batch) = rx.recv() {
                    c.write(up, &batch)?;
                }
                c.close(up)?;
                Ok(())
            })?;
            Some(tx)
        }
        None => None,
    };

    let shared = Arc::new(AggShared {
        state: Mutex::new(AggState {
            merge: TreeMerge::new(),
            open_conns: 0,
            last_touch: std::time::Instant::now(),
        }),
        done: AtomicBool::new(false),
    });

    let r = dpm_telemetry::registry();
    let dedup_hits = r.counter("agg", "dedup_hits", p.machine().name());
    let dedup_stale = r.counter("agg", "dedup_stale", p.machine().name());

    // The flusher is a plain thread: it only touches the merge (behind
    // the mutex), the machine's file system, and the forward channel.
    let flusher = {
        let shared = Arc::clone(&shared);
        let pending_gauge = r.gauge("agg", "pending_bytes", p.machine().name());
        std::thread::spawn(move || {
            loop {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let done = shared.done.load(Ordering::Acquire);
                let batch = {
                    let mut st = shared.state.lock();
                    let quiet =
                        st.last_touch.elapsed() >= std::time::Duration::from_millis(QUIET_MS);
                    let idle = st.open_conns == 0 && quiet;
                    let oversized = st.merge.pending_bytes() > MAX_PENDING_BYTES;
                    pending_gauge.set(st.merge.pending_bytes() as i64);
                    if st.merge.pending_len() > 0 && (idle || oversized || done) {
                        st.merge.drain()
                    } else {
                        Vec::new()
                    }
                };
                if !batch.is_empty() {
                    for rec in &batch {
                        writer.append(&rec.raw);
                    }
                    writer.flush();
                    if let Some(tx) = &forward {
                        let mut raw = Vec::new();
                        for rec in &batch {
                            raw.extend_from_slice(&rec.raw);
                        }
                        // A closed channel means the forwarder died;
                        // the local log is still authoritative.
                        let _ = tx.send(raw);
                    }
                }
                if done {
                    break;
                }
            }
            writer.sync();
            // Dropping `forward` closes the channel; the forwarder
            // child sees the disconnect and closes its connection.
        })
    };

    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(args.port))?;
    p.listen(listener, 32)?;

    let result = loop {
        let (conn, _peer) = match p.accept(listener) {
            Ok(pair) => pair,
            Err(e) => break Err(e), // killed (or machine down): wind down
        };
        {
            let mut st = shared.state.lock();
            st.open_conns += 1;
            st.last_touch = std::time::Instant::now();
        }
        let desc = desc.clone();
        let rules = rules.clone();
        let child_shared = Arc::clone(&shared);
        let (dedup_hits, dedup_stale) = (Arc::clone(&dedup_hits), Arc::clone(&dedup_stale));
        let fork = p.fork_with(move |c| {
            let mut engine = FilterEngine::new(desc, rules);
            let read_result = loop {
                let data = match c.read(conn, 4096) {
                    Ok(d) => d,
                    Err(e) => break Err(e),
                };
                if data.is_empty() {
                    break Ok(());
                }
                let mut st = child_shared.state.lock();
                engine.feed_records(&data, &mut |view, _rec| {
                    let stale = st.merge.stale();
                    let rec = MergedRecord {
                        raw: view.bytes().to_vec(),
                        line: String::new(),
                    };
                    let pid = view.pid().unwrap_or(0);
                    if !st.merge.insert(view.machine(), pid, view.seq(), rec) {
                        dedup_hits.inc();
                        dedup_stale.add(st.merge.stale() - stale);
                    }
                });
                st.last_touch = std::time::Instant::now();
                drop(st);
            };
            let mut st = child_shared.state.lock();
            st.open_conns -= 1;
            st.last_touch = std::time::Instant::now();
            drop(st);
            let _ = c.close(conn);
            read_result
        });
        if let Err(e) = fork {
            shared.state.lock().open_conns -= 1;
            break Err(e);
        }
        // The parent's reference to the connection is the child's now.
        if let Err(e) = p.close(conn) {
            break Err(e);
        }
    };

    shared.done.store(true, Ordering::Release);
    let _ = flusher.join();
    result
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
        assert_eq!(m.pending_len(), 0);
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
