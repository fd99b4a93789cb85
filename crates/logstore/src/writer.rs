//! The store handle and the group-commit segment writer.
//!
//! A [`LogStore`] owns one store directory on one [`Backend`] and
//! hands out per-shard [`SegmentWriter`]s. All writers share a single
//! arrival-sequence counter and a single monotonic clock, so records
//! accepted concurrently by different filter shards interleave into
//! one global order that readers can merge deterministically.
//!
//! ## Group commit
//!
//! `append` encodes the frame into an in-memory batch; nothing
//! reaches the backend until the batch crosses
//! [`StoreConfig::batch_bytes`], the segment rotates, or the caller
//! invokes [`SegmentWriter::flush`] (the filter pipeline flushes on
//! idle, on connection close, and at shutdown — mirroring the text
//! sink's batching discipline). `flush` also replaces the segment's
//! index sidecar, so a reader opening after any flush sees an index
//! that exactly covers the durable bytes. [`SegmentWriter::sync`]
//! additionally asks the backend to make the segment durable.
//!
//! ## Recovery
//!
//! [`LogStore::open`] resumes an existing store: the sequence counter
//! restarts past the largest stored seq, and each shard's writer
//! validates its newest segment frame by frame, truncating a torn
//! tail (a partially appended frame) back to the last valid frame
//! before appending anything new. Everything before the tear
//! survives; everything after the reopen lands on a clean boundary.

use crate::backend::Backend;
use crate::format::{decode_seg_header, encode_frame, encode_seg_header, proc_id_of, Envelope};
use crate::index::SegmentIndex;
use crate::reader::StoreReader;
use dpm_telemetry::{Counter, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tunables for a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rotate a segment once it reaches this many bytes.
    pub segment_bytes: usize,
    /// Group-commit threshold: flush the in-memory batch when it
    /// holds at least this many bytes (0 commits every record).
    pub batch_bytes: usize,
    /// Sparse-index period: one offset entry per this many records.
    pub index_every: u32,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_bytes: 256 * 1024,
            batch_bytes: 8 * 1024,
            index_every: 64,
        }
    }
}

/// The file name of shard `shard`'s segment number `no` under `dir`.
///
/// Segment numbering is per shard and dense from zero. Discovery goes
/// through a directory listing ([`crate::reader::list_segments`]);
/// the dense numbering is what lets [`crate::StoreTail::poll`]
/// classify a listing into sealed and in-progress segments.
pub fn segment_name(dir: &str, shard: u16, no: u32) -> String {
    format!("{dir}/s{shard:04}-{no:08}.seg")
}

/// The index sidecar name for a segment file name.
pub fn index_name(seg_name: &str) -> String {
    format!("{}.idx", seg_name.trim_end_matches(".seg"))
}

/// The seal-manifest file name under a store directory. The manifest
/// holds one line per sealed segment, appended by
/// [`seal_manifest_hook`]; a live consumer reads it to learn about
/// seals without re-reading segment bytes.
pub fn seals_name(dir: &str) -> String {
    format!("{}/SEALS", dir.trim_end_matches('/'))
}

/// Describes one sealed (rotated-away-from) segment, handed to the
/// store's [`SealHook`] at the moment of rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealInfo {
    /// The sealed segment's file name.
    pub name: String,
    /// Shard whose writer rotated.
    pub shard: u16,
    /// The sealed segment's number.
    pub seg_no: u32,
    /// Valid frames the sealed segment holds.
    pub frames: u64,
    /// Durable bytes of the sealed segment (header + frames).
    pub bytes: u64,
    /// Seq of the segment's last frame (`None` if it sealed empty).
    pub last_seq: Option<u64>,
}

/// Callback invoked by a shard writer right after it seals a segment
/// (flushes it for the last time and moves to the next segment
/// number). Runs on the appending thread, so it must be cheap.
pub type SealHook = Arc<dyn Fn(&SealInfo) + Send + Sync>;

/// Returns a [`SealHook`] that appends one human-readable line per
/// sealed segment to the store's `SEALS` manifest file — the seal
/// notification a filter installs so live consumers (the controller's
/// `watch`) learn about rotation by reading one small file.
pub fn seal_manifest_hook(backend: Arc<dyn Backend>, dir: &str) -> SealHook {
    let manifest = seals_name(dir);
    Arc::new(move |info: &SealInfo| {
        let base = info.name.rsplit('/').next().unwrap_or(&info.name);
        let last = info.last_seq.map_or(-1, |s| s as i64);
        let line = format!(
            "sealed {} shard={} frames={} bytes={} last_seq={}\n",
            base, info.shard, info.frames, info.bytes, last
        );
        backend.append(&manifest, line.as_bytes());
    })
}

/// A handle on one store directory.
pub struct LogStore {
    backend: Arc<dyn Backend>,
    dir: String,
    cfg: StoreConfig,
    /// Next arrival seq, shared by every shard writer.
    seq: Arc<AtomicU64>,
    /// Monotonic clock: stored ts = `ts_base + origin.elapsed()`.
    origin: Instant,
    ts_base: u64,
    /// Invoked by every shard writer when it seals a segment.
    seal_hook: Option<SealHook>,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .field("next_seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl LogStore {
    /// Opens (or creates) the store at `dir` on `backend`.
    ///
    /// When segments already exist, the arrival-sequence counter and
    /// the monotonic clock resume past everything stored, so new
    /// appends extend the global order instead of colliding with it.
    pub fn open(backend: Arc<dyn Backend>, dir: &str, cfg: StoreConfig) -> LogStore {
        // Survey existing data for the seq/ts high-water marks. The
        // reader tolerates torn tails, so this is safe pre-recovery.
        let reader = StoreReader::load(backend.as_ref(), dir);
        let (mut max_seq, mut max_ts) = (None::<u64>, 0u64);
        for f in reader.scan() {
            max_seq = Some(max_seq.map_or(f.seq, |m: u64| m.max(f.seq)));
            max_ts = max_ts.max(f.ts_us);
        }
        LogStore {
            backend,
            dir: dir.to_owned(),
            cfg,
            seq: Arc::new(AtomicU64::new(max_seq.map_or(0, |m| m + 1))),
            // The process-wide telemetry epoch, not a private Instant:
            // every store stamps `ts_us` on the same real-time axis, so
            // downstream stages can subtract a frame's `ts_us` from
            // `dpm_telemetry::now_us()` to measure pipeline staleness.
            // On reopen, `ts_base` only lifts stamps enough to clear
            // the stored high-water mark; once the epoch clock passes
            // it, stamps are back on the shared axis exactly.
            origin: dpm_telemetry::epoch(),
            ts_base: if max_seq.is_some() {
                (max_ts + 1).saturating_sub(dpm_telemetry::now_us())
            } else {
                0
            },
            seal_hook: None,
        }
    }

    /// Installs the hook every subsequently-created shard writer
    /// invokes when it seals a segment (see [`SealHook`]).
    pub fn set_seal_hook(&mut self, hook: SealHook) {
        self.seal_hook = Some(hook);
    }

    /// The store directory.
    pub fn dir(&self) -> &str {
        &self.dir
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// The next arrival sequence number (what the next accepted
    /// record will be stamped with).
    pub fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Creates the group-commit writer for one shard, recovering the
    /// shard's newest segment first (see the module docs).
    pub fn writer(&self, shard: u16) -> SegmentWriter {
        SegmentWriter::open(
            Arc::clone(&self.backend),
            self.dir.clone(),
            shard,
            self.cfg,
            Arc::clone(&self.seq),
            self.origin,
            self.ts_base,
            self.seal_hook.clone(),
        )
    }

    /// A read snapshot over everything flushed so far.
    pub fn reader(&self) -> StoreReader {
        StoreReader::load(self.backend.as_ref(), &self.dir)
    }
}

/// The group-commit writer for one shard's segment stream.
pub struct SegmentWriter {
    backend: Arc<dyn Backend>,
    dir: String,
    shard: u16,
    cfg: StoreConfig,
    seq: Arc<AtomicU64>,
    origin: Instant,
    ts_base: u64,
    /// Current segment number.
    seg_no: u32,
    /// Bytes of the current segment already handed to the backend.
    durable: usize,
    /// Pending group-commit batch (frames, and the segment header
    /// when the segment is brand new).
    batch: Vec<u8>,
    /// Index of the current segment (covers durable + batch).
    index: SegmentIndex,
    /// Whether the next append must open a fresh segment.
    need_header: bool,
    /// Records appended through this writer (all segments).
    appended: u64,
    /// Last timestamp issued, to keep per-shard stamps monotonic.
    last_ts: u64,
    /// Seq of the last frame appended to the current segment.
    seg_last_seq: Option<u64>,
    /// Store timestamp of the current segment's first frame, for the
    /// append→seal staleness readout.
    seg_first_ts: Option<u64>,
    /// Invoked after sealing a segment in [`SegmentWriter::roll`].
    seal_hook: Option<SealHook>,
    /// Per-shard self-telemetry handles (registered once at open).
    tm: WriterTelemetry,
}

/// Cached global-registry handles for one shard writer.
struct WriterTelemetry {
    /// Size of each committed group-commit batch, bytes.
    flush_bytes: Arc<Histogram>,
    /// Torn tails truncated back before a flush retry.
    torn_heals: Arc<Counter>,
    /// Flushes that exhausted every retry and kept the batch.
    flush_failures: Arc<Counter>,
    /// Segments sealed by rotation.
    seals: Arc<Counter>,
    /// Age of a segment at seal time: seal − first append, µs.
    seal_age_us: Arc<Histogram>,
}

impl WriterTelemetry {
    fn register(shard: u16) -> WriterTelemetry {
        let r = dpm_telemetry::registry();
        let label = format!("s{shard}");
        WriterTelemetry {
            flush_bytes: r.histogram("store", "flush_batch_bytes", &label),
            torn_heals: r.counter("store", "torn_heals", &label),
            flush_failures: r.counter("store", "flush_failures", &label),
            seals: r.counter("store", "seals", &label),
            seal_age_us: r.histogram("e2e", "append_to_seal_us", &label),
        }
    }
}

impl std::fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("dir", &self.dir)
            .field("shard", &self.shard)
            .field("seg_no", &self.seg_no)
            .field("durable", &self.durable)
            .field("pending", &self.batch.len())
            .finish()
    }
}

impl SegmentWriter {
    #[allow(clippy::too_many_arguments)]
    fn open(
        backend: Arc<dyn Backend>,
        dir: String,
        shard: u16,
        cfg: StoreConfig,
        seq: Arc<AtomicU64>,
        origin: Instant,
        ts_base: u64,
        seal_hook: Option<SealHook>,
    ) -> SegmentWriter {
        let mut w = SegmentWriter {
            backend,
            dir,
            shard,
            cfg,
            seq,
            origin,
            ts_base,
            seg_no: 0,
            durable: 0,
            batch: Vec::new(),
            index: SegmentIndex::new(cfg.index_every),
            need_header: true,
            appended: 0,
            last_ts: 0,
            seg_last_seq: None,
            seg_first_ts: None,
            seal_hook,
            tm: WriterTelemetry::register(shard),
        };
        w.recover();
        w
    }

    /// Resumes this shard's newest segment: truncate-to-last-valid-
    /// frame, then rebuild its in-memory index.
    fn recover(&mut self) {
        let prefix = format!("{}/s{:04}-", self.dir, self.shard);
        let mut segs: Vec<String> = self
            .backend
            .list(&prefix)
            .into_iter()
            .filter(|n| n.ends_with(".seg"))
            .collect();
        segs.sort();
        let Some(last) = segs.last() else { return };
        let Some((_, no)) = seg_ids_of(last) else {
            return;
        };
        let bytes = self.backend.read(last).unwrap_or_default();
        if decode_seg_header(&bytes).is_none() {
            // The header itself was torn: reuse the file from scratch.
            self.backend.write(last, &[]);
            self.seg_no = no;
            self.need_header = true;
            return;
        }
        let index = SegmentIndex::rebuild(&bytes, self.cfg.index_every);
        let valid_len = index.data_len as usize;
        if valid_len < bytes.len() {
            // Torn write: drop the partial frame at the tail.
            self.backend.write(last, &bytes[..valid_len]);
        }
        self.backend.write(&index_name(last), &index.encode());
        // Recover the segment's last seq for future seal notices.
        let mut off = index
            .sparse
            .last()
            .map_or(crate::format::SEG_HEADER_LEN, |e| e.off as usize);
        while let Some((env, _, next)) = crate::format::decode_frame(&bytes[..valid_len], off) {
            self.seg_last_seq = Some(env.seq);
            off = next;
        }
        self.seg_no = no;
        self.durable = valid_len;
        self.index = index;
        self.need_header = false;
    }

    /// The shard this writer serves.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Records appended through this writer so far.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Bytes waiting in the group-commit batch.
    pub fn pending_bytes(&self) -> usize {
        self.batch.len()
    }

    fn now_us(&mut self) -> u64 {
        let ts = self.ts_base + self.origin.elapsed().as_micros() as u64;
        self.last_ts = self.last_ts.max(ts);
        self.last_ts
    }

    /// Appends one raw meter record; returns its arrival seq.
    ///
    /// The record lands in the in-memory batch; call
    /// [`SegmentWriter::flush`] (or let the batch threshold trip) to
    /// make it readable, and [`SegmentWriter::sync`] to make it
    /// durable.
    pub fn append(&mut self, raw: &[u8]) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.now_us();
        if self.need_header {
            self.batch
                .extend_from_slice(&encode_seg_header(self.shard, seq, ts_us));
            self.need_header = false;
        }
        let off = (self.durable + self.batch.len()) as u32;
        let env = Envelope {
            seq,
            ts_us,
            shard: self.shard,
            proc: proc_id_of(raw),
        };
        encode_frame(&mut self.batch, &env, raw);
        self.index.push(seq, ts_us, env.proc, off);
        self.appended += 1;
        self.seg_last_seq = Some(seq);
        self.seg_first_ts.get_or_insert(ts_us);
        if self.durable + self.batch.len() >= self.cfg.segment_bytes {
            self.roll();
        } else if self.batch.len() >= self.cfg.batch_bytes {
            self.flush();
        }
        seq
    }

    /// Commits the pending batch to the backend and replaces the
    /// segment's index sidecar. Batches always end on a frame
    /// boundary, so a reader never observes half a frame from a
    /// flush.
    ///
    /// Appends go through the fallible [`Backend::try_append`] with
    /// bounded retries. A failed attempt may have appended a prefix of
    /// the batch (a torn write); before each retry the writer reads
    /// the segment back and truncates it to the last durable length,
    /// so a batch lands exactly once — no loss, no duplication — as
    /// long as one retry eventually succeeds. If every retry fails the
    /// batch is kept in memory for the next flush.
    pub fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let name = segment_name(&self.dir, self.shard, self.seg_no);
        const TRIES: u32 = 8;
        let mut appended = false;
        for attempt in 0..TRIES {
            if attempt > 0 {
                // Heal a possible torn tail from the failed attempt.
                if let Some(cur) = self.backend.read(&name) {
                    if cur.len() > self.durable {
                        self.backend.write(&name, &cur[..self.durable]);
                        self.tm.torn_heals.inc();
                        dpm_telemetry::note(
                            "store",
                            &format!("s{}", self.shard),
                            format!("healed torn tail of {name} back to {} bytes", self.durable),
                        );
                    }
                }
            }
            if self.backend.try_append(&name, &self.batch).is_ok() {
                appended = true;
                break;
            }
        }
        if !appended {
            // Persistent failure: keep the batch buffered; a later
            // flush (or Drop) retries. Heal any torn tail now so
            // readers never see half a frame.
            if let Some(cur) = self.backend.read(&name) {
                if cur.len() > self.durable {
                    self.backend.write(&name, &cur[..self.durable]);
                }
            }
            self.tm.flush_failures.inc();
            dpm_telemetry::note(
                "store",
                &format!("s{}", self.shard),
                format!("flush of {name} failed after {TRIES} tries; batch kept"),
            );
            return;
        }
        self.tm.flush_bytes.record(self.batch.len() as u64);
        self.durable += self.batch.len();
        self.batch.clear();
        self.index.data_len = self.durable as u64;
        self.backend.write(&index_name(&name), &self.index.encode());
    }

    /// [`SegmentWriter::flush`], then asks the backend to make the
    /// current segment durable (fsync where that exists).
    pub fn sync(&mut self) {
        self.flush();
        self.backend
            .sync(&segment_name(&self.dir, self.shard, self.seg_no));
    }

    /// Seals the current segment and opens the next one, notifying
    /// the store's seal hook (if any) with the sealed segment's
    /// listing facts. A segment whose last flush failed is not sealed:
    /// the kept batch belongs to it (its frames are indexed at this
    /// segment's offsets), so it stays open — past `segment_bytes` if
    /// need be — until the backend takes the batch.
    fn roll(&mut self) {
        self.flush();
        if !self.batch.is_empty() {
            return;
        }
        self.tm.seals.inc();
        if let Some(first_ts) = self.seg_first_ts {
            // Seal latency on the shared store-timestamp axis: how old
            // the segment's first record is when the segment seals.
            let seal_ts = self.now_us();
            self.tm.seal_age_us.record(seal_ts.saturating_sub(first_ts));
        }
        dpm_telemetry::note(
            "store",
            &format!("s{}", self.shard),
            format!(
                "sealed segment {} ({} frames, {} bytes)",
                self.seg_no, self.index.n_records, self.durable
            ),
        );
        if let Some(hook) = self.seal_hook.clone() {
            hook(&SealInfo {
                name: segment_name(&self.dir, self.shard, self.seg_no),
                shard: self.shard,
                seg_no: self.seg_no,
                frames: self.index.n_records,
                bytes: self.durable as u64,
                last_seq: self.seg_last_seq,
            });
        }
        self.seg_no += 1;
        self.durable = 0;
        self.index = SegmentIndex::new(self.cfg.index_every);
        self.need_header = true;
        self.seg_last_seq = None;
        self.seg_first_ts = None;
    }
}

impl Drop for SegmentWriter {
    /// A dropped writer never loses whole accepted records: the
    /// remaining batch is committed on the way out.
    fn drop(&mut self) {
        self.flush();
    }
}

/// Parses the `(shard, segment number)` out of a segment file name of
/// the form produced by [`segment_name`].
pub(crate) fn seg_ids_of(name: &str) -> Option<(u16, u32)> {
    let stem = name.rsplit('/').next()?.strip_suffix(".seg")?;
    let (shard, no) = stem.rsplit_once('-')?;
    Some((shard.strip_prefix('s')?.parse().ok()?, no.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, StoreSource};
    use crate::format::ProcId;
    use crate::tail::StoreTail;
    use dpm_meter::HEADER_LEN;

    /// A minimal well-formed "record": header with machine, trace
    /// type, and a pid at body offset 0.
    fn raw(machine: u16, pid: u32, fill: usize) -> Vec<u8> {
        let mut r = vec![0u8; HEADER_LEN + 4 + fill];
        let size = r.len() as u32;
        r[0..4].copy_from_slice(&size.to_le_bytes());
        r[4..6].copy_from_slice(&machine.to_le_bytes());
        r[20..24].copy_from_slice(&7u32.to_le_bytes());
        r[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&pid.to_le_bytes());
        r
    }

    #[test]
    fn append_flush_read_back() {
        let backend = Arc::new(MemBackend::new());
        let store = LogStore::open(backend, "/usr/tmp/log.f1", StoreConfig::default());
        let mut w = store.writer(0);
        let s0 = w.append(&raw(1, 100, 0));
        let s1 = w.append(&raw(1, 101, 0));
        assert_eq!((s0, s1), (0, 1));
        // Nothing readable before the group commit…
        assert_eq!(store.reader().scan().count(), 0);
        assert!(w.pending_bytes() > 0);
        w.flush();
        assert_eq!(w.pending_bytes(), 0);
        let reader = store.reader();
        let frames: Vec<_> = reader.scan().collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(
            frames[0].proc,
            ProcId {
                machine: 1,
                pid: 100
            }
        );
        assert_eq!(frames[0].raw, &raw(1, 100, 0)[..]);
        assert!(frames[0].ts_us <= frames[1].ts_us);
    }

    #[test]
    fn batch_threshold_trips_commit() {
        let backend = Arc::new(MemBackend::new());
        let cfg = StoreConfig {
            batch_bytes: 128,
            ..StoreConfig::default()
        };
        let store = LogStore::open(backend, "d", cfg);
        let mut w = store.writer(0);
        for i in 0..10 {
            w.append(&raw(0, i, 8));
        }
        // 10 × ~68-byte frames with a 128-byte threshold: several
        // commits happened without an explicit flush.
        assert!(store.reader().scan().count() >= 8);
    }

    #[test]
    fn rotation_by_size_produces_multiple_segments() {
        let backend = Arc::new(MemBackend::new());
        let cfg = StoreConfig {
            segment_bytes: 512,
            batch_bytes: 64,
            index_every: 4,
        };
        let store = LogStore::open(Arc::clone(&backend) as Arc<dyn Backend>, "d", cfg);
        let mut w = store.writer(0);
        for i in 0..40 {
            w.append(&raw(2, i, 16));
        }
        w.flush();
        let segs = backend
            .list("d/s0000-")
            .into_iter()
            .filter(|n| n.ends_with(".seg"))
            .count();
        assert!(segs >= 2, "expected rotation, got {segs} segment(s)");
        // Every record survives across the rotation, in seq order.
        let reader = store.reader();
        let seqs: Vec<u64> = reader.scan().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn reopen_resumes_seq_and_appends_cleanly() {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let cfg = StoreConfig::default();
        {
            let store = LogStore::open(Arc::clone(&backend), "d", cfg);
            let mut w = store.writer(0);
            for i in 0..5 {
                w.append(&raw(0, i, 0));
            }
            w.flush();
        }
        let store = LogStore::open(Arc::clone(&backend), "d", cfg);
        assert_eq!(store.next_seq(), 5);
        let mut w = store.writer(0);
        w.append(&raw(0, 99, 0));
        w.flush();
        let reader = store.reader();
        let seqs: Vec<u64> = reader.scan().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        // Timestamps never run backwards across the reopen.
        let ts: Vec<u64> = reader.scan().map(|f| f.ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn drop_commits_the_tail() {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let store = LogStore::open(Arc::clone(&backend), "d", StoreConfig::default());
        {
            let mut w = store.writer(0);
            w.append(&raw(0, 1, 0));
        } // dropped without flush
        assert_eq!(store.reader().scan().count(), 1);
    }

    #[test]
    fn shards_share_one_seq_space() {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let store = LogStore::open(Arc::clone(&backend), "d", StoreConfig::default());
        let mut a = store.writer(0);
        let mut b = store.writer(1);
        let mut seqs = vec![
            a.append(&raw(0, 1, 0)),
            b.append(&raw(0, 2, 0)),
            a.append(&raw(0, 3, 0)),
            b.append(&raw(0, 4, 0)),
        ];
        a.flush();
        b.flush();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3], "seqs are unique and dense");
        let reader = store.reader();
        let merged: Vec<u64> = reader.scan().map(|f| f.seq).collect();
        assert_eq!(merged, vec![0, 1, 2, 3], "scan merges shards by seq");
        let shards: Vec<u16> = reader.scan().map(|f| f.shard).collect();
        assert_eq!(shards, vec![0, 1, 0, 1]);
    }

    /// A backend whose `try_append` fails (leaving a torn prefix) on a
    /// scripted set of attempts.
    struct TornBackend {
        inner: MemBackend,
        fail_next: std::sync::Mutex<u32>,
    }

    impl StoreSource for TornBackend {
        fn read(&self, name: &str) -> Option<Vec<u8>> {
            self.inner.read(name)
        }
        fn list(&self, prefix: &str) -> Vec<String> {
            self.inner.list(prefix)
        }
    }

    impl Backend for TornBackend {
        fn append(&self, name: &str, data: &[u8]) {
            self.inner.append(name, data);
        }
        fn write(&self, name: &str, data: &[u8]) {
            self.inner.write(name, data);
        }
        fn try_append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            let mut left = self.fail_next.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                // Torn write: half the batch lands, then the error.
                self.inner.append(name, &data[..data.len() / 2]);
                return Err(std::io::Error::other("injected"));
            }
            self.inner.append(name, data);
            Ok(())
        }
    }

    #[test]
    fn flush_heals_torn_writes_without_loss_or_duplication() {
        let backend = Arc::new(TornBackend {
            inner: MemBackend::new(),
            fail_next: std::sync::Mutex::new(3),
        });
        let store = LogStore::open(
            Arc::clone(&backend) as Arc<dyn Backend>,
            "d",
            StoreConfig::default(),
        );
        let mut w = store.writer(0);
        for i in 0..10 {
            w.append(&raw(0, i, 0));
        }
        w.flush();
        // Two torn attempts healed, third retry succeeded: exactly one
        // copy of every frame, in order.
        let seqs: Vec<u64> = store.reader().scan().map(|f| f.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn flush_keeps_the_batch_on_persistent_failure() {
        let backend = Arc::new(TornBackend {
            inner: MemBackend::new(),
            fail_next: std::sync::Mutex::new(u32::MAX),
        });
        let store = LogStore::open(
            Arc::clone(&backend) as Arc<dyn Backend>,
            "d",
            StoreConfig::default(),
        );
        let mut w = store.writer(0);
        w.append(&raw(0, 1, 0));
        w.flush(); // every attempt fails; the batch stays buffered
        assert_eq!(store.reader().scan().count(), 0, "no torn tail visible");
        *backend.fail_next.lock().unwrap() = 0;
        w.flush(); // backend healthy again: the batch lands once
        assert_eq!(store.reader().scan().count(), 1);
    }

    /// Regression: `roll` used to move to the next segment even when
    /// the sealing flush had failed and kept its batch, so the batch
    /// later landed — headerless, at offset 0 — in the *next* segment
    /// file and that whole segment was undecodable.
    #[test]
    fn roll_waits_for_a_failed_flush() {
        let backend = Arc::new(TornBackend {
            inner: MemBackend::new(),
            fail_next: std::sync::Mutex::new(0),
        });
        let cfg = StoreConfig {
            segment_bytes: 512,
            batch_bytes: 64,
            index_every: 4,
        };
        let store = LogStore::open(Arc::clone(&backend) as Arc<dyn Backend>, "d", cfg);
        let mut w = store.writer(0);
        let mut tail = StoreTail::new();
        let mut polled = Vec::new();
        for i in 0..60 {
            // ~68-byte frames roll a 512-byte segment every 7th append:
            // the outage (8 failed tries per flush, every flush) spans
            // the first roll boundary and then ends.
            match i {
                5 => *backend.fail_next.lock().unwrap() = u32::MAX,
                12 => *backend.fail_next.lock().unwrap() = 0,
                _ => {}
            }
            w.append(&raw(2, i, 16));
            polled.extend(tail.poll(backend.as_ref(), "d").into_iter().map(|f| f.seq));
        }
        w.flush();
        polled.extend(tail.poll(backend.as_ref(), "d").into_iter().map(|f| f.seq));
        let reader = store.reader();
        assert!(reader.n_segments() > 2, "rotation resumed after the outage");
        let loaded: Vec<u64> = reader.scan().map(|f| f.seq).collect();
        assert_eq!(loaded, (0..60).collect::<Vec<u64>>(), "load: exactly once");
        assert_eq!(polled, (0..60).collect::<Vec<u64>>(), "tail: exactly once");
    }

    #[test]
    fn segment_names_are_probeable() {
        assert_eq!(segment_name("d", 0, 0), "d/s0000-00000000.seg");
        assert_eq!(
            segment_name("/usr/tmp/l", 3, 12),
            "/usr/tmp/l/s0003-00000012.seg"
        );
        assert_eq!(index_name("d/s0000-00000000.seg"), "d/s0000-00000000.idx");
        assert_eq!(seg_ids_of("d/s0003-00000012.seg"), Some((3, 12)));
        assert_eq!(seg_ids_of("d/other.txt"), None);
        assert_eq!(seg_ids_of("d/x0003-00000012.seg"), None);
    }

    #[test]
    fn seal_hook_fires_per_rotation_with_listing_facts() {
        use std::sync::Mutex;
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let mut store = LogStore::open(
            Arc::clone(&backend),
            "d",
            StoreConfig {
                segment_bytes: 512,
                batch_bytes: 64,
                index_every: 4,
            },
        );
        let seals: Arc<Mutex<Vec<SealInfo>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seals);
        store.set_seal_hook(Arc::new(move |info| {
            sink.lock().unwrap().push(info.clone())
        }));
        let mut w = store.writer(0);
        for i in 0..40 {
            w.append(&raw(2, i, 16));
        }
        w.flush();
        let seals = seals.lock().unwrap();
        assert!(!seals.is_empty(), "rotation happened");
        // Seal infos are dense from segment 0 and cover real frames.
        for (i, s) in seals.iter().enumerate() {
            assert_eq!(s.seg_no, i as u32);
            assert_eq!(s.shard, 0);
            assert_eq!(s.name, segment_name("d", 0, i as u32));
            assert!(s.frames > 0);
            assert!(s.bytes > 0);
            assert!(s.last_seq.is_some());
        }
        // Every sealed segment's bytes really are on the backend in
        // full: the hook fired after the final flush of the segment.
        for s in seals.iter() {
            assert_eq!(backend.read(&s.name).unwrap().len() as u64, s.bytes);
        }
    }

    #[test]
    fn seal_manifest_hook_appends_readable_lines() {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let mut store = LogStore::open(
            Arc::clone(&backend),
            "d",
            StoreConfig {
                segment_bytes: 512,
                batch_bytes: 64,
                index_every: 4,
            },
        );
        store.set_seal_hook(seal_manifest_hook(Arc::clone(&backend), "d"));
        let mut w = store.writer(0);
        for i in 0..40 {
            w.append(&raw(2, i, 16));
        }
        w.flush();
        let manifest = backend.read(&seals_name("d")).expect("SEALS written");
        let text = String::from_utf8(manifest).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        assert!(
            lines[0].starts_with("sealed s0000-00000000.seg shard=0 frames="),
            "unexpected manifest line: {}",
            lines[0]
        );
        // One line per sealed segment: the in-progress segment (the
        // highest-numbered one) has no line.
        assert_eq!(lines.len(), store.reader().n_segments() - 1);
    }
}
