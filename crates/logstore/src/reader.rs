//! Read-side of the store: loading segments and querying frames.
//!
//! A [`StoreReader`] is a point-in-time snapshot: [`StoreReader::load`]
//! lists a store directory on any [`StoreSource`] — a local backend,
//! or a remote machine's files behind its meterdaemon — reads every
//! segment and its index sidecar, and answers three queries, all
//! yielding borrowed [`Frame`]s zero-copy:
//!
//! * [`StoreReader::scan`] — every frame, merged across shards into
//!   global arrival (sequence) order;
//! * [`StoreReader::range_by_time`] — frames whose store timestamp
//!   falls in a window, seeking via the sparse index instead of
//!   scanning each segment from its head;
//! * [`StoreReader::by_proc`] — one process's frames via the
//!   per-segment postings, touching only the bytes that match.
//!
//! The reader trusts nothing: a sidecar index is used only when it
//! decodes cleanly *and* covers exactly the bytes the segment holds;
//! otherwise the index is rebuilt by scanning, and a torn tail (a
//! partially appended frame) is simply treated as absent. A snapshot
//! taken mid-write therefore sees every whole flushed frame and
//! nothing else.

use crate::backend::StoreSource;
use crate::format::{decode_frame, decode_seg_header, ProcId, SEG_HEADER_LEN};
use crate::index::SegmentIndex;
use crate::writer::index_name;

/// Sparse period used when an index must be rebuilt by scanning
/// (matches [`crate::writer::StoreConfig`]'s default).
const REBUILD_INDEX_EVERY: u32 = 64;

/// Lists the segment file names under a store directory, sorted. This
/// is the one discovery path — [`StoreReader::load`], the live tail
/// ([`crate::tail::StoreTail::poll`]) and callers that fetch bytes
/// themselves all enumerate a store through it, so none of them needs
/// to probe dense segment names.
pub fn list_segments(source: &dyn StoreSource, dir: &str) -> Vec<String> {
    let mut names: Vec<String> = source
        .list(&format!("{}/", dir.trim_end_matches('/')))
        .into_iter()
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    names
}

/// One stored record, borrowed from a reader's segment bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Arrival ordinal, global across shards.
    pub seq: u64,
    /// Monotonic store timestamp, microseconds.
    pub ts_us: u64,
    /// The filter shard that accepted the record.
    pub shard: u16,
    /// The record's `(machine, pid)` index key.
    pub proc: ProcId,
    /// The raw meter wire record, verbatim as metered.
    pub raw: &'a [u8],
}

/// One loaded segment: its bytes and a trusted index over them.
#[derive(Debug)]
struct Segment {
    bytes: Vec<u8>,
    index: SegmentIndex,
}

impl Segment {
    /// Wraps segment bytes, adopting `sidecar` when it is coherent
    /// with the bytes and rebuilding the index by scan otherwise.
    fn new(bytes: Vec<u8>, sidecar: Option<Vec<u8>>, index_every: u32) -> Option<Segment> {
        decode_seg_header(&bytes)?;
        let index = sidecar
            .and_then(|raw| SegmentIndex::decode(&raw))
            .filter(|idx| idx.data_len == bytes.len() as u64)
            .unwrap_or_else(|| SegmentIndex::rebuild(&bytes, index_every));
        Some(Segment { bytes, index })
    }

    /// Decodes the frame at `off`; `None` at (or past) the torn tail.
    fn frame_at(&self, off: usize) -> Option<(Frame<'_>, usize)> {
        if off as u64 >= self.index.data_len {
            return None;
        }
        let (env, raw, next) = decode_frame(&self.bytes, off)?;
        let frame = Frame {
            seq: env.seq,
            ts_us: env.ts_us,
            shard: env.shard,
            proc: env.proc,
            raw,
        };
        Some((frame, next))
    }
}

/// A point-in-time read snapshot of one store.
#[derive(Debug, Default)]
pub struct StoreReader {
    segments: Vec<Segment>,
}

impl StoreReader {
    /// Loads every segment under `dir` on `source`. Sidecar indexes
    /// are adopted when coherent and rebuilt when missing, corrupt,
    /// or stale; segments without a valid header are skipped.
    pub fn load(source: &dyn StoreSource, dir: &str) -> StoreReader {
        let mut segments = Vec::new();
        for name in list_segments(source, dir) {
            let Some(bytes) = source.read(&name) else {
                continue;
            };
            let sidecar = source.read(&index_name(&name));
            if let Some(seg) = Segment::new(bytes, sidecar, REBUILD_INDEX_EVERY) {
                segments.push(seg);
            }
        }
        StoreReader { segments }
    }

    /// Number of segments loaded.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total frames across all loaded segments.
    pub fn n_records(&self) -> u64 {
        self.segments.iter().map(|s| s.index.n_records).sum()
    }

    /// Every frame, merged across segments (and so across shards)
    /// into ascending sequence order.
    pub fn scan(&self) -> Scan<'_> {
        let cursors = self
            .segments
            .iter()
            .map(|seg| Cursor {
                seg,
                head: seg.frame_at(SEG_HEADER_LEN),
            })
            .collect();
        Scan { cursors }
    }

    /// Frames whose store timestamp lies in `[lo_us, hi_us]`, in
    /// ascending sequence order. Each segment is entered via its
    /// sparse index, so the scan starts near `lo_us` instead of at
    /// the segment head.
    pub fn range_by_time(&self, lo_us: u64, hi_us: u64) -> Vec<Frame<'_>> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let mut off = seg.index.seek_ts(lo_us) as usize;
            while let Some((frame, next)) = seg.frame_at(off) {
                if frame.ts_us > hi_us {
                    // Frames within a segment are timestamp-ordered.
                    break;
                }
                if frame.ts_us >= lo_us {
                    out.push(frame);
                }
                off = next;
            }
        }
        out.sort_by_key(|f| f.seq);
        out
    }

    /// Every frame of one process, in ascending sequence order, via
    /// the per-segment postings — only the matching frames' bytes are
    /// decoded.
    pub fn by_proc(&self, proc: ProcId) -> Vec<Frame<'_>> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if let Some(offs) = seg.index.postings.get(&proc) {
                for &off in offs {
                    if let Some((frame, _)) = seg.frame_at(off as usize) {
                        out.push(frame);
                    }
                }
            }
        }
        out.sort_by_key(|f| f.seq);
        out
    }
}

/// One segment's scan position inside a [`Scan`].
struct Cursor<'a> {
    seg: &'a Segment,
    /// The decoded frame at the cursor, plus the offset one past it.
    head: Option<(Frame<'a>, usize)>,
}

/// The merged-by-sequence iterator returned by [`StoreReader::scan`].
pub struct Scan<'a> {
    cursors: Vec<Cursor<'a>>,
}

impl<'a> Iterator for Scan<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        // K-way merge: take the cursor with the smallest head seq.
        // Frames within a segment are seq-ascending (one appender per
        // shard), so advancing only the winner keeps global order.
        let (i, _) = self
            .cursors
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.head.map(|(f, _)| (i, f.seq)))
            .min_by_key(|&(_, seq)| seq)?;
        let (frame, next) = self.cursors[i].head.take().expect("head checked");
        self.cursors[i].head = self.cursors[i].seg.frame_at(next);
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend};
    use crate::format::{encode_frame, encode_seg_header, Envelope};

    /// A reader loaded over `segments`, each written as one file of a
    /// fresh in-memory store.
    fn reader_of(segments: &[Vec<u8>]) -> StoreReader {
        let backend = MemBackend::new();
        for (i, seg) in segments.iter().enumerate() {
            backend.write(&format!("d/s{i:04}-00000000.seg"), seg);
        }
        StoreReader::load(&backend, "d")
    }

    /// Builds a segment holding `frames` as `(seq, ts, machine, pid)`.
    fn segment(shard: u16, frames: &[(u64, u64, u16, u32)]) -> Vec<u8> {
        let mut seg = encode_seg_header(shard, frames.first().map_or(0, |f| f.0), 0).to_vec();
        for &(seq, ts_us, machine, pid) in frames {
            let raw = vec![seq as u8; 24];
            encode_frame(
                &mut seg,
                &Envelope {
                    seq,
                    ts_us,
                    shard,
                    proc: ProcId { machine, pid },
                },
                &raw,
            );
        }
        seg
    }

    #[test]
    fn scan_merges_segments_by_seq() {
        let a = segment(0, &[(0, 10, 1, 5), (2, 30, 1, 5), (4, 50, 1, 6)]);
        let b = segment(1, &[(1, 20, 2, 9), (3, 40, 2, 9)]);
        let r = reader_of(&[b, a]);
        assert_eq!(r.n_segments(), 2);
        assert_eq!(r.n_records(), 5);
        let seqs: Vec<u64> = r.scan().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let shards: Vec<u16> = r.scan().map(|f| f.shard).collect();
        assert_eq!(shards, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn range_by_time_is_inclusive_and_seq_ordered() {
        let a = segment(0, &[(0, 10, 1, 5), (2, 30, 1, 5), (4, 50, 1, 6)]);
        let b = segment(1, &[(1, 20, 2, 9), (3, 40, 2, 9)]);
        let r = reader_of(&[a, b]);
        let got: Vec<(u64, u64)> = r
            .range_by_time(20, 40)
            .into_iter()
            .map(|f| (f.seq, f.ts_us))
            .collect();
        assert_eq!(got, vec![(1, 20), (2, 30), (3, 40)]);
        assert!(r.range_by_time(60, 100).is_empty());
        assert_eq!(r.range_by_time(0, u64::MAX).len(), 5);
    }

    /// Regression: the store clock is monotonic, not strictly
    /// increasing, so a run of equal stamps can straddle a sparse
    /// entry; seeking to the entry itself skipped the frames before it.
    #[test]
    fn range_by_time_keeps_equal_stamps_straddling_a_sparse_entry() {
        let period = REBUILD_INDEX_EVERY as u64;
        // Frames period-2 ..= period+1 share one stamp; the sparse
        // entry at ordinal `period` sits inside the run.
        let tie = 10 * (period - 2);
        let frames: Vec<(u64, u64, u16, u32)> = (0..3 * period)
            .map(|i| {
                let in_run = (period - 2..=period + 1).contains(&i);
                (i, if in_run { tie } else { 10 * i }, 1, 5)
            })
            .collect();
        let r = reader_of(&[segment(0, &frames)]);
        for (lo, hi) in [(tie, tie), (tie, tie + 100), (tie - 10, tie), (0, tie)] {
            let want: Vec<u64> = r
                .scan()
                .filter(|f| (lo..=hi).contains(&f.ts_us))
                .map(|f| f.seq)
                .collect();
            let got: Vec<u64> = r.range_by_time(lo, hi).iter().map(|f| f.seq).collect();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
        assert_eq!(r.range_by_time(tie, tie).len(), 4);
    }

    #[test]
    fn by_proc_returns_only_that_process() {
        let a = segment(0, &[(0, 10, 1, 5), (2, 30, 1, 5), (4, 50, 1, 6)]);
        let b = segment(1, &[(1, 20, 2, 9), (3, 40, 2, 9)]);
        let r = reader_of(&[a, b]);
        let got: Vec<u64> = r
            .by_proc(ProcId { machine: 1, pid: 5 })
            .into_iter()
            .map(|f| f.seq)
            .collect();
        assert_eq!(got, vec![0, 2]);
        assert!(r.by_proc(ProcId { machine: 9, pid: 9 }).is_empty());
    }

    #[test]
    fn torn_tail_and_junk_segments_are_tolerated() {
        let a = segment(0, &[(0, 10, 1, 5), (1, 20, 1, 5)]);
        let torn = a[..a.len() - 3].to_vec();
        let r = reader_of(&[torn, b"not a segment".to_vec(), Vec::new()]);
        assert_eq!(r.n_segments(), 1);
        let seqs: Vec<u64> = r.scan().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn stale_sidecar_is_rebuilt() {
        let seg = segment(0, &[(0, 10, 1, 5), (1, 20, 1, 6)]);
        let backend = MemBackend::new();
        backend.write("d/s0000-00000000.seg", &seg);
        // A sidecar that covers only a prefix of the segment (e.g.
        // written at the last flush before a crash-free append path
        // was interrupted) must not hide the newer frames.
        let stale = SegmentIndex::rebuild(&seg[..SEG_HEADER_LEN + 56], 64);
        backend.write("d/s0000-00000000.idx", &stale.encode());
        let r = StoreReader::load(&backend, "d");
        assert_eq!(r.n_records(), 2);
        // And garbage sidecars fall back to a scan too.
        backend.write("d/s0000-00000000.idx", b"garbage");
        assert_eq!(StoreReader::load(&backend, "d").n_records(), 2);
    }
}
