//! Per-segment sidecar indexes.
//!
//! Each segment `<name>.seg` gets a sidecar `<name>.idx` holding:
//!
//! * a **sparse offset index** — one `(seq, ts, offset)` entry every
//!   `index_every` records, so `range_by_time` and seeks by ordinal
//!   start near their target instead of at the segment head;
//! * **postings** — for every `(machine, pid)` seen in the segment,
//!   the byte offsets of that process's frames, so `by_proc` reads
//!   exactly the frames it needs.
//!
//! The sidecar is advisory: it records `data_len`, the segment byte
//! length it covers, and a reader that finds the segment longer,
//! shorter, or the sidecar missing/corrupt simply rebuilds the index
//! by scanning the segment. The writer replaces the sidecar at every
//! group-commit flush, so in the steady state the two always agree.
//!
//! Wire form (little-endian): magic `DPMIDX01`, `u32` version, `u32`
//! index_every, `u64` record count, `u64` data_len, sparse entries
//! (`u32` count, then `u64 seq, u64 ts, u32 off` each), postings
//! (`u32` count, then `u16 machine, u16 pad, u32 pid, u32 n,
//! n × u32 off` each).

use crate::format::{decode_frame, ProcId, SEG_HEADER_LEN};
use dpm_meter::wire::{Reader, WireError, Writer};
use std::collections::BTreeMap;

/// Magic bytes opening every index sidecar.
pub const IDX_MAGIC: &[u8; 8] = b"DPMIDX01";

/// Sidecar format version.
pub const IDX_VERSION: u32 = 1;

/// Wire bytes of one sparse entry (`u64 seq, u64 ts, u32 off`).
const SPARSE_ENTRY_LEN: usize = 20;

/// Wire bytes of one posting ahead of its offsets (`u16 machine,
/// u16 pad, u32 pid, u32 n`).
const POSTING_HEAD_LEN: usize = 12;

/// One sparse-index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseEntry {
    /// Seq of the frame at `off`.
    pub seq: u64,
    /// Timestamp of the frame at `off`.
    pub ts_us: u64,
    /// Byte offset of the frame within the segment.
    pub off: u32,
}

/// The in-memory index of one segment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentIndex {
    /// Sparse-entry period (records per entry).
    pub index_every: u32,
    /// Total frames covered.
    pub n_records: u64,
    /// Segment byte length covered by this index.
    pub data_len: u64,
    /// Sparse offset entries, ascending.
    pub sparse: Vec<SparseEntry>,
    /// Frame offsets per process, ascending.
    pub postings: BTreeMap<ProcId, Vec<u32>>,
}

impl SegmentIndex {
    /// An empty index with the given sparse period.
    pub fn new(index_every: u32) -> SegmentIndex {
        SegmentIndex {
            index_every: index_every.max(1),
            ..SegmentIndex::default()
        }
    }

    /// Accounts one frame at byte offset `off`.
    pub fn push(&mut self, seq: u64, ts_us: u64, proc: ProcId, off: u32) {
        if self.n_records.is_multiple_of(self.index_every as u64) {
            self.sparse.push(SparseEntry { seq, ts_us, off });
        }
        self.postings.entry(proc).or_default().push(off);
        self.n_records += 1;
    }

    /// The byte offset to start scanning from for timestamps
    /// `>= ts_us` (frames within a segment are timestamp-ordered: one
    /// shard, one monotonic clock).
    pub fn seek_ts(&self, ts_us: u64) -> u32 {
        // Last sparse entry strictly before the target: the clock is
        // monotonic, not strictly increasing, so frames just ahead of
        // an entry stamped `ts_us` may carry `ts_us` too.
        match self.sparse.partition_point(|e| e.ts_us < ts_us) {
            0 => SEG_HEADER_LEN as u32,
            n => self.sparse[n - 1].off,
        }
    }

    /// Serializes the sidecar.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 20 * self.sparse.len());
        let mut w = Writer::new(&mut out);
        w.raw(IDX_MAGIC).u32(IDX_VERSION).u32(self.index_every);
        w.u64(self.n_records).u64(self.data_len);
        w.u32(self.sparse.len() as u32);
        for e in &self.sparse {
            w.u64(e.seq).u64(e.ts_us).u32(e.off);
        }
        w.u32(self.postings.len() as u32);
        for (proc, offs) in &self.postings {
            w.u16(proc.machine).u16(0).u32(proc.pid);
            w.u32(offs.len() as u32);
            for off in offs {
                w.u32(*off);
            }
        }
        out
    }

    /// Deserializes a sidecar; `None` on any structural problem.
    pub fn decode(bytes: &[u8]) -> Option<SegmentIndex> {
        Self::read(&mut Reader::new(bytes)).ok().flatten()
    }

    /// The sidecar at `r`, which it must fill exactly; `Ok(None)` for
    /// a foreign magic, an unknown version or trailing bytes. Every
    /// reservation goes through [`Reader::count`], so a hostile
    /// sidecar cannot claim more entries than it has bytes for.
    fn read(r: &mut Reader<'_>) -> Result<Option<SegmentIndex>, WireError> {
        if r.take(IDX_MAGIC.len())? != IDX_MAGIC || r.u32()? != IDX_VERSION {
            return Ok(None);
        }
        let mut idx = SegmentIndex::new(r.u32()?);
        idx.n_records = r.u64()?;
        idx.data_len = r.u64()?;
        let n_sparse = r.count(SPARSE_ENTRY_LEN)?;
        idx.sparse.reserve(n_sparse);
        for _ in 0..n_sparse {
            idx.sparse.push(SparseEntry {
                seq: r.u64()?,
                ts_us: r.u64()?,
                off: r.u32()?,
            });
        }
        for _ in 0..r.count(POSTING_HEAD_LEN)? {
            let (machine, _pad, pid) = (r.u16()?, r.u16()?, r.u32()?);
            let n = r.count(4)?;
            let mut offs = Vec::with_capacity(n);
            for _ in 0..n {
                offs.push(r.u32()?);
            }
            idx.postings.insert(ProcId { machine, pid }, offs);
        }
        Ok(r.rest().is_empty().then_some(idx))
    }

    /// Rebuilds the index by scanning `segment` (stopping at the
    /// first invalid frame — a torn tail indexes as absent).
    pub fn rebuild(segment: &[u8], index_every: u32) -> SegmentIndex {
        let mut idx = SegmentIndex::new(index_every);
        let mut off = SEG_HEADER_LEN;
        while let Some((env, _raw, next)) = decode_frame(segment, off) {
            idx.push(env.seq, env.ts_us, env.proc, off as u32);
            off = next;
        }
        idx.data_len = off as u64;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_frame, encode_seg_header, Envelope};

    fn sample_index() -> SegmentIndex {
        let mut idx = SegmentIndex::new(2);
        idx.push(0, 10, ProcId { machine: 1, pid: 7 }, 32);
        idx.push(1, 20, ProcId { machine: 1, pid: 8 }, 96);
        idx.push(2, 30, ProcId { machine: 1, pid: 7 }, 160);
        idx.data_len = 224;
        idx
    }

    #[test]
    fn encode_decode_round_trips() {
        let idx = sample_index();
        let wire = idx.encode();
        assert_eq!(SegmentIndex::decode(&wire).unwrap(), idx);
        // Truncation and corruption are rejected, not mis-read.
        assert!(SegmentIndex::decode(&wire[..wire.len() - 1]).is_none());
        let mut bad = wire.clone();
        bad[0] = b'x';
        assert!(SegmentIndex::decode(&bad).is_none());
        assert!(SegmentIndex::decode(b"").is_none());
    }

    #[test]
    fn sparse_period_and_seek() {
        let idx = sample_index();
        // Period 2: entries for records 0 and 2.
        assert_eq!(idx.sparse.len(), 2);
        assert_eq!(idx.seek_ts(5), SEG_HEADER_LEN as u32);
        assert_eq!(idx.seek_ts(10), SEG_HEADER_LEN as u32);
        assert_eq!(idx.seek_ts(25), 32);
        // Record 1 (off 96) could be stamped 30 as well: start before it.
        assert_eq!(idx.seek_ts(30), 32);
        assert_eq!(idx.seek_ts(1000), 160);
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut seg: Vec<u8> = encode_seg_header(0, 0, 0).to_vec();
        let mut want = SegmentIndex::new(2);
        for i in 0..5u64 {
            let raw = vec![i as u8; 30];
            let proc = ProcId {
                machine: (i % 2) as u16,
                pid: 100 + i as u32,
            };
            let off = seg.len() as u32;
            want.push(i, i * 10, proc, off);
            encode_frame(
                &mut seg,
                &Envelope {
                    seq: i,
                    ts_us: i * 10,
                    shard: 0,
                    proc,
                },
                &raw,
            );
        }
        want.data_len = seg.len() as u64;
        let rebuilt = SegmentIndex::rebuild(&seg, 2);
        assert_eq!(rebuilt, want);
        // A torn tail stops the rebuild cleanly.
        let torn = &seg[..seg.len() - 3];
        let partial = SegmentIndex::rebuild(torn, 2);
        assert_eq!(partial.n_records, 4);
        assert!(partial.data_len < torn.len() as u64 + 1);
    }
}
