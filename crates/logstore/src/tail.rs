//! Live tailing of a store that is still being written.
//!
//! A [`StoreReader`](crate::StoreReader) is a point-in-time snapshot;
//! re-loading one per poll would re-read and re-decode every segment
//! from its head. A [`StoreTail`] instead remembers, per segment file,
//! how many bytes it has already consumed, and each offer decodes only
//! the *newly appended* whole frames — a torn frame at the tail (a
//! flush in progress) is left alone and picked up whole on the next
//! offer. Combined with the writer's flush discipline (batches land
//! byte-identically even across torn-write healing, because a healed
//! retry re-appends the same batch bytes), consumed offsets stay valid
//! across every failure the writer itself can heal.
//!
//! [`StoreTail::poll`] is the polling protocol, the same over a local
//! backend and over a remote machine's files:
//!
//! 1. list segment files (one `list` — no dense name probing);
//! 2. classify: per shard, every segment but the highest-numbered one
//!    is **sealed** — the writer flushed it for the last time before
//!    it created the successor, and never touches it again;
//! 3. read every segment not yet retired and decode what is new past
//!    its cursor ([`StoreTail::offer_segment`]);
//! 4. retire a segment once a read taken *after* the listing that
//!    showed it sealed has been consumed to its last byte: that read
//!    holds everything the segment will ever hold, so it is never read
//!    again. A sealed segment the cursor cannot finish (damaged bytes)
//!    is not retired and keeps being read, as the in-progress segment
//!    of each shard is.
//!
//! A caller that fetches bytes itself offers them through
//! [`StoreTail::offer_segment`] directly.

use crate::backend::StoreSource;
use crate::format::{decode_frame, decode_seg_header, ProcId, SEG_HEADER_LEN};
use crate::reader::{list_segments, Frame};
use crate::writer::seg_ids_of;
use dpm_telemetry::Counter;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Bytes offered again that the tail had already consumed — the
/// re-fetch cost of polling in-progress segments whole.
fn reparse_counter() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| dpm_telemetry::registry().counter("tail", "reparse_bytes", ""))
}

/// One stored record that owns its bytes — the live-streaming
/// counterpart of the borrowed [`Frame`], for handing records across
/// fetch boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedFrame {
    /// Arrival ordinal, global across shards.
    pub seq: u64,
    /// Monotonic store timestamp, microseconds.
    pub ts_us: u64,
    /// The filter shard that accepted the record.
    pub shard: u16,
    /// The record's `(machine, pid)` index key.
    pub proc: ProcId,
    /// The raw meter wire record, verbatim as metered.
    pub raw: Vec<u8>,
}

impl OwnedFrame {
    /// Copies a borrowed [`Frame`] into an owning one.
    pub fn of(f: &Frame<'_>) -> OwnedFrame {
        OwnedFrame {
            seq: f.seq,
            ts_us: f.ts_us,
            shard: f.shard,
            proc: f.proc,
            raw: f.raw.to_vec(),
        }
    }
}

/// Incremental byte-offset cursors over a store's segment files.
#[derive(Debug, Clone, Default)]
pub struct StoreTail {
    /// Consumed byte offset per segment file name.
    offsets: HashMap<String, usize>,
    /// Sealed segments consumed to their last byte: [`StoreTail::poll`]
    /// never reads them again.
    retired: HashSet<String>,
}

impl StoreTail {
    /// A tail that has consumed nothing.
    pub fn new() -> StoreTail {
        StoreTail::default()
    }

    /// Decodes the frames appended to segment `name` since the last
    /// offer, advancing the cursor past every whole valid frame. A
    /// partial or invalid frame at the tail stops the cursor *before*
    /// it, so the frame is consumed whole once the writer completes
    /// it. Bytes that do not start with a valid segment header are
    /// ignored entirely (the header may itself still be in flight).
    pub fn offer_segment(&mut self, name: &str, bytes: &[u8]) -> Vec<OwnedFrame> {
        let off = self.offsets.entry(name.to_owned()).or_insert(0);
        reparse_counter().add((*off).min(bytes.len()) as u64);
        if *off == 0 {
            if decode_seg_header(bytes).is_none() {
                return Vec::new();
            }
            *off = SEG_HEADER_LEN;
        }
        let mut out = Vec::new();
        while let Some((env, raw, next)) = decode_frame(bytes, *off) {
            out.push(OwnedFrame {
                seq: env.seq,
                ts_us: env.ts_us,
                shard: env.shard,
                proc: env.proc,
                raw: raw.to_vec(),
            });
            *off = next;
        }
        out
    }

    /// One round of the polling protocol (see the module docs) over
    /// the store at `dir`: lists it, reads every segment not yet
    /// retired, and returns all newly appeared frames sorted by seq.
    pub fn poll(&mut self, source: &dyn StoreSource, dir: &str) -> Vec<OwnedFrame> {
        let names = list_segments(source, dir);
        let mut newest: HashMap<u16, u32> = HashMap::new();
        for (shard, no) in names.iter().filter_map(|n| seg_ids_of(n)) {
            let e = newest.entry(shard).or_insert(no);
            *e = (*e).max(no);
        }
        let mut out = Vec::new();
        for name in names {
            if self.retired.contains(&name) {
                continue;
            }
            let Some(bytes) = source.read(&name) else {
                continue;
            };
            out.extend(self.offer_segment(&name, &bytes));
            let sealed = seg_ids_of(&name).is_some_and(|(shard, no)| no < newest[&shard]);
            if sealed && self.consumed(&name) == bytes.len() {
                self.retired.insert(name);
            }
        }
        out.sort_by_key(|f| f.seq);
        out
    }

    /// Bytes consumed so far of segment `name` (0 if never offered).
    pub fn consumed(&self, name: &str) -> usize {
        self.offsets.get(name).copied().unwrap_or(0)
    }
}
