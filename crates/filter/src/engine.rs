//! The filter engine: stream reassembly, selection, reduction.
//!
//! "After receiving a message from standard input, the default filter
//! performs selection and reduction operations on the event records
//! received. It uses event record descriptions and selection rules to
//! specify the criteria for data selection and reduction." (§3.4)
//!
//! [`FilterEngine`] is the pure core — bytes in, log records out —
//! used by the standard filter *process* (see [`crate::program`]), by
//! the sharded pipeline (see [`crate::shard`]), and directly by unit
//! tests and benchmarks.
//!
//! # The zero-copy hot path
//!
//! Meter connections are byte streams, so records arrive split and
//! concatenated arbitrarily. The engine reassembles them with a cursor
//! walk over the *caller's* buffer: a record that arrives whole inside
//! one `feed_records` chunk is framed in place and handed to the
//! selection rules as a borrowed [`RecordView`] — no copy, no
//! allocation. Only a partial tail (a frame straddling a chunk
//! boundary) is copied into the engine's small carry buffer, and
//! resynchronization after stream corruption advances a cursor rather
//! than shifting bytes (the old implementation's `remove(0)` made a
//! corrupt stream cost O(n²)). The carry buffer is compacted at most
//! once per `feed_records` call, so every input byte is moved O(1) times
//! in the worst case and 0 times in the steady state.
//!
//! A kept record reaches the sink as its borrowed bytes plus a
//! [`KeptRecord`], the text rendering *not yet done*: whether a log
//! line is ever written is the sink's choice. The store sink and the
//! edge pre-filter take the bytes and never render, so a kept record
//! costs them framing, dedup and the rules — no allocation.

use crate::desc::Descriptions;
use crate::log::KeptRecord;
use crate::rules::{Rules, Verdict};
use dpm_meter::wire::{frame_step, FrameStep};
use dpm_meter::SeqWindow;
use std::mem;

/// One complete event record borrowed from a stream buffer — the
/// currency of the filter hot path. This *is* [`dpm_meter::MeterRecord`]
/// (one record view for the whole monitor); the name survives for the
/// filter-side callers that frame and consume records.
pub use dpm_meter::MeterRecord as RecordView;

/// Counters the filter keeps about its own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Records examined.
    pub seen: u64,
    /// Records written to the log.
    pub kept: u64,
    /// Records rejected by the selection rules.
    pub rejected: u64,
    /// Records the [`SeqWindow`] refused: replays of a retransmitted
    /// meter flush, and arrivals older than the window.
    pub duplicates: u64,
    /// Bytes of malformed input dropped while resynchronizing.
    pub garbage_bytes: u64,
}

impl FilterStats {
    /// Component-wise sum, used when merging per-shard statistics.
    pub(crate) fn merge(&self, other: &FilterStats) -> FilterStats {
        FilterStats {
            seen: self.seen + other.seen,
            kept: self.kept + other.kept,
            rejected: self.rejected + other.rejected,
            duplicates: self.duplicates + other.duplicates,
            garbage_bytes: self.garbage_bytes + other.garbage_bytes,
        }
    }
}

/// A streaming filter: feed it meter-connection bytes, collect log
/// records.
///
/// # Example
///
/// ```
/// use dpm_filter::{Descriptions, FilterEngine, Rules};
/// use dpm_meter::{MeterBody, MeterFork, MeterHeader, MeterMsg, trace_type};
///
/// let mut engine = FilterEngine::new(
///     Descriptions::standard(),
///     Rules::parse("type=7")?, // keep only forks
/// );
/// let msg = MeterMsg {
///     header: MeterHeader { size: 0, machine: 0, cpu_time: 5, seq: 0, proc_time: 0,
///                           trace_type: trace_type::FORK },
///     body: MeterBody::Fork(MeterFork { pid: 1, pc: 2, new_pid: 3 }),
/// };
/// let lines = engine.feed(&msg.encode());
/// assert_eq!(lines.len(), 1);
/// assert!(lines[0].starts_with("event=fork"));
/// # Ok::<(), dpm_filter::RuleParseError>(())
/// ```
///
/// For streaming consumers, [`FilterEngine::feed_records`] delivers
/// each kept record to a sink closure instead of materializing a
/// `Vec<String>` per chunk:
///
/// ```
/// # use dpm_filter::FilterEngine;
/// # let mut engine = FilterEngine::standard();
/// # let data: &[u8] = &[];
/// let mut kept = 0u32;
/// engine.feed_records(data, &mut |_view, _record| kept += 1);
/// ```
#[derive(Debug)]
pub struct FilterEngine {
    desc: Descriptions,
    rules: Rules,
    /// Carry buffer holding only a partial tail between chunks.
    pending: Vec<u8>,
    stats: FilterStats,
    /// Duplicate suppression: a retransmitted flush replays records
    /// already delivered on this ordered stream.
    window: SeqWindow,
}

impl FilterEngine {
    /// Creates an engine with the given descriptions and rules.
    pub fn new(desc: Descriptions, rules: Rules) -> FilterEngine {
        FilterEngine {
            desc,
            rules,
            pending: Vec::new(),
            stats: FilterStats::default(),
            window: SeqWindow::default(),
        }
    }

    /// An engine with the standard descriptions and keep-everything
    /// rules.
    pub fn standard() -> FilterEngine {
        FilterEngine::new(Descriptions::standard(), Rules::default())
    }

    /// The engine's counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Bytes buffered awaiting a complete record.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Feeds a chunk of meter-connection bytes, delivering each kept
    /// record to `sink` as its borrowed raw wire bytes plus the
    /// unrendered [`KeptRecord`].
    ///
    /// This is the streaming core of the filter pipeline. Records
    /// wholly contained in `data` are framed and processed in place;
    /// only a trailing partial frame is copied into the engine. In the
    /// steady state (no corruption, records completed by each chunk)
    /// the per-record path performs no heap allocation of its own.
    /// The binary log store appends `view.bytes()` verbatim and
    /// ignores the second argument; a text sink writes its line. Both borrow either the caller's chunk or the engine's carry
    /// buffer and are valid only for the duration of the callback.
    pub fn feed_records<F>(&mut self, data: &[u8], sink: &mut F)
    where
        F: FnMut(RecordView<'_>, KeptRecord<'_>),
    {
        let data = self.drain_carry(data, sink);
        let Some(mut data) = data else { return };

        // Cursor walk over the caller's buffer: zero-copy framing.
        let mut off = 0usize;
        loop {
            match frame_step(&data[off..]) {
                FrameStep::Record(size) => {
                    self.process_raw(RecordView::new(&data[off..off + size]), sink);
                    off += size;
                }
                FrameStep::Garbage(_) => {
                    // Corrupt stream: advance the cursor one byte. No
                    // bytes move; this is O(1) per garbage byte.
                    off += 1;
                    self.stats.garbage_bytes += 1;
                }
                FrameStep::Partial(_) => break,
            }
        }
        data = &data[off..];
        if !data.is_empty() {
            // Only the straddling tail is copied (at most one frame).
            self.pending.extend_from_slice(data);
        }
    }

    /// Completes (or resynchronizes past) any frame straddling the
    /// previous chunk. Returns the unconsumed remainder of `data`, or
    /// `None` when the whole chunk was absorbed into the carry buffer.
    fn drain_carry<'a, F>(&mut self, mut data: &'a [u8], sink: &mut F) -> Option<&'a [u8]>
    where
        F: FnMut(RecordView<'_>, KeptRecord<'_>),
    {
        if self.pending.is_empty() {
            return Some(data);
        }
        // Take the carry buffer so completed frames can be processed
        // (`process_raw` borrows `self` mutably) without aliasing.
        let mut carry = mem::take(&mut self.pending);
        let mut pos = 0usize; // resync/consume cursor — no shifting
        let remainder = loop {
            match frame_step(&carry[pos..]) {
                FrameStep::Record(size) => {
                    self.process_raw(RecordView::new(&carry[pos..pos + size]), sink);
                    pos += size;
                    if pos == carry.len() {
                        break Some(data); // carry drained; back to zero-copy
                    }
                }
                FrameStep::Garbage(_) => {
                    pos += 1;
                    self.stats.garbage_bytes += 1;
                }
                FrameStep::Partial(need) => {
                    // Top up with just enough to read a size field, or
                    // to finish the frame it announced.
                    let take = (need - (carry.len() - pos)).min(data.len());
                    if take == 0 {
                        break None; // input exhausted; still partial
                    }
                    carry.extend_from_slice(&data[..take]);
                    data = &data[take..];
                }
            }
        };
        // Compact once per call: every carried byte moves O(1) times.
        carry.drain(..pos);
        if remainder.is_some() {
            debug_assert!(carry.is_empty());
            carry.clear();
        }
        self.pending = carry; // keeps its capacity for the next tail
        remainder
    }

    /// Feeds a chunk of meter-connection bytes; returns the log lines
    /// for the records completed and kept by this chunk.
    ///
    /// Compatibility wrapper over [`FilterEngine::feed_records`] — it
    /// materializes one `String` per kept record. Streaming consumers
    /// should use `feed_records` directly.
    pub fn feed(&mut self, data: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        self.feed_records(data, &mut |_view, rec| out.push(rec.to_string()));
        out
    }

    /// Runs one complete, borrowed record through dedup, selection and
    /// reduction, delivering its raw view and the unrendered record to
    /// `sink` if kept.
    fn process_raw<F>(&mut self, record: RecordView<'_>, sink: &mut F)
    where
        F: FnMut(RecordView<'_>, KeptRecord<'_>),
    {
        self.stats.seen += 1;
        let pid = record.pid().unwrap_or(0);
        if !self.window.admit(record.machine(), pid, record.seq()) {
            self.stats.duplicates += 1;
            return;
        }
        match self.rules.verdict(&self.desc, record.bytes()) {
            Verdict::Reject => {
                self.stats.rejected += 1;
            }
            Verdict::Keep { discard_fields } => {
                match KeptRecord::new(&self.desc, record.bytes(), &discard_fields) {
                    Some(rec) => {
                        self.stats.kept += 1;
                        sink(record, rec);
                    }
                    None => {
                        // Unknown trace type: count it as garbage.
                        self.stats.garbage_bytes += record.len() as u64;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogRecord;
    use dpm_meter::{MeterBody, MeterFork, MeterHeader, MeterMsg, MeterSendMsg, SockName};

    fn msg(machine: u16, body: MeterBody) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: 1,
                seq: 0,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode()
    }

    fn send(machine: u16, len: u32) -> Vec<u8> {
        msg(
            machine,
            MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 0,
                sock: 2,
                msg_length: len,
                dest_name: Some(SockName::inet(0, 9)),
            }),
        )
    }

    #[test]
    fn reassembles_records_across_chunk_boundaries() {
        let mut e = FilterEngine::standard();
        let a = send(0, 10);
        let b = send(0, 20);
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        // Feed in awkward chunks.
        let mut lines = Vec::new();
        for chunk in wire.chunks(7) {
            lines.extend(e.feed(chunk));
        }
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("msgLength=10"));
        assert!(lines[1].contains("msgLength=20"));
        assert_eq!(e.pending_bytes(), 0);
        assert_eq!(e.stats().kept, 2);
    }

    #[test]
    fn selection_rejects_and_counts() {
        let mut e = FilterEngine::new(Descriptions::standard(), Rules::parse("machine=5").unwrap());
        let mut wire = send(5, 1);
        wire.extend_from_slice(&send(6, 1));
        let lines = e.feed(&wire);
        assert_eq!(lines.len(), 1);
        assert_eq!(e.stats().seen, 2);
        assert_eq!(e.stats().rejected, 1);
    }

    #[test]
    fn resynchronizes_after_garbage() {
        let mut e = FilterEngine::standard();
        let mut wire = vec![0xff; 5]; // garbage prefix
        wire.extend_from_slice(&send(1, 7));
        let lines = e.feed(&wire);
        assert_eq!(lines.len(), 1, "recovered the record after garbage");
        assert!(e.stats().garbage_bytes >= 5);
    }

    #[test]
    fn discard_reduction_happens_in_output() {
        let mut e = FilterEngine::new(
            Descriptions::standard(),
            Rules::parse("type=1, pc=#*").unwrap(),
        );
        let lines = e.feed(&send(0, 3));
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].contains("pc="), "pc was discarded: {}", lines[0]);
    }

    #[test]
    fn partial_header_waits_for_more() {
        let mut e = FilterEngine::standard();
        let wire = msg(
            0,
            MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 2,
                new_pid: 3,
            }),
        );
        assert!(e.feed(&wire[..10]).is_empty());
        assert_eq!(e.pending_bytes(), 10);
        let lines = e.feed(&wire[10..]);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn feed_delivers_readable_records() {
        let mut e = FilterEngine::standard();
        let records: Vec<_> = e
            .feed(&send(3, 64))
            .iter()
            .map(|l| LogRecord::parse(l))
            .collect();
        let [Some(record)] = &records[..] else {
            panic!("one record: {records:?}");
        };
        assert!(record.to_string().starts_with("event=send "));
        assert_eq!(record.get_int("msgLength"), Some(64));
        assert_eq!(record.get_int("machine"), Some(3));
    }

    #[test]
    fn feed_records_pairs_raw_bytes_with_rendered_records() {
        let a = send(3, 64);
        let b = send(4, 65);
        let mut wire = a.clone();
        wire.extend_from_slice(&[0xde, 0xad]); // mid-stream garbage
        wire.extend_from_slice(&b);
        let mut e = FilterEngine::standard();
        let mut got: Vec<(Vec<u8>, String)> = Vec::new();
        // Awkward chunks so the second record round-trips through the
        // carry buffer; its view must still be byte-exact.
        for chunk in wire.chunks(9) {
            e.feed_records(chunk, &mut |view, rec| {
                got.push((view.bytes().to_vec(), rec.to_string()));
            });
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, a);
        assert_eq!(got[1].0, b);
        assert!(got[0].1.contains("msgLength=64"));
        assert!(got[1].1.contains("msgLength=65"));
    }

    #[test]
    fn feed_matches_feed_records_exactly() {
        let mut wire = send(0, 1);
        wire.extend_from_slice(&[0xde, 0xad]); // mid-stream garbage
        wire.extend_from_slice(&send(0, 2));
        let mut a = FilterEngine::standard();
        let mut b = FilterEngine::standard();
        let lines = a.feed(&wire);
        let mut sunk = Vec::new();
        b.feed_records(&wire, &mut |_, rec| sunk.push(rec.to_string()));
        assert_eq!(lines, sunk);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn garbage_straddling_chunks_resyncs_like_one_chunk() {
        let mut wire = send(0, 1);
        wire.extend_from_slice(&[0x00; 40]); // zeros: size field of 0
        wire.extend_from_slice(&send(0, 2));
        wire.extend_from_slice(&[0xff; 3]); // trailing garbage < header
        let mut whole = FilterEngine::standard();
        let whole_lines = whole.feed(&wire);
        for chunk_len in [1usize, 2, 3, 7, 24, 25] {
            let mut split = FilterEngine::standard();
            let mut lines = Vec::new();
            for chunk in wire.chunks(chunk_len) {
                lines.extend(split.feed(chunk));
            }
            assert_eq!(lines, whole_lines, "chunk size {chunk_len}");
            assert_eq!(split.stats(), whole.stats(), "chunk size {chunk_len}");
            assert_eq!(
                split.pending_bytes(),
                whole.pending_bytes(),
                "chunk size {chunk_len}"
            );
        }
    }

    #[test]
    fn oversize_frame_is_garbage_not_a_stall() {
        let mut e = FilterEngine::standard();
        // A corrupted record whose size field claims 5000 bytes: the
        // engine must resynchronize rather than wait for 5000 bytes.
        // The filler is 0xff so no one-byte shift aliases into a
        // plausible size field.
        let mut wire = 5000u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xff; 56]);
        wire.extend_from_slice(&send(0, 6));
        let lines = e.feed(&wire);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("msgLength=6"));
        assert_eq!(e.stats().garbage_bytes, 60);
        assert_eq!(e.pending_bytes(), 0);
    }

    #[test]
    fn record_view_reads_header_fields_in_place() {
        let wire = send(9, 123);
        let view = RecordView::new(&wire);
        assert_eq!(view.machine(), 9);
        assert_eq!(view.trace_type(), dpm_meter::trace_type::SEND);
        assert_eq!(view.len(), wire.len());
        assert_eq!(view.bytes().as_ptr(), wire.as_ptr(), "borrow, not copy");
        let msg = view.to_msg().unwrap();
        assert_eq!(msg.header.machine, 9);
        // One type under two names: what the meter crate parses is
        // what the engine processes.
        let parsed: RecordView<'_> = dpm_meter::MeterRecord::parse(&wire).unwrap();
        let mut kept = 0;
        FilterEngine::standard().feed_records(parsed.bytes(), &mut |_, _| kept += 1);
        assert_eq!(kept, 1);
    }

    #[test]
    fn stats_merge_sums_componentwise() {
        let a = FilterStats {
            seen: 1,
            kept: 2,
            rejected: 3,
            duplicates: 4,
            garbage_bytes: 5,
        };
        let b = FilterStats {
            seen: 10,
            kept: 20,
            rejected: 30,
            duplicates: 40,
            garbage_bytes: 50,
        };
        assert_eq!(
            a.merge(&b),
            FilterStats {
                seen: 11,
                kept: 22,
                rejected: 33,
                duplicates: 44,
                garbage_bytes: 55,
            }
        );
    }

    /// Encodes a send message with an explicit per-process sequence.
    fn send_seq(machine: u16, pid: u32, seq: u32) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: 1,
                seq,
                proc_time: 0,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid,
                pc: 0,
                sock: 2,
                msg_length: 9,
                dest_name: None,
            }),
        }
        .encode()
    }

    #[test]
    fn retransmitted_flush_is_deduplicated() {
        let mut e = FilterEngine::standard();
        // A flush batch of three records...
        let mut batch = send_seq(1, 50, 1);
        batch.extend_from_slice(&send_seq(1, 50, 2));
        batch.extend_from_slice(&send_seq(1, 50, 3));
        let first = e.feed(&batch);
        assert_eq!(first.len(), 3);
        // ...delivered a second time (at-least-once retransmission).
        let second = e.feed(&batch);
        assert!(second.is_empty(), "duplicates must not double-count");
        assert_eq!(e.stats().duplicates, 3);
        assert_eq!(e.stats().kept, 3);
    }

    #[test]
    fn dedup_is_per_process_and_per_machine() {
        let mut e = FilterEngine::standard();
        let mut wire = send_seq(1, 50, 1);
        wire.extend_from_slice(&send_seq(1, 51, 1)); // other pid
        wire.extend_from_slice(&send_seq(2, 50, 1)); // other machine
        let lines = e.feed(&wire);
        assert_eq!(lines.len(), 3, "same seq, distinct processes");
        assert_eq!(e.stats().duplicates, 0);
    }

    #[test]
    fn unsequenced_records_are_never_deduplicated() {
        let mut e = FilterEngine::standard();
        let mut wire = send_seq(1, 50, 0);
        wire.extend_from_slice(&send_seq(1, 50, 0));
        let lines = e.feed(&wire);
        assert_eq!(lines.len(), 2, "seq 0 means unsequenced");
        assert_eq!(e.stats().duplicates, 0);
    }
}
