//! The on-disk format: frames and segment headers.
//!
//! ## Frame
//!
//! Every accepted record becomes one frame (all integers
//! little-endian, VAX order like the meter wire format):
//!
//! ```text
//! u32  payload length            ─┐ 8-byte frame prefix
//! u32  CRC-32 of the payload     ─┘
//! u64  seq        arrival ordinal, global across shards
//! u64  ts_us      monotonic store timestamp, microseconds
//! u16  shard      the filter shard that accepted the record
//! u16  machine    copied out of the record header (index key)
//! u32  pid        copied out of the record body   (index key)
//! ...  raw record — the meter wire bytes, verbatim
//! ```
//!
//! The 24-byte envelope duplicates `(machine, pid)` so index
//! construction and point queries never parse record descriptions.
//! A frame is *valid* iff its length field is in range and the CRC
//! matches; recovery truncates a segment to its last valid frame.
//!
//! ## Segment header
//!
//! Each segment file starts with a fixed 32-byte header:
//!
//! ```text
//! [0..8)   magic  b"DPMSEG01"
//! [8..12)  u32    format version (1)
//! [12..14) u16    shard id
//! [14..16) u16    reserved (0)
//! [16..24) u64    base seq — lower bound on the frames' seq numbers
//! [24..32) u64    store timestamp at creation, microseconds
//! ```

use crate::crc::crc32;
use dpm_meter::wire::{Reader, Writer};
use dpm_meter::{MeterRecord, MAX_METER_MSG};

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"DPMSEG01";

/// On-disk format version.
pub const SEG_VERSION: u32 = 1;

/// Byte length of the fixed segment header.
pub const SEG_HEADER_LEN: usize = 32;

/// Byte length of the frame envelope (seq, ts, shard, machine, pid).
pub const ENVELOPE_LEN: usize = 24;

/// Bytes a frame adds on top of the raw record it stores
/// (8-byte prefix + envelope).
pub const FRAME_OVERHEAD: usize = 8 + ENVELOPE_LEN;

/// Largest payload a valid frame may carry.
pub const MAX_PAYLOAD: usize = ENVELOPE_LEN + MAX_METER_MSG;

/// A process key as the store indexes it: the record header's
/// `machine` and the record body's `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId {
    /// Machine (host id) from the record header.
    pub machine: u16,
    /// Process id on that machine, from the record body.
    pub pid: u32,
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}:p{}", self.machine, self.pid)
    }
}

/// Extracts the index key from a raw meter record: the header's
/// `machine` and the body's leading `pid`, which every Appendix-A
/// event carries there. A record too short for either keys as 0.
pub fn proc_id_of(raw: &[u8]) -> ProcId {
    let record = MeterRecord::new(raw);
    ProcId {
        machine: record.machine(),
        pid: record.pid().unwrap_or(0),
    }
}

/// The decoded envelope of one frame (borrowing nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Arrival ordinal, global across shards.
    pub seq: u64,
    /// Monotonic store timestamp, microseconds.
    pub ts_us: u64,
    /// Accepting shard.
    pub shard: u16,
    /// Index key.
    pub proc: ProcId,
}

/// Appends one encoded frame to `out`; returns the frame's byte
/// length.
pub fn encode_frame(out: &mut Vec<u8>, env: &Envelope, raw: &[u8]) -> usize {
    let payload_len = ENVELOPE_LEN + raw.len();
    debug_assert!(payload_len <= MAX_PAYLOAD, "record exceeds MAX_METER_MSG");
    let start = out.len();
    let mut w = Writer::new(out);
    w.u32(payload_len as u32).u32(0); // CRC placeholder
    w.u64(env.seq).u64(env.ts_us).u16(env.shard);
    w.u16(env.proc.machine).u32(env.proc.pid).raw(raw);
    let crc = crc32(&out[start + 8..]);
    Writer::new(out).patch_u32(start + 4, crc);
    out.len() - start
}

/// Decodes the frame starting at `off` in `bytes`. Returns the
/// envelope, the raw record slice, and the offset one past the frame.
/// `None` for anything invalid — truncation, out-of-range length, or
/// CRC mismatch — which recovery treats as the torn tail.
pub fn decode_frame(bytes: &[u8], off: usize) -> Option<(Envelope, &[u8], usize)> {
    let mut r = Reader::new(bytes.get(off..)?);
    let payload_len = r.u32().ok()? as usize;
    if !(ENVELOPE_LEN..=MAX_PAYLOAD).contains(&payload_len) {
        return None;
    }
    let want_crc = r.u32().ok()?;
    let payload = r.take(payload_len).ok()?;
    if crc32(payload) != want_crc {
        return None;
    }
    let mut r = Reader::new(payload);
    let env = Envelope {
        seq: r.u64().ok()?,
        ts_us: r.u64().ok()?,
        shard: r.u16().ok()?,
        proc: ProcId {
            machine: r.u16().ok()?,
            pid: r.u32().ok()?,
        },
    };
    Some((env, r.rest(), off + 8 + payload_len))
}

/// Encodes a segment header.
pub fn encode_seg_header(shard: u16, base_seq: u64, created_us: u64) -> [u8; SEG_HEADER_LEN] {
    let mut h = Vec::with_capacity(SEG_HEADER_LEN);
    let mut w = Writer::new(&mut h);
    w.raw(SEG_MAGIC).u32(SEG_VERSION).u16(shard).u16(0); // reserved
    w.u64(base_seq).u64(created_us);
    h.try_into()
        .expect("a segment header is SEG_HEADER_LEN bytes")
}

/// Decoded segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegHeader {
    /// Shard id the segment belongs to.
    pub shard: u16,
    /// Lower bound on the seq numbers of the segment's frames.
    pub base_seq: u64,
    /// Store timestamp at creation, microseconds.
    pub created_us: u64,
}

/// Validates and decodes a segment header; `None` when the bytes do
/// not start with a well-formed header of a known version.
pub fn decode_seg_header(bytes: &[u8]) -> Option<SegHeader> {
    let mut r = Reader::new(bytes);
    if r.take(SEG_MAGIC.len()).ok()? != SEG_MAGIC || r.u32().ok()? != SEG_VERSION {
        return None;
    }
    let (shard, _reserved) = (r.u16().ok()?, r.u16().ok()?);
    Some(SegHeader {
        shard,
        base_seq: r.u64().ok()?,
        created_us: r.u64().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_record() -> Vec<u8> {
        // A plausible 36-byte record: size, machine=7 in the header,
        // pid=4242 at body offset 0.
        let mut r = vec![0u8; 36];
        r[0..4].copy_from_slice(&36u32.to_le_bytes());
        r[4..6].copy_from_slice(&7u16.to_le_bytes());
        r[20..24].copy_from_slice(&10u32.to_le_bytes());
        r[24..28].copy_from_slice(&4242u32.to_le_bytes());
        r
    }

    #[test]
    fn frame_round_trips() {
        let raw = raw_record();
        let env = Envelope {
            seq: 99,
            ts_us: 1_000_001,
            shard: 3,
            proc: proc_id_of(&raw),
        };
        let mut buf = Vec::new();
        let n = encode_frame(&mut buf, &env, &raw);
        assert_eq!(n, buf.len());
        assert_eq!(n, FRAME_OVERHEAD + raw.len());
        let (got_env, got_raw, next) = decode_frame(&buf, 0).unwrap();
        assert_eq!(got_env, env);
        assert_eq!(
            got_env.proc,
            ProcId {
                machine: 7,
                pid: 4242
            }
        );
        assert_eq!(got_raw, &raw[..]);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let raw = raw_record();
        let env = Envelope {
            seq: 1,
            ts_us: 2,
            shard: 0,
            proc: proc_id_of(&raw),
        };
        let mut buf = Vec::new();
        encode_frame(&mut buf, &env, &raw);
        // Truncated.
        assert!(decode_frame(&buf[..buf.len() - 1], 0).is_none());
        // Bit flip in the payload.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        assert!(decode_frame(&flipped, 0).is_none());
        // Absurd length field.
        let mut long = buf.clone();
        long[0..4].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(decode_frame(&long, 0).is_none());
    }

    #[test]
    fn seg_header_round_trips() {
        let h = encode_seg_header(5, 1234, 42);
        let got = decode_seg_header(&h).unwrap();
        assert_eq!(
            got,
            SegHeader {
                shard: 5,
                base_seq: 1234,
                created_us: 42
            }
        );
        assert!(decode_seg_header(&h[..10]).is_none());
        let mut bad = h;
        bad[0] = b'X';
        assert!(decode_seg_header(&bad).is_none());
    }

    #[test]
    fn proc_id_tolerates_short_records() {
        assert_eq!(proc_id_of(&[]), ProcId { machine: 0, pid: 0 });
        assert_eq!(proc_id_of(&[0; 10]), ProcId { machine: 0, pid: 0 });
    }
}
