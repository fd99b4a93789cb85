//! The monitor's one byte codec.
//!
//! Every format the monitor speaks — Appendix-A meter messages, the
//! Fig. 3.6 daemon RPC, control-log events, store frames, segment
//! headers and index sidecars — is little-endian (VAX order) integers,
//! raw byte runs, and `u32`-length-prefixed byte strings. This module
//! is the only place that knows how those are laid down and picked up:
//! a bounded [`Reader`], a [`Writer`], total fixed-offset reads
//! ([`u16_at`], [`u32_at`]) and the meter stream's framing
//! rule ([`frame_step`]). The layouts themselves are contracts and
//! live with their messages; the cursor that walks them is not, and
//! lives here once.
//!
//! Everything is total on hostile bytes: reads return an error instead
//! of indexing past the end, arithmetic on untrusted lengths is
//! checked, and no length read from input sizes an allocation
//! ([`Reader::count`] bounds an element count by the bytes left to
//! hold the elements).

use crate::msg::{HEADER_LEN, MAX_METER_MSG};
use std::fmt;

/// Why a [`Reader`] could not produce a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The bytes end before the value does.
    Truncated {
        /// Bytes the buffer must hold for the read to succeed.
        need: usize,
        /// Bytes it holds.
        have: usize,
    },
    /// A length prefix exceeds the caller's bound, or an element count
    /// exceeds what the remaining bytes can hold.
    TooLong {
        /// The length or count read.
        len: usize,
        /// The largest acceptable value.
        max: usize,
    },
    /// A string field is not UTF-8.
    NotUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            WireError::TooLong { len, max } => write!(f, "absurd length {len} (at most {max})"),
            WireError::NotUtf8 => f.write_str("string is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.to_string()
    }
}

/// A bounded cursor over borrowed bytes.
///
/// A read consumes exactly the bytes of its value, or fails (every
/// read with [`WireError::Truncated`] when the bytes run out) — after
/// which the cursor's position is unspecified and decoding is over.
/// Slices come back borrowed from the input.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// The unread bytes.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            end => Err(WireError::Truncated {
                need: end.unwrap_or(usize::MAX),
                have: self.buf.len(),
            }),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take(N) yields N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length prefix no larger than `max`, then that many
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLong`] when the prefix exceeds `max`,
    /// [`WireError::Truncated`] when the bytes are not all there.
    pub fn bytes(&mut self, max: usize) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(WireError::TooLong { len, max });
        }
        self.take(len)
    }

    /// [`Reader::bytes`] holding UTF-8.
    ///
    /// # Errors
    ///
    /// As [`Reader::bytes`], plus [`WireError::NotUtf8`].
    pub fn str(&mut self, max: usize) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes(max)?).map_err(|_| WireError::NotUtf8)
    }

    /// A `u32` element count that the remaining bytes can hold, each
    /// element taking at least `min_elem_bytes` on the wire — so a
    /// `Vec::with_capacity(count)` is bounded by the input's length,
    /// whatever the input claims.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLong`] when `count × min_elem_bytes` exceeds
    /// the bytes left, [`WireError::Truncated`] on a short prefix.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        let max = self.rest().len() / min_elem_bytes.max(1);
        if len > max {
            return Err(WireError::TooLong { len, max });
        }
        Ok(len)
    }
}

/// An appending encoder over a caller's `Vec<u8>`.
///
/// Offsets ([`Writer::len`], [`Writer::patch_u32`]) are offsets into
/// that vector, so a message appended after others can still patch its
/// own length or checksum placeholder.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Appends to `out`.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { out }
    }

    /// The vector's length so far.
    #[allow(clippy::len_without_is_empty)] // an offset, not a collection
    #[inline]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.out.push(v);
        self
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Bytes as they are, no prefix.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.out.extend_from_slice(b);
        self
    }

    /// A `u32` length prefix, then the bytes.
    ///
    /// # Panics
    ///
    /// If `b` is 4 GiB or longer: the prefix cannot say so.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        let len = u32::try_from(b.len()).expect("length-prefixed field shorter than 4 GiB");
        self.u32(len).raw(b)
    }

    /// [`Writer::bytes`] of a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Overwrites the four bytes at offset `at` (a placeholder written
    /// earlier) with `v`.
    ///
    /// # Panics
    ///
    /// If the vector does not reach `at + 4`.
    #[inline]
    pub fn patch_u32(&mut self, at: usize, v: u32) -> &mut Self {
        self.out[at..at + 4].copy_from_slice(&v.to_le_bytes());
        self
    }
}

#[inline]
fn array_at<const N: usize>(buf: &[u8], off: usize) -> Option<[u8; N]> {
    buf.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// The little-endian `u16` at byte offset `off`, if `buf` reaches it.
#[inline]
pub fn u16_at(buf: &[u8], off: usize) -> Option<u16> {
    array_at(buf, off).map(u16::from_le_bytes)
}

/// The little-endian `u32` at byte offset `off`, if `buf` reaches it.
#[inline]
pub fn u32_at(buf: &[u8], off: usize) -> Option<u32> {
    array_at(buf, off).map(u32::from_le_bytes)
}

/// What the bytes at a meter-stream cursor are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStep {
    /// A complete record of this many bytes.
    Record(usize),
    /// Not a record: the size field (carried) is outside
    /// `HEADER_LEN..=MAX_METER_MSG`. Resynchronize by one byte.
    Garbage(u32),
    /// A prefix of a record: this many bytes are needed in all — a
    /// header's worth while the header is incomplete, the size field's
    /// worth after.
    Partial(usize),
}

/// Classifies the bytes at the front of `buf` — the meter stream's one
/// framing rule, shared by [`MeterRecord::parse`], the filter's
/// in-place walk and its carry-buffer walk.
///
/// A size field is judged only once a whole header is present, so a
/// stream cut anywhere classifies the same bytes the same way when the
/// rest arrives.
///
/// [`MeterRecord::parse`]: crate::MeterRecord::parse
#[inline]
pub fn frame_step(buf: &[u8]) -> FrameStep {
    let size = match u32_at(buf, 0) {
        Some(size) if buf.len() >= HEADER_LEN => size,
        _ => return FrameStep::Partial(HEADER_LEN),
    };
    let len = size as usize;
    if !(HEADER_LEN..=MAX_METER_MSG).contains(&len) {
        FrameStep::Garbage(size)
    } else if buf.len() < len {
        FrameStep::Partial(len)
    } else {
        FrameStep::Record(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_what_writer_wrote() {
        let mut out = vec![0xAA];
        let mut w = Writer::new(&mut out);
        let at = w.len();
        w.u32(0).u8(7).u16(0x0102).u64(u64::MAX - 1).str("héllo");
        w.bytes(&[1, 2, 3]).raw(b"xy");
        let len = w.len() as u32;
        w.patch_u32(at, len);
        let mut r = Reader::new(&out[1..]);
        assert_eq!(r.u32(), Ok(out.len() as u32));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(16), Ok("héllo"));
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert!(r.rest().is_empty());
        let have = out.len() - 1;
        let need = have + 1;
        assert_eq!(r.u8(), Err(WireError::Truncated { need, have }));
    }

    #[test]
    fn bad_lengths_are_errors_not_reads() {
        let wire = [5, 0, 0, 0, b'a', b'b'];
        let too_long = WireError::TooLong { len: 5, max: 4 };
        assert_eq!(Reader::new(&wire).bytes(4), Err(too_long));
        let truncated = WireError::Truncated { need: 9, have: 6 };
        assert_eq!(Reader::new(&wire).bytes(8), Err(truncated));
        let mut r = Reader::new(&wire);
        assert_eq!(r.u32(), Ok(5));
        // A length that overflows the cursor is truncation, not a wrap.
        let overflow = WireError::Truncated {
            need: usize::MAX,
            have: 6,
        };
        assert_eq!(r.take(usize::MAX), Err(overflow));
        let not_utf8 = [2, 0, 0, 0, 0xff, 0xfe];
        assert_eq!(Reader::new(&not_utf8).str(8), Err(WireError::NotUtf8));
        // A count is bounded by the bytes left to hold its elements.
        let wire = [3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(Reader::new(&wire).count(2), Ok(3));
        assert_eq!(Reader::new(&wire).count(0), Ok(3));
        let too_many = WireError::TooLong { len: 3, max: 2 };
        assert_eq!(Reader::new(&wire).count(4), Err(too_many));
    }

    #[test]
    fn fixed_offset_reads_are_total() {
        let b = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(u16_at(&b, 7), Some(0x0908));
        assert_eq!(u16_at(&b, 8), None);
        assert_eq!(u32_at(&b, 5), Some(0x0908_0706));
        assert_eq!(u32_at(&b, 6), None);
        assert_eq!(u32_at(&b, usize::MAX), None);
    }

    #[test]
    fn frame_step_classifies_by_the_size_field_once_a_header_is_there() {
        let mut rec = vec![0u8; 40];
        rec[0] = 36;
        assert_eq!(frame_step(&rec), FrameStep::Record(36));
        assert_eq!(frame_step(&rec[..30]), FrameStep::Partial(36));
        assert_eq!(frame_step(&rec[..23]), FrameStep::Partial(HEADER_LEN));
        assert_eq!(frame_step(&[]), FrameStep::Partial(HEADER_LEN));
        rec[0] = 23;
        assert_eq!(frame_step(&rec), FrameStep::Garbage(23));
        // An absurd size in a short prefix is still only a prefix.
        assert_eq!(frame_step(&[0xff; 10]), FrameStep::Partial(HEADER_LEN));
        let over = (MAX_METER_MSG as u32 + 1).to_le_bytes();
        rec[..4].copy_from_slice(&over);
        assert_eq!(
            frame_step(&rec),
            FrameStep::Garbage(MAX_METER_MSG as u32 + 1)
        );
        rec[..4].copy_from_slice(&(MAX_METER_MSG as u32).to_le_bytes());
        assert_eq!(frame_step(&rec), FrameStep::Partial(MAX_METER_MSG));
    }
}
