//! The monitor's one byte codec.
//!
//! Every format the monitor speaks — Appendix-A meter messages, the
//! Fig. 3.6 daemon RPC, control-log events, store frames, segment
//! headers and index sidecars — is little-endian (VAX order) integers,
//! raw byte runs, and `u32`-length-prefixed byte strings. This module
//! is the only place that knows how those are laid down and picked up:
//! a bounded [`Reader`], a [`Writer`], total fixed-offset reads
//! ([`u32_at`] and its `u16` twin) and the meter stream's framing
//! rule ([`frame_step`]). The layouts themselves are contracts and
//! live with their messages, each written once as a list of [`Leaf`]s
//! ([`layout!`](crate::layout)); the leaves — one field type's byte
//! form apiece, with its bound — and the cursor they walk are not, and
//! live here once.
//!
//! Everything is total on hostile bytes: reads return an error instead
//! of indexing past the end, arithmetic on untrusted lengths is
//! checked, and no length read from input sizes an allocation
//! ([`Reader::count`] bounds an element count by the bytes left to
//! hold the elements).

use crate::msg::{Pid, HEADER_LEN, MAX_METER_MSG};
use crate::MeterFlags;
use std::fmt;
use std::marker::PhantomData;

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
    /// A word (carried) names no value of its field (named): a port
    /// above 65535.
    OutOfRange(&'static str, u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            WireError::TooLong { len, max } => write!(f, "absurd length {len} (at most {max})"),
            WireError::NotUtf8 => f.write_str("string is not UTF-8"),
            WireError::OutOfRange(what, value) => write!(f, "{what} {value} out of range"),
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

    /// The bytes read so far: where a field whose length word came
    /// earlier finds it.
    #[inline]
    pub(crate) fn consumed(&self) -> &'a [u8] {
        &self.buf[..self.pos]
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

/// One field type's byte form, written once: [`put`](Leaf::put) lays a
/// value down, [`get`](Leaf::get) picks it up with the form's bounds
/// checked — so a message described as a list of leaves
/// ([`layout!`](crate::layout)) encodes and decodes from that one list,
/// and decodes totally. A leaf names a form, not always the value's own
/// type: a port is a [`Port`] in the daemon RPC and a `u16` in a
/// control event. `get` fails with `E`, the error of the message read.
pub trait Leaf<E> {
    /// The value the bytes carry.
    type Value;
    /// The fewest bytes a value takes: what bounds a [`List`]'s count.
    const MIN: usize = 4;
    /// Appends `v`.
    fn put(v: &Self::Value, w: &mut Writer<'_>);
    /// Reads a value.
    ///
    /// # Errors
    ///
    /// The bytes end early, break the form's bound or name no value.
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, E>;
}

/// The little-endian integers: each one's [`Reader`] and [`Writer`]
/// method, and its leaf.
macro_rules! ints {
    ($($t:ident)*) => {$(
        impl Reader<'_> {
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self) -> Result<$t, WireError> { self.array().map($t::from_le_bytes) }
        }

        impl Writer<'_> {
            #[doc = concat!("A little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self, v: $t) -> &mut Self { self.raw(&v.to_le_bytes()) }
        }

        leaves! { [] $t => $t, min std::mem::size_of::<$t>(); |v, w| w.$t(*v); |r| Ok(r.$t()?); }
    )*};
}

/// Implements [`Leaf`] for each form from its generics, its value type
/// (and [`Leaf::MIN`], when not 4), a `put` body and a `get` body.
macro_rules! leaves {
    ($([$($g:tt)*] $leaf:ty => $t:ty $(, min $min:expr)?; |$v:ident, $w:ident| $put:expr; |$r:ident| $get:expr;)*) => {$(
        impl<E: From<WireError>, $($g)*> Leaf<E> for $leaf {
            type Value = $t;
            $(const MIN: usize = $min;)?
            fn put($v: &$t, $w: &mut Writer<'_>) { $put; }
            fn get($r: &mut Reader<'_>) -> Result<$t, E> { $get }
        }
    )*};
}

ints!(u8 u16 u32 u64);

/// A port carried as a `u32`, refused above 65535 rather than narrowed
/// to some other port.
pub struct Port;

/// A `u32`-length-prefixed UTF-8 string of at most `MAX` bytes.
pub struct Str<const MAX: usize>;

/// A [`Str`] that may be absent, written as `""` then: absent and empty
/// are one value.
pub struct OptStr<const MAX: usize>;

/// A `u32`-length-prefixed byte run of at most `MAX` bytes.
pub struct Bytes<const MAX: usize>;

/// A `u32` count of at most `CAP`, then that many `L`s. The count is
/// bounded by the bytes left too ([`Reader::count`]), so no count read
/// sizes an allocation.
pub struct List<L, const CAP: usize>(PhantomData<L>);

/// `L` after a `u32` holding the length of the whole, that word
/// included: a daemon RPC frame, a meter message (its `size`). A frame
/// is measured by its stream's reader, so `get` passes over the word.
pub struct Frame<L>(PhantomData<L>);

/// `L` inside a [`Bytes`] run of at most `MAX` bytes, written in place.
pub struct Nested<L, const MAX: usize>(PhantomData<L>);

leaves! {
    [] bool => bool; |v, w| w.u32(u32::from(*v)); |r| Ok(r.u32()? != 0);
    [] Port => u16; |v, w| w.u32(u32::from(*v));
        |r| { let x = r.u32()?; u16::try_from(x).map_err(|_| WireError::OutOfRange("port", x).into()) };
    [] MeterFlags => MeterFlags; |v, w| w.u32(v.bits()); |r| Ok(MeterFlags::from_bits(r.u32()?));
    [] Pid => Pid; |v, w| w.u32(v.0); |r| Ok(Pid(r.u32()?));
    [const MAX: usize] Str<MAX> => String; |v, w| w.bytes(v.as_bytes());
        |r| Ok(std::str::from_utf8(r.bytes(MAX)?).map_err(|_| WireError::NotUtf8)?.to_owned());
    [const MAX: usize] OptStr<MAX> => Option<String>; |v, w| w.bytes(v.as_deref().unwrap_or("").as_bytes());
        |r| Ok(Some(<Str<MAX> as Leaf<E>>::get(r)?).filter(|s| !s.is_empty()));
    [const MAX: usize] Bytes<MAX> => Vec<u8>; |v, w| w.bytes(v); |r| Ok(r.bytes(MAX)?.to_vec());
    [L: Leaf<E>, const CAP: usize] List<L, CAP> => Vec<L::Value>;
        |v, w| { w.u32(v.len() as u32); v.iter().for_each(|x| L::put(x, w)) };
        |r| match r.count(L::MIN)? {
            len if len > CAP => Err(WireError::TooLong { len, max: CAP }.into()),
            len => (0..len).map(|_| L::get(r)).collect(),
        };
    [A: Leaf<E>, B: Leaf<E>] (A, B) => (A::Value, B::Value), min A::MIN + B::MIN;
        |v, w| { A::put(&v.0, w); B::put(&v.1, w) }; |r| Ok((A::get(r)?, B::get(r)?));
    [L: Leaf<E>] Frame<L> => L::Value;
        |v, w| { let at = w.len(); L::put(v, w.u32(0)); w.patch_u32(at, (w.len() - at) as u32) };
        |r| { r.u32()?; L::get(r) };
    [L: Leaf<E>, const MAX: usize] Nested<L, MAX> => L::Value;
        |v, w| { let at = w.len(); L::put(v, w.u32(0)); w.patch_u32(at, (w.len() - at - 4) as u32) };
        |r| L::get(&mut Reader::new(r.bytes(MAX)?));
}

/// Describes a message once, as its fields' [`Leaf`]s in wire order,
/// and implements [`Leaf`] for it from that one list: `put` walks the
/// list writing, `get` walks it reading.
///
/// A struct is its fields — `impl Leaf<E> for S { field: Leaf, … }` —
/// and with `..base` after them, the fields not listed are `base`'s
/// when read.
///
/// An enum is a tag naming the variant, then the variant's fields:
/// `impl Leaf<E> for Enum by TagLeaf;`, then the fn that names each
/// variant's tag, whose arms map a tag to a variant and its fields (a
/// tuple variant wraps a struct: `Tag => V(S { field: Leaf, … })`),
/// then an `else` arm making the error for a tag no variant has.
#[macro_export]
macro_rules! layout {
    (impl Leaf<$E:ty> for $S:ident { $($f:ident: $leaf:ty),* $(, ..$base:expr)? $(,)? }) => {
        impl $crate::wire::Leaf<$E> for $S {
            type Value = $S;
            #[inline]
            fn put(v: &$S, w: &mut $crate::wire::Writer<'_>) { $(<$leaf as $crate::wire::Leaf<$E>>::put(&v.$f, w);)* }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<$S, $E> {
                Ok($S { $($f: <$leaf as $crate::wire::Leaf<$E>>::get(r)?,)* $(..$base)? })
            }
        }
    };
    (
        impl Leaf<$E:ty> for $Enum:ident by $T:ty;
        $(#[$doc:meta])* $vis:vis fn $tag:ident() -> $TV:ty {
            $($code:path => $V:ident $(($S:ident))? { $($f:ident: $leaf:ty),* $(,)? }),* $(,)?
        } else $t:ident => $unknown:expr
    ) => {
        impl $Enum {
            $(#[$doc])*
            $vis fn $tag(&self) -> $TV { match self { $($Enum::$V { .. } => $code,)* } }
        }

        impl $crate::wire::Leaf<$E> for $Enum {
            type Value = $Enum;
            #[inline]
            fn put(v: &$Enum, w: &mut $crate::wire::Writer<'_>) {
                <$T as $crate::wire::Leaf<$E>>::put(&v.$tag(), w);
                match v {
                    $($crate::layout!(@bind $Enum::$V $(($S))? { $($f),* }) =>
                        { $(<$leaf as $crate::wire::Leaf<$E>>::put($f, w);)* })*
                }
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<$Enum, $E> {
                Ok(match <$T as $crate::wire::Leaf<$E>>::get(r)? {
                    $($code => $crate::layout!(@bind $Enum::$V $(($S))? {
                        $($f: <$leaf as $crate::wire::Leaf<$E>>::get(r)?),*
                    }),)*
                    $t => return Err($unknown),
                })
            }
        }
    };
    // A variant's pattern (fields bound by name) or value (fields given).
    (@bind $Enum:ident::$V:ident { $($f:tt)* }) => { $Enum::$V { $($f)* } };
    (@bind $Enum:ident::$V:ident ($S:ident) { $($f:tt)* }) => { $Enum::$V($S { $($f)* }) };
}

#[inline]
fn array_at<const N: usize>(buf: &[u8], off: usize) -> Option<[u8; N]> {
    buf.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// The little-endian `u16` at byte offset `off`, if `buf` reaches it.
#[inline]
pub(crate) fn u16_at(buf: &[u8], off: usize) -> Option<u16> {
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
        w.u32(0)
            .u8(7)
            .u16(0x0102)
            .u64(u64::MAX - 1)
            .bytes("héllo".as_bytes());
        w.bytes(&[1, 2, 3]).raw(b"xy");
        let len = w.len() as u32;
        w.patch_u32(at, len);
        let mut r = Reader::new(&out[1..]);
        assert_eq!(r.u32(), Ok(out.len() as u32));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.bytes(16), Ok("héllo".as_bytes()));
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
        let text = <Str<8> as Leaf<WireError>>::get(&mut Reader::new(&not_utf8));
        assert_eq!(text, Err(WireError::NotUtf8));
        // A count is bounded by the bytes left to hold its elements.
        let wire = [3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(Reader::new(&wire).count(2), Ok(3));
        assert_eq!(Reader::new(&wire).count(0), Ok(3));
        let too_many = WireError::TooLong { len: 3, max: 2 };
        assert_eq!(Reader::new(&wire).count(4), Err(too_many));
    }

    #[test]
    fn leaves_check_their_bounds() {
        type Pids = List<u32, 2>;
        let mut out = Vec::new();
        <Pids as Leaf<WireError>>::put(&vec![7, 8], &mut Writer::new(&mut out));
        <Port as Leaf<WireError>>::put(&65535, &mut Writer::new(&mut out));
        let mut r = Reader::new(&out);
        assert_eq!(<Pids as Leaf<WireError>>::get(&mut r), Ok(vec![7, 8]));
        assert_eq!(<Port as Leaf<WireError>>::get(&mut r), Ok(65535));
        // A count above the cap, a port above 65535.
        let too_many = WireError::TooLong { len: 3, max: 2 };
        let wire = [3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0];
        assert_eq!(
            <Pids as Leaf<WireError>>::get(&mut Reader::new(&wire)),
            Err(too_many)
        );
        let port = <Port as Leaf<WireError>>::get(&mut Reader::new(&[0, 0, 1, 0]));
        assert_eq!(port, Err(WireError::OutOfRange("port", 65536)));
        // A nested leaf is written in place, behind its own length.
        let mut out = Vec::new();
        <Nested<Frame<u8>, 8> as Leaf<WireError>>::put(&9, &mut Writer::new(&mut out));
        assert_eq!(out, [5, 0, 0, 0, 5, 0, 0, 0, 9]);
        let nested = <Nested<Frame<u8>, 4> as Leaf<WireError>>::get(&mut Reader::new(&out));
        assert_eq!(nested, Err(WireError::TooLong { len: 5, max: 4 }));
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
