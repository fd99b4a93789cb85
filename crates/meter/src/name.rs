//! Socket names (`NAME`, i.e. `struct sockaddr`) as carried in meter
//! messages.
//!
//! The paper (§4.1): "the form of the names depends upon the domain of
//! the socket. Currently, socket names are presented as either an
//! Internet Domain name, a UNIX path name (for the UNIX domain) or, in
//! the case of socketpairs, an internally generated unique name. The
//! names are important in matching the sockets in a connection and in
//! identifying the recipient of datagrams."

use crate::wire::{u32_at, Leaf, Reader, WireError, Writer};
use std::fmt;

/// The fixed on-wire size of a socket name: `sizeof(struct sockaddr)`
/// on a VAX, 16 bytes.
pub const NAME_LEN: usize = 16;

/// Address-family tags used in the first two bytes of the encoding.
/// They follow 4.2BSD: `AF_UNIX == 1`, `AF_INET == 2`. Internally
/// generated socketpair names use the reserved value `0xfffe`.
mod af {
    pub(crate) const UNIX: u16 = 1;
    pub(crate) const INET: u16 = 2;
    pub(crate) const INTERNAL: u16 = 0xfffe;
}

/// A socket name, in one of the three forms of the paper.
///
/// A socket name is composed of the host address and the port number
/// (§3.5.4). In our simulated network the host address is the numeric
/// host identifier handed out by the network registry.
///
/// # Example
///
/// ```
/// use dpm_meter::SockName;
///
/// let n = SockName::inet(5, 1701);
/// let bytes = n.encode();
/// assert_eq!(SockName::decode(&bytes)?, n);
/// assert_eq!(n.to_string(), "inet:5:1701");
/// # Ok::<(), dpm_meter::NameDecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SockName {
    /// An Internet-domain name: (host id, port).
    Inet {
        /// Numeric host identifier from the network registry.
        host: u32,
        /// Port number.
        port: u16,
    },
    /// A UNIX-domain path name.
    ///
    /// The on-wire form holds at most 14 bytes of path, exactly as
    /// `sun_path` fits in a 16-byte `struct sockaddr`; longer paths are
    /// truncated *consistently*, at the last character boundary that
    /// fits, so the cut path still decodes and matching still works.
    UnixPath(String),
    /// An internally generated unique name, used for socketpairs.
    Internal(u64),
}

impl SockName {
    /// Convenience constructor for an Internet-domain name.
    pub fn inet(host: u32, port: u16) -> SockName {
        SockName::Inet { host, port }
    }

    /// Convenience constructor for a UNIX-domain path name.
    pub fn unix(path: impl Into<String>) -> SockName {
        SockName::UnixPath(path.into())
    }

    /// The number of meaningful bytes in the encoded form, as reported
    /// in the `*NameLen` fields of meter messages. Zero is reserved by
    /// the kernel for "name not available" and never returned here.
    pub(crate) fn wire_len(&self) -> u32 {
        match self {
            SockName::Inet { .. } => 8,
            SockName::UnixPath(p) => 2 + p.floor_char_boundary(NAME_LEN - 2) as u32,
            SockName::Internal(_) => 10,
        }
    }

    /// Encodes into the fixed 16-byte `NAME` field.
    pub fn encode(&self) -> [u8; NAME_LEN] {
        let mut out = Vec::with_capacity(NAME_LEN);
        self.write(&mut Writer::new(&mut out));
        out.try_into().expect("a NAME field is NAME_LEN bytes")
    }

    /// Appends the 16-byte `NAME` field: family tag, the form's own
    /// bytes, zero padding.
    pub(crate) fn write(&self, w: &mut Writer<'_>) {
        let end = w.len() + NAME_LEN;
        match self {
            SockName::Inet { host, port } => {
                w.u16(af::INET).u16(*port).u32(*host);
            }
            SockName::UnixPath(path) => {
                let end = path.floor_char_boundary(NAME_LEN - 2);
                w.u16(af::UNIX).raw(&path.as_bytes()[..end]);
            }
            SockName::Internal(id) => {
                w.u16(af::INTERNAL).u64(*id);
            }
        }
        w.raw(&[0u8; NAME_LEN][..end - w.len()]);
    }

    /// Decodes a 16-byte `NAME` field: [`NameRef::decode`], the path
    /// copied out.
    ///
    /// # Errors
    ///
    /// As [`NameRef::decode`].
    pub fn decode(buf: &[u8]) -> Result<SockName, NameDecodeError> {
        Ok(match NameRef::decode(buf)? {
            NameRef::Inet { host, port } => SockName::Inet { host, port },
            NameRef::UnixPath(path) => SockName::UnixPath(path.to_owned()),
            NameRef::Internal(id) => SockName::Internal(id),
        })
    }
}

impl fmt::Display for SockName {
    /// Formats as [`NameRef`] does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SockName::Inet { host, port } => NameRef::Inet {
                host: *host,
                port: *port,
            },
            SockName::UnixPath(path) => NameRef::UnixPath(path),
            SockName::Internal(id) => NameRef::Internal(*id),
        }
        .fmt(f)
    }
}

/// A `NAME` field read in place, its UNIX path borrowed from the bytes:
/// what [`SockName::decode`] copies into an owned name, and the one
/// text form of every name, owned or in a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameRef<'a> {
    /// As [`SockName::Inet`].
    Inet {
        /// Numeric host identifier.
        host: u32,
        /// Port number.
        port: u16,
    },
    /// As [`SockName::UnixPath`].
    UnixPath(&'a str),
    /// As [`SockName::Internal`].
    Internal(u64),
}

impl<'a> NameRef<'a> {
    /// Reads a 16-byte `NAME` field.
    ///
    /// # Errors
    ///
    /// Returns [`NameDecodeError`] if the buffer is shorter than
    /// [`NAME_LEN`], carries an unknown address family, or (for the
    /// UNIX domain) contains a non-UTF-8 path.
    pub fn decode(buf: &'a [u8]) -> Result<NameRef<'a>, NameDecodeError> {
        let mut r = Reader::new(Reader::new(buf).take(NAME_LEN)?);
        let family = r.u16()?;
        match family {
            af::INET => {
                let (port, host) = (r.u16()?, r.u32()?);
                Ok(NameRef::Inet { host, port })
            }
            af::UNIX => {
                let path = r.rest();
                let end = path.iter().position(|&b| b == 0).unwrap_or(path.len());
                let path =
                    std::str::from_utf8(&path[..end]).map_err(|_| NameDecodeError::BadPath)?;
                Ok(NameRef::UnixPath(path))
            }
            af::INTERNAL => Ok(NameRef::Internal(r.u64()?)),
            _ => Err(NameDecodeError::BadFamily { family }),
        }
    }
}

impl fmt::Display for NameRef<'_> {
    /// Formats in the textual form used in trace logs and selection
    /// rules: `inet:<host>:<port>`, `unix:<path>`, or `pair:<id>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameRef::Inet { host, port } => write!(f, "inet:{host}:{port}"),
            NameRef::UnixPath(path) => write!(f, "unix:{path}"),
            NameRef::Internal(id) => write!(f, "pair:{id}"),
        }
    }
}

/// `NAME` field `I` of a group of `K` whose `nameLen` words all come
/// first — Appendix A's order: accept and connect write both lengths,
/// then both names; send and receive are groups of one. A length of
/// zero is a name the metering software did not have (§4.1): sixteen
/// zero bytes written, `None` read, whatever the bytes hold.
pub(crate) struct Name<const K: usize, const I: usize>;

impl<E, const K: usize, const I: usize> Leaf<E> for Name<K, I>
where
    E: From<WireError> + From<NameDecodeError>,
{
    type Value = Option<SockName>;
    #[inline]
    fn put(v: &Option<SockName>, w: &mut Writer<'_>) {
        if I == 0 {
            for _ in 0..K {
                w.u32(0);
            }
        }
        // This name's length word, behind the group's names before it.
        let at = w.len() - 4 * (K - I) - NAME_LEN * I;
        w.patch_u32(at, v.as_ref().map_or(0, SockName::wire_len));
        match v {
            Some(name) => name.write(w),
            None => {
                w.raw(&[0u8; NAME_LEN]);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<SockName>, E> {
        if I == 0 {
            for _ in 0..K {
                r.u32()?;
            }
        }
        let field = r.take(NAME_LEN)?;
        let read = r.consumed();
        match u32_at(read, read.len() - 4 * (K - I) - NAME_LEN * (I + 1)) {
            Some(0) => Ok(None),
            _ => Ok(Some(SockName::decode(field)?)),
        }
    }
}

/// Error decoding a `NAME` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameDecodeError {
    /// Fewer than [`NAME_LEN`] bytes were available.
    Truncated {
        /// How many bytes were available.
        have: usize,
    },
    /// The address-family tag is not one we encode.
    BadFamily {
        /// The unknown family value.
        family: u16,
    },
    /// A UNIX-domain path was not valid UTF-8.
    BadPath,
}

impl fmt::Display for NameDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameDecodeError::Truncated { have } => {
                write!(f, "socket name truncated: {have} of {NAME_LEN} bytes")
            }
            NameDecodeError::BadFamily { family } => {
                write!(f, "unknown address family {family}")
            }
            NameDecodeError::BadPath => f.write_str("unix path is not valid utf-8"),
        }
    }
}

impl std::error::Error for NameDecodeError {}

impl From<WireError> for NameDecodeError {
    /// A `NAME` holds no length-prefixed field, so a reader over one
    /// can only run out of bytes.
    fn from(e: WireError) -> NameDecodeError {
        match e {
            WireError::Truncated { have, .. } => NameDecodeError::Truncated { have },
            _ => NameDecodeError::BadPath,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inet_round_trip() {
        let n = SockName::inet(0xdead_beef, 65535);
        assert_eq!(SockName::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn unix_round_trip_short_path() {
        let n = SockName::unix("/tmp/s");
        assert_eq!(SockName::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn unix_path_truncated_consistently() {
        // Paths longer than 14 bytes truncate, but two encodings of the
        // same long path still match byte-for-byte — which is what
        // connection pairing in the analysis requires.
        let long = "/usr/tmp/a-very-long-socket-name";
        let a = SockName::unix(long).encode();
        let b = SockName::unix(long).encode();
        assert_eq!(a, b);
        let decoded = SockName::decode(&a).unwrap();
        assert_eq!(decoded, SockName::unix(&long[..14]));
    }

    #[test]
    fn unix_path_exactly_fourteen_bytes() {
        let p = "/tmp/12345678"; // 13 bytes
        assert_eq!(p.len(), 13);
        let n = SockName::unix(p);
        assert_eq!(SockName::decode(&n.encode()).unwrap(), n);
        let p14 = "/tmp/123456789"; // 14 bytes: fills the field, no NUL
        assert_eq!(p14.len(), 14);
        let n14 = SockName::unix(p14);
        assert_eq!(SockName::decode(&n14.encode()).unwrap(), n14);
    }

    #[test]
    fn unix_path_cut_mid_character_still_decodes() {
        // "/tmp/" and four two-byte characters fill 13 bytes; the
        // fifth would end at byte 15.
        let n = SockName::unix("/tmp/ééééééé");
        assert_eq!(n.wire_len(), 15);
        assert_eq!(
            SockName::decode(&n.encode()),
            Ok(SockName::unix("/tmp/éééé"))
        );
    }

    #[test]
    fn internal_round_trip() {
        let n = SockName::Internal(u64::MAX - 7);
        assert_eq!(SockName::decode(&n.encode()).unwrap(), n);
    }

    #[test]
    fn truncated_buffer_is_an_error() {
        let n = SockName::inet(1, 2).encode();
        assert_eq!(
            SockName::decode(&n[..8]),
            Err(NameDecodeError::Truncated { have: 8 })
        );
    }

    #[test]
    fn unknown_family_is_an_error() {
        let mut buf = [0u8; NAME_LEN];
        buf[0] = 9;
        assert_eq!(
            SockName::decode(&buf),
            Err(NameDecodeError::BadFamily { family: 9 })
        );
    }

    #[test]
    fn wire_len_reflects_form() {
        assert_eq!(SockName::inet(1, 2).wire_len(), 8);
        assert_eq!(SockName::unix("/a").wire_len(), 4);
        assert_eq!(SockName::Internal(1).wire_len(), 10);
        // wire_len is never zero: zero means "name unavailable".
        assert_ne!(SockName::unix("").wire_len(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SockName::inet(5, 80).to_string(), "inet:5:80");
        assert_eq!(SockName::unix("/tmp/x").to_string(), "unix:/tmp/x");
        assert_eq!(SockName::Internal(3).to_string(), "pair:3");
    }
}
