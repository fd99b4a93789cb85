//! Meter event flags — the Rust `<meterflags.h>`.
//!
//! A metered process carries a 32-bit mask in its process-table entry
//! indicating which events are to be metered (paper §3.2 and §4.1). One
//! selects the types of events to be metered by setting flags for the
//! process through the `setmeter(2)` system call; children inherit the
//! mask on `fork`.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not, Sub};
use std::str::FromStr;

/// A set of meter event flags.
///
/// The bits mirror the constants of `<meterflags.h>`:
/// `M_ACCEPT`, `M_CONNECT`, `M_SEND`, `M_RECEIVECALL`, `M_RECEIVE`,
/// `M_SOCKET`, `M_DUP`, `M_DESTSOCKET`, `M_FORK`, `M_TERMPROC`,
/// `M_ALL`, and `M_IMMEDIATE`.
///
/// `M_IMMEDIATE` is not an event: it indicates that meter messages are
/// to be sent immediately rather than buffered for greater efficiency
/// (Appendix C). [`MeterFlags::ALL`] covers every *event* flag but not
/// `M_IMMEDIATE`, matching the paper's `M_ALL`.
///
/// # Example
///
/// ```
/// use dpm_meter::MeterFlags;
///
/// let f = MeterFlags::SEND | MeterFlags::RECEIVE | MeterFlags::FORK;
/// assert!(f.contains(MeterFlags::SEND));
/// assert!(!f.contains(MeterFlags::ACCEPT));
/// assert_eq!(f.to_string(), "fork send receive");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeterFlags(u32);

impl MeterFlags {
    /// Process accepts a connection (`M_ACCEPT`).
    pub const ACCEPT: MeterFlags = MeterFlags(0x0001);
    /// Process initiates a connection (`M_CONNECT`).
    pub const CONNECT: MeterFlags = MeterFlags(0x0002);
    /// Process sends a message (`M_SEND`).
    pub const SEND: MeterFlags = MeterFlags(0x0004);
    /// Process makes a call to receive a message (`M_RECEIVECALL`).
    pub const RECEIVECALL: MeterFlags = MeterFlags(0x0008);
    /// Process receives a message (`M_RECEIVE`).
    pub const RECEIVE: MeterFlags = MeterFlags(0x0010);
    /// Process creates a socket (`M_SOCKET`).
    pub const SOCKET: MeterFlags = MeterFlags(0x0020);
    /// Process duplicates a socket or file descriptor (`M_DUP`).
    pub const DUP: MeterFlags = MeterFlags(0x0040);
    /// Process closes a socket (`M_DESTSOCKET`).
    pub const DESTSOCKET: MeterFlags = MeterFlags(0x0080);
    /// Process forks (`M_FORK`).
    pub const FORK: MeterFlags = MeterFlags(0x0100);
    /// Process terminates (`M_TERMPROC`).
    pub const TERMPROC: MeterFlags = MeterFlags(0x0200);
    /// Meter all events (`M_ALL`). Does not include [`MeterFlags::IMMEDIATE`].
    pub const ALL: MeterFlags = MeterFlags(0x03ff);
    /// Send meter messages immediately rather than buffered (`M_IMMEDIATE`).
    pub const IMMEDIATE: MeterFlags = MeterFlags(0x8000);

    /// The empty flag set (`NONE` in the `setmeter(2)` interface).
    pub const NONE: MeterFlags = MeterFlags(0);

    /// Creates a flag set from a raw bit mask.
    ///
    /// Unknown bits are preserved; they simply never match an event.
    /// The kernel stores the mask verbatim, exactly as 4.2BSD did.
    pub const fn from_bits(bits: u32) -> MeterFlags {
        MeterFlags(bits)
    }

    /// Returns the raw bit mask.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Returns `true` if every flag in `other` is set in `self`.
    pub const fn contains(self, other: MeterFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no flags at all are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if any *event* flag is set (ignoring `M_IMMEDIATE`).
    pub const fn meters_anything(self) -> bool {
        self.0 & Self::ALL.0 != 0
    }

    /// The set of flags in `self` or `other`.
    pub(crate) const fn union(self, other: MeterFlags) -> MeterFlags {
        MeterFlags(self.0 | other.0)
    }

    /// The set of flags in `self` but not in `other`.
    pub(crate) const fn difference(self, other: MeterFlags) -> MeterFlags {
        MeterFlags(self.0 & !other.0)
    }
}

/// Every single-bit flag together with its `setflags` name.
const ALL_FLAGS: &[(MeterFlags, &str)] = &[
    (MeterFlags::FORK, "fork"),
    (MeterFlags::TERMPROC, "termproc"),
    (MeterFlags::SEND, "send"),
    (MeterFlags::RECEIVECALL, "receivecall"),
    (MeterFlags::RECEIVE, "receive"),
    (MeterFlags::SOCKET, "socket"),
    (MeterFlags::DUP, "dup"),
    (MeterFlags::DESTSOCKET, "destsocket"),
    (MeterFlags::ACCEPT, "accept"),
    (MeterFlags::CONNECT, "connect"),
    (MeterFlags::IMMEDIATE, "immediate"),
];

impl BitOr for MeterFlags {
    type Output = MeterFlags;
    fn bitor(self, rhs: MeterFlags) -> MeterFlags {
        self.union(rhs)
    }
}

impl BitOrAssign for MeterFlags {
    fn bitor_assign(&mut self, rhs: MeterFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for MeterFlags {
    type Output = MeterFlags;
    fn bitand(self, rhs: MeterFlags) -> MeterFlags {
        MeterFlags(self.0 & rhs.0)
    }
}

impl Sub for MeterFlags {
    type Output = MeterFlags;
    fn sub(self, rhs: MeterFlags) -> MeterFlags {
        self.difference(rhs)
    }
}

impl Not for MeterFlags {
    type Output = MeterFlags;
    fn not(self) -> MeterFlags {
        MeterFlags(!self.0)
    }
}

impl fmt::Debug for MeterFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeterFlags({self})")
    }
}

impl fmt::Display for MeterFlags {
    /// Formats as the space-separated `setflags` names, e.g.
    /// `"send receive fork"`. The empty set formats as `"none"` and the
    /// full event set as `"all"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        if *self == MeterFlags::ALL {
            return f.write_str("all");
        }
        let mut first = true;
        for &(flag, name) in ALL_FLAGS {
            if self.contains(flag) {
                if !first {
                    f.write_str(" ")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

impl fmt::LowerHex for MeterFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for MeterFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for MeterFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for MeterFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

/// Error returned when parsing a flag name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlagError {
    name: String,
}

impl fmt::Display for ParseFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown meter flag name `{}`", self.name)
    }
}

impl std::error::Error for ParseFlagError {}

impl FromStr for MeterFlags {
    type Err = ParseFlagError;

    /// Parses a single flag name as used on the controller command
    /// line: one of `fork termproc send receivecall receive socket dup
    /// destsocket accept connect immediate`, or the shorthand `all`
    /// and `none`.
    ///
    /// A leading `-` is **not** handled here; the controller interprets
    /// `-send` as "reset the send flag" at a higher level (paper §4.3).
    fn from_str(s: &str) -> Result<MeterFlags, ParseFlagError> {
        match s {
            "all" => return Ok(MeterFlags::ALL),
            "none" => return Ok(MeterFlags::NONE),
            _ => {}
        }
        ALL_FLAGS
            .iter()
            .find(|&&(_, n)| n == s)
            .map(|&(f, _)| f)
            .ok_or_else(|| ParseFlagError { name: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_distinct_bits() {
        let mut seen = 0u32;
        for &(f, _) in ALL_FLAGS {
            assert_eq!(f.bits().count_ones(), 1, "{f} is not a single bit");
            assert_eq!(seen & f.bits(), 0, "{f} overlaps another flag");
            seen |= f.bits();
        }
    }

    #[test]
    fn all_covers_every_event_flag() {
        for &(f, name) in ALL_FLAGS {
            if name == "immediate" {
                assert!(!MeterFlags::ALL.contains(f));
            } else {
                assert!(MeterFlags::ALL.contains(f), "{name} missing from M_ALL");
            }
        }
    }

    #[test]
    fn union_and_difference() {
        let f = MeterFlags::SEND | MeterFlags::RECEIVE;
        assert!(f.contains(MeterFlags::SEND));
        assert!(f.contains(MeterFlags::RECEIVE));
        let g = f - MeterFlags::SEND;
        assert!(!g.contains(MeterFlags::SEND));
        assert!(g.contains(MeterFlags::RECEIVE));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for &(f, name) in ALL_FLAGS {
            assert_eq!(f.to_string(), name);
            assert_eq!(name.parse::<MeterFlags>().unwrap(), f);
        }
        assert_eq!("all".parse::<MeterFlags>().unwrap(), MeterFlags::ALL);
        assert_eq!("none".parse::<MeterFlags>().unwrap(), MeterFlags::NONE);
        assert_eq!(MeterFlags::ALL.to_string(), "all");
        assert_eq!(MeterFlags::NONE.to_string(), "none");
    }

    #[test]
    fn unknown_name_is_an_error() {
        let err = "sendd".parse::<MeterFlags>().unwrap_err();
        assert!(err.to_string().contains("sendd"));
    }

    #[test]
    fn immediate_is_not_an_event() {
        assert!(!MeterFlags::IMMEDIATE.meters_anything());
        assert!((MeterFlags::IMMEDIATE | MeterFlags::SEND).meters_anything());
    }

    #[test]
    fn multi_flag_display_order_matches_manual() {
        // The user's manual lists fork first and connect last (§4.3).
        let f = MeterFlags::CONNECT | MeterFlags::FORK | MeterFlags::SEND;
        assert_eq!(f.to_string(), "fork send connect");
    }
}
