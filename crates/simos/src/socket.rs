//! Socket structures of the simulated kernel.
//!
//! "Communication in Berkeley UNIX is based on sockets. A socket is an
//! endpoint of communication. … A socket, once created, exists
//! independent of the creating process. Several processes might have
//! access to the same socket at the same time. A socket disappears
//! when it is no longer referenced by any process." (§3.1)
//!
//! These are plain data structures; all locking and cross-machine
//! routing live in the machine/kernel layer.

use dpm_meter::SockName;
use dpm_simnet::HostId;
use std::collections::VecDeque;

/// Identifier of a socket within one machine — the simulated "file
/// table entry address". "Sockets are identified by their address
/// within the system descriptor table. This ensures that socket
/// addresses are unique within a particular machine." (§4.1)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SockId(pub u32);

impl std::fmt::Display for SockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A reference to a socket that may live on another machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RemoteSock {
    /// The machine holding the socket.
    pub host: HostId,
    /// The socket on that machine.
    pub sock: SockId,
}

/// Communication domain (address family) of a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// `AF_UNIX`: path names, same machine only.
    Unix,
    /// `AF_INET`: (host, port) names, cross machine.
    Inet,
}

impl Domain {
    /// The numeric value carried in socket-create meter messages
    /// (4.2BSD: `AF_UNIX == 1`, `AF_INET == 2`).
    pub(crate) fn as_u32(self) -> u32 {
        match self {
            Domain::Unix => 1,
            Domain::Inet => 2,
        }
    }
}

/// Socket type: connection-based stream or connectionless datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SockType {
    /// `SOCK_STREAM`: "concatenates messages into a single, reliable,
    /// ordered byte stream" (§3.1).
    Stream,
    /// `SOCK_DGRAM`: "delivery of the messages is not guaranteed,
    /// though it is likely. Nor is the order … guaranteed" (§3.1).
    Datagram,
}

impl SockType {
    /// The numeric value carried in socket-create meter messages
    /// (4.2BSD: `SOCK_STREAM == 1`, `SOCK_DGRAM == 2`).
    pub(crate) fn as_u32(self) -> u32 {
        match self {
            SockType::Stream => 1,
            SockType::Datagram => 2,
        }
    }
}

/// A datagram queued for delivery.
#[derive(Debug, Clone)]
pub(crate) struct Dgram {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Name of the sending socket, if it had one (it always does in
    /// this kernel: senders are auto-bound).
    pub src: Option<SockName>,
    /// Global (true) time at which the datagram becomes visible to the
    /// receiver, in microseconds.
    pub visible_at_us: u64,
}

/// A segment of stream data in flight or queued.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Global time at which the segment becomes readable.
    pub visible_at_us: u64,
}

/// A connection request parked on a listening socket.
#[derive(Debug, Clone)]
pub(crate) struct PendingConn {
    /// The connecting socket (possibly on another machine).
    pub from: RemoteSock,
    /// Name bound to the connecting socket (auto-bound if the caller
    /// had not bound one).
    pub peer_name: SockName,
    /// Global time at which the request becomes visible to `accept`.
    pub visible_at_us: u64,
}

/// Stream-specific state.
#[derive(Debug, Default)]
pub(crate) enum StreamState {
    /// Fresh socket: neither listening nor connected.
    #[default]
    Idle,
    /// `listen()` was called; connection requests queue here.
    Listening {
        /// Maximum number of parked requests (the `listen` backlog).
        backlog: usize,
        /// Parked connection requests, oldest first.
        pending: VecDeque<PendingConn>,
    },
    /// `connect()` issued, waiting for the peer to `accept`.
    Connecting,
    /// Connected to a peer; data flows.
    Connected {
        /// The peer endpoint.
        peer: RemoteSock,
        /// Name bound to the peer socket (for meter records and
        /// `getpeername`-style queries).
        peer_name: SockName,
    },
    /// The peer closed; reads drain the buffer then return EOF, writes
    /// fail with `EPIPE`.
    PeerClosed {
        /// Name the peer socket had, so an undrained connection can
        /// name its sender.
        peer_name: SockName,
    },
    /// `connect()` failed; the initiator should see `ECONNREFUSED`.
    Refused,
}

/// Kind-specific socket state.
#[derive(Debug)]
pub(crate) enum SockKind {
    /// Stream socket state plus its receive buffer.
    Stream {
        /// Connection state.
        state: StreamState,
        /// Received segments not yet read, oldest first. Kept as
        /// segments (not a flat buffer) so latency visibility is per
        /// arrival; `read` still drains bytes without regard for
        /// segment boundaries, as §3.1 requires.
        rx: VecDeque<Segment>,
        /// Monotone lower bound for the next segment's visibility,
        /// preserving in-order delivery per connection.
        rx_floor_us: u64,
        /// The peer has shut down its write side (`shutdown(2)`):
        /// reads drain `rx` then return end-of-file, but this side may
        /// keep writing.
        rx_eof: bool,
        /// This side has shut down its own write side: further writes
        /// fail with `EPIPE`.
        wr_closed: bool,
    },
    /// Datagram socket state.
    Datagram {
        /// Received datagrams not yet read, ordered by arrival.
        rx: VecDeque<Dgram>,
        /// Default destination set by `connect()` on a datagram
        /// socket, letting the caller use plain `send()`.
        default_peer: Option<SockName>,
    },
}

/// A socket: the kernel-resident endpoint object.
#[derive(Debug)]
pub(crate) struct Socket {
    /// Address family.
    pub domain: Domain,
    /// Stream or datagram.
    pub stype: SockType,
    /// Name bound with `bind()` or auto-bound by the kernel.
    pub name: Option<SockName>,
    /// Reference count: descriptor-table entries (across all
    /// processes), meter-socket references, and kernel-internal
    /// holds. The socket disappears when it reaches zero.
    pub refs: u32,
    /// Kind-specific state.
    pub kind: SockKind,
}

impl Socket {
    /// Creates a fresh, unbound, unconnected socket with one
    /// reference (the descriptor about to be handed to the creator).
    pub(crate) fn new(domain: Domain, stype: SockType) -> Socket {
        let kind = match stype {
            SockType::Stream => SockKind::Stream {
                state: StreamState::Idle,
                rx: VecDeque::new(),
                rx_floor_us: 0,
                rx_eof: false,
                wr_closed: false,
            },
            SockType::Datagram => SockKind::Datagram {
                rx: VecDeque::new(),
                default_peer: None,
            },
        };
        Socket {
            domain,
            stype,
            name: None,
            refs: 1,
            kind,
        }
    }

    /// Convenience: the stream state, if this is a stream socket.
    pub(crate) fn stream_state(&self) -> Option<&StreamState> {
        match &self.kind {
            SockKind::Stream { state, .. } => Some(state),
            SockKind::Datagram { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stream_socket_is_idle() {
        let s = Socket::new(Domain::Inet, SockType::Stream);
        assert!(matches!(s.stream_state(), Some(StreamState::Idle)));
        assert_eq!(s.refs, 1);
    }

    #[test]
    fn new_datagram_socket_has_no_stream_state() {
        let s = Socket::new(Domain::Unix, SockType::Datagram);
        assert!(s.stream_state().is_none());
        assert_eq!(s.domain.as_u32(), 1);
        assert_eq!(s.stype.as_u32(), 2);
    }

    #[test]
    fn numeric_codes_match_4_2bsd() {
        assert_eq!(Domain::Unix.as_u32(), 1);
        assert_eq!(Domain::Inet.as_u32(), 2);
        assert_eq!(SockType::Stream.as_u32(), 1);
        assert_eq!(SockType::Datagram.as_u32(), 2);
    }
}
