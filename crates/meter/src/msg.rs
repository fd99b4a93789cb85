//! Meter message wire formats — the Rust `<sys/metermsgs.h>`.
//!
//! Each message consists of a [`MeterHeader`], whose format is common
//! to all messages, and data particular to the message type (Appendix
//! A of the paper). The encodings here match the layout of the paper's
//! C structs on a VAX: little-endian, 4-byte alignment, `long` = 4
//! bytes, `short` = 2 bytes, `SOCKET` = 4 bytes (a file-table-entry
//! address), `NAME` = 16 bytes (`struct sockaddr`).
//!
//! The paper's Appendix A declares bodies for accept, connect, dup,
//! fork, receive-call, receive, send and socket-create events. The
//! `M_DESTSOCKET` and `M_TERMPROC` flags exist in `<meterflags.h>` but
//! their bodies are not listed in Appendix A; [`MeterDestSock`] and
//! [`MeterTermProc`] supply the obvious layouts and are documented as
//! reconstructions.

use crate::name::{NameDecodeError, SockName, NAME_LEN};
use crate::wire::{frame_step, u16_at, u32_at, FrameStep, Reader, WireError, Writer};
use std::fmt;
use std::ops::Deref;

/// `traceType` values identifying the event kind of a meter message.
///
/// `SEND` is 1, matching the event record description of Fig. 3.2
/// (`SEND 1, ...`) and the selection-rule examples (`type=1` selects
/// send events). `ACCEPT` is 8, matching the rule
/// `type=8, sockName=peerName` of Fig. 3.4, which only makes sense for
/// a record carrying both names.
pub mod trace_type {
    /// Process sent a message.
    pub const SEND: u32 = 1;
    /// Process called a receive routine (may block).
    pub const RECEIVECALL: u32 = 2;
    /// Process received a message.
    pub const RECEIVE: u32 = 3;
    /// Process created a socket.
    pub const SOCKET: u32 = 4;
    /// Process duplicated a socket or file descriptor.
    pub const DUP: u32 = 5;
    /// Process closed a socket.
    pub const DESTSOCKET: u32 = 6;
    /// Process forked.
    pub const FORK: u32 = 7;
    /// Process accepted a connection.
    pub const ACCEPT: u32 = 8;
    /// Process initiated a connection.
    pub const CONNECT: u32 = 9;
    /// Process terminated.
    pub const TERMPROC: u32 = 10;

    /// The `setflags` name of a trace type, e.g. `"send"`.
    pub fn name(t: u32) -> Option<&'static str> {
        Some(match t {
            SEND => "send",
            RECEIVECALL => "receivecall",
            RECEIVE => "receive",
            SOCKET => "socket",
            DUP => "dup",
            DESTSOCKET => "destsocket",
            FORK => "fork",
            ACCEPT => "accept",
            CONNECT => "connect",
            TERMPROC => "termproc",
            _ => return None,
        })
    }
}

/// Size in bytes of the encoded [`MeterHeader`].
pub const HEADER_LEN: usize = 24;

/// Upper bound on the size of one encoded meter message, in bytes.
///
/// The kernel metering code buffers whole messages, so every consumer
/// of the stream — reassembly in the filter, the daemon's relay, test
/// harnesses — shares one notion of "implausibly large". A header
/// whose `size` field exceeds this bound is treated as stream
/// corruption rather than a gigantic record. The real bodies are tiny
/// (the largest, accept, is 24 bytes plus two 16-byte names); the
/// bound is a full 4.2BSD page, leaving generous headroom. Asserted
/// against [`MeterMsg::encode`] in a unit test.
pub const MAX_METER_MSG: usize = 4096;

/// The standard header carried by every meter message.
///
/// ```text
/// offset  size  field
///      0     4  size       -- total message size in bytes
///      4     2  machine    -- machine on which process runs
///      6     2  (padding)
///      8     4  cpuTime    -- local clock, milliseconds
///     12     4  seq        -- per-process sequence (paper: dummy)
///     16     4  procTime   -- time charged to the user process, ms
///     20     4  traceType  -- type of message
/// ```
///
/// The paper's header carries an unused `dummy` word at offset 12;
/// this implementation repurposes it as a per-process **sequence
/// number** so the filter can discard duplicate records delivered by
/// at-least-once retransmission. A value of `0` means *unsequenced*
/// (the paper's original layout); the kernel stamps sequences starting
/// at 1. Wire size and all other offsets are unchanged.
///
/// The system clock time (`cpu_time`) is useful for establishing the
/// order of events *on a particular machine*; the separate machines'
/// times only roughly correspond to a global time (§4.1). `proc_time`
/// is updated in increments of 10 ms, so estimates based on it must
/// recognize that granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MeterHeader {
    /// Total size of the encoded message. Filled in by
    /// [`MeterMsg::encode`]; a caller-supplied value is overwritten.
    pub size: u32,
    /// Machine (host id) on which the process runs.
    pub machine: u16,
    /// Reading of the machine's local clock, in milliseconds.
    pub cpu_time: u32,
    /// Per-process sequence number, stamped by the kernel metering
    /// code in the header word the paper leaves unused (`dummy`).
    /// `0` means unsequenced; real sequences start at 1 and increase
    /// by one per emitted message of the same process.
    pub seq: u32,
    /// CPU time charged to the user process, in milliseconds,
    /// quantized to 10 ms.
    pub proc_time: u32,
    /// Event kind; one of the [`trace_type`] constants.
    pub trace_type: u32,
}

/// Writes an optional name's `nameLen` field. Length zero means the
/// name was not available to the metering software (§4.1), e.g. the
/// recipient of a `write` across a connection.
fn write_name_len(w: &mut Writer<'_>, name: &Option<SockName>) {
    w.u32(name.as_ref().map_or(0, SockName::wire_len));
}

/// Writes an optional name's 16-byte `NAME` field, zeros when absent.
fn write_name(w: &mut Writer<'_>, name: &Option<SockName>) {
    match name {
        Some(n) => n.write(w),
        None => {
            w.raw(&[0u8; NAME_LEN]);
        }
    }
}

/// Reads a `NAME` field whose `nameLen` field said `len_field`.
fn read_name(r: &mut Reader<'_>, len_field: u32) -> Result<Option<SockName>, DecodeError> {
    let field = r.take(NAME_LEN)?;
    if len_field == 0 {
        return Ok(None);
    }
    Ok(Some(SockName::decode(field)?))
}

/// `struct MeterSendMsg`: a message was sent (trace type
/// [`trace_type::SEND`]). All the varieties of `write()` — `write`,
/// `writev`, `send`, `sendto`, `sendmsg` — produce this one event
/// (§3.2).
///
/// Body layout: `pid@0 pc@4 sock@8 msgLength@12 destNameLen@16
/// destName@20(16 bytes)`, exactly the description of Fig. 3.2.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeterSendMsg {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket (file-table-entry address) where the message was sent.
    pub sock: u32,
    /// Bytes in the message.
    pub msg_length: u32,
    /// Destination name, when available. `None` when writing across a
    /// connection, where the recipient's name is not available to the
    /// metering software; the analysis recovers it by pairing sockets.
    pub dest_name: Option<SockName>,
}

/// `struct MeterRecvCMsg`: a receive routine was called (trace type
/// [`trace_type::RECEIVECALL`]). Emitted when the process *asks* to
/// receive, before it possibly blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterRecvCall {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket receiving the message.
    pub sock: u32,
}

/// `struct MeterRecvMsg`: a message was received (trace type
/// [`trace_type::RECEIVE`]). All the varieties of `read()` — `read`,
/// `readv`, `recv`, `recvfrom`, `recvmsg` — produce this one event.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeterRecvMsg {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket receiving the message.
    pub sock: u32,
    /// Bytes in the message actually delivered.
    pub msg_length: u32,
    /// Name of the socket the message came from, when available.
    pub source_name: Option<SockName>,
}

/// `struct MeterAccept`: a connection was accepted (trace type
/// [`trace_type::ACCEPT`]). The accepting process's original socket is
/// only used for the establishment of connections; data transfer is
/// done through the new connection socket (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeterAccept {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket accepting the connection.
    pub sock: u32,
    /// New socket created for the connection.
    pub new_sock: u32,
    /// Name bound to the accepting socket.
    pub sock_name: Option<SockName>,
    /// Name bound to the connecting socket.
    pub peer_name: Option<SockName>,
}

/// `struct MeterConnect`: a connection was initiated (trace type
/// [`trace_type::CONNECT`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeterConnect {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket requesting the connection.
    pub sock: u32,
    /// Name bound to the connecting socket.
    pub sock_name: Option<SockName>,
    /// Name bound to the accepting socket.
    pub peer_name: Option<SockName>,
}

/// `struct MeterDup`: a socket or file descriptor was duplicated
/// (trace type [`trace_type::DUP`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterDup {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket being duplicated.
    pub sock: u32,
    /// Duplicate socket.
    pub new_sock: u32,
}

/// `struct MeterFork`: the process forked (trace type
/// [`trace_type::FORK`]). The child inherits the parent's meter socket
/// and meter flags (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterFork {
    /// Parent process's ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Child process's ID.
    pub new_pid: u32,
}

/// `struct MeterSockCrt`: a socket was created (trace type
/// [`trace_type::SOCKET`]). A `socketpair()` is not treated differently
/// from a pair of socket creates followed by separate connects and
/// accepts; all four messages are produced (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterSockCrt {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// File-table entry of the new socket.
    pub sock: u32,
    /// New socket's domain (1 = UNIX, 2 = Internet, as in 4.2BSD).
    pub domain: u32,
    /// New socket's type (1 = stream, 2 = datagram, as in 4.2BSD).
    pub sock_type: u32,
    /// New socket's protocol (0 = default).
    pub protocol: u32,
}

/// Destroy-socket event (trace type [`trace_type::DESTSOCKET`]).
///
/// The `M_DESTSOCKET` flag is listed in `<meterflags.h>` ("process
/// closes a socket") but Appendix A does not show its body; this is the
/// evident reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterDestSock {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of the system call.
    pub pc: u32,
    /// Socket being closed.
    pub sock: u32,
}

/// Why a process terminated, carried in [`MeterTermProc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TermReason {
    /// The process's program ran to completion ("reason: normal" in
    /// the Appendix-B transcript).
    #[default]
    Normal,
    /// The process was killed by the controller or a signal.
    Killed,
}

impl fmt::Display for TermReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TermReason::Normal => "normal",
            TermReason::Killed => "killed",
        })
    }
}

/// Process-termination event (trace type [`trace_type::TERMPROC`]).
///
/// As part of process termination, any unsent meter messages are
/// forwarded to the filter (§3.2); this record is the last one a
/// process produces. Reconstructed like [`MeterDestSock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterTermProc {
    /// Process ID.
    pub pid: u32,
    /// PC at the time of termination.
    pub pc: u32,
    /// Why the process terminated.
    pub reason: TermReason,
}

/// The body of a meter message: `union` of the per-event structs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MeterBody {
    /// See [`MeterAccept`].
    Accept(MeterAccept),
    /// See [`MeterConnect`].
    Connect(MeterConnect),
    /// See [`MeterDup`].
    Dup(MeterDup),
    /// See [`MeterFork`].
    Fork(MeterFork),
    /// See [`MeterRecvCall`].
    RecvCall(MeterRecvCall),
    /// See [`MeterRecvMsg`].
    Recv(MeterRecvMsg),
    /// See [`MeterSendMsg`].
    Send(MeterSendMsg),
    /// See [`MeterSockCrt`].
    SockCrt(MeterSockCrt),
    /// See [`MeterDestSock`].
    DestSock(MeterDestSock),
    /// See [`MeterTermProc`].
    TermProc(MeterTermProc),
}

impl MeterBody {
    /// The [`trace_type`] constant for this body.
    pub fn trace_type(&self) -> u32 {
        match self {
            MeterBody::Send(_) => trace_type::SEND,
            MeterBody::RecvCall(_) => trace_type::RECEIVECALL,
            MeterBody::Recv(_) => trace_type::RECEIVE,
            MeterBody::SockCrt(_) => trace_type::SOCKET,
            MeterBody::Dup(_) => trace_type::DUP,
            MeterBody::DestSock(_) => trace_type::DESTSOCKET,
            MeterBody::Fork(_) => trace_type::FORK,
            MeterBody::Accept(_) => trace_type::ACCEPT,
            MeterBody::Connect(_) => trace_type::CONNECT,
            MeterBody::TermProc(_) => trace_type::TERMPROC,
        }
    }

    /// The process id common to every body.
    pub fn pid(&self) -> u32 {
        match self {
            MeterBody::Send(b) => b.pid,
            MeterBody::RecvCall(b) => b.pid,
            MeterBody::Recv(b) => b.pid,
            MeterBody::SockCrt(b) => b.pid,
            MeterBody::Dup(b) => b.pid,
            MeterBody::DestSock(b) => b.pid,
            MeterBody::Fork(b) => b.pid,
            MeterBody::Accept(b) => b.pid,
            MeterBody::Connect(b) => b.pid,
            MeterBody::TermProc(b) => b.pid,
        }
    }

    fn write(&self, w: &mut Writer<'_>) {
        match self {
            MeterBody::Send(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock).u32(b.msg_length);
                write_name_len(w, &b.dest_name);
                write_name(w, &b.dest_name);
            }
            MeterBody::RecvCall(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock);
            }
            MeterBody::Recv(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock).u32(b.msg_length);
                write_name_len(w, &b.source_name);
                write_name(w, &b.source_name);
            }
            MeterBody::SockCrt(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock);
                w.u32(b.domain).u32(b.sock_type).u32(b.protocol);
            }
            MeterBody::Dup(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock).u32(b.new_sock);
            }
            MeterBody::DestSock(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock);
            }
            MeterBody::Fork(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.new_pid);
            }
            MeterBody::Accept(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock).u32(b.new_sock);
                write_name_len(w, &b.sock_name);
                write_name_len(w, &b.peer_name);
                write_name(w, &b.sock_name);
                write_name(w, &b.peer_name);
            }
            MeterBody::Connect(b) => {
                w.u32(b.pid).u32(b.pc).u32(b.sock);
                write_name_len(w, &b.sock_name);
                write_name_len(w, &b.peer_name);
                write_name(w, &b.sock_name);
                write_name(w, &b.peer_name);
            }
            MeterBody::TermProc(b) => {
                w.u32(b.pid).u32(b.pc).u32(match b.reason {
                    TermReason::Normal => 0,
                    TermReason::Killed => 1,
                });
            }
        }
    }

    /// Reads the body of a `trace` event; `r` stands just past the
    /// header, so a short body reports sizes of the whole message.
    fn read(trace: u32, r: &mut Reader<'_>) -> Result<MeterBody, DecodeError> {
        Ok(match trace {
            trace_type::SEND => {
                let (pid, pc, sock) = (r.u32()?, r.u32()?, r.u32()?);
                let (msg_length, len) = (r.u32()?, r.u32()?);
                MeterBody::Send(MeterSendMsg {
                    pid,
                    pc,
                    sock,
                    msg_length,
                    dest_name: read_name(r, len)?,
                })
            }
            trace_type::RECEIVECALL => MeterBody::RecvCall(MeterRecvCall {
                pid: r.u32()?,
                pc: r.u32()?,
                sock: r.u32()?,
            }),
            trace_type::RECEIVE => {
                let (pid, pc, sock) = (r.u32()?, r.u32()?, r.u32()?);
                let (msg_length, len) = (r.u32()?, r.u32()?);
                MeterBody::Recv(MeterRecvMsg {
                    pid,
                    pc,
                    sock,
                    msg_length,
                    source_name: read_name(r, len)?,
                })
            }
            trace_type::SOCKET => MeterBody::SockCrt(MeterSockCrt {
                pid: r.u32()?,
                pc: r.u32()?,
                sock: r.u32()?,
                domain: r.u32()?,
                sock_type: r.u32()?,
                protocol: r.u32()?,
            }),
            trace_type::DUP => MeterBody::Dup(MeterDup {
                pid: r.u32()?,
                pc: r.u32()?,
                sock: r.u32()?,
                new_sock: r.u32()?,
            }),
            trace_type::DESTSOCKET => MeterBody::DestSock(MeterDestSock {
                pid: r.u32()?,
                pc: r.u32()?,
                sock: r.u32()?,
            }),
            trace_type::FORK => MeterBody::Fork(MeterFork {
                pid: r.u32()?,
                pc: r.u32()?,
                new_pid: r.u32()?,
            }),
            trace_type::ACCEPT => {
                let (pid, pc, sock, new_sock) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
                let (sock_len, peer_len) = (r.u32()?, r.u32()?);
                MeterBody::Accept(MeterAccept {
                    pid,
                    pc,
                    sock,
                    new_sock,
                    sock_name: read_name(r, sock_len)?,
                    peer_name: read_name(r, peer_len)?,
                })
            }
            trace_type::CONNECT => {
                let (pid, pc, sock) = (r.u32()?, r.u32()?, r.u32()?);
                let (sock_len, peer_len) = (r.u32()?, r.u32()?);
                MeterBody::Connect(MeterConnect {
                    pid,
                    pc,
                    sock,
                    sock_name: read_name(r, sock_len)?,
                    peer_name: read_name(r, peer_len)?,
                })
            }
            trace_type::TERMPROC => MeterBody::TermProc(MeterTermProc {
                pid: r.u32()?,
                pc: r.u32()?,
                reason: match r.u32()? {
                    0 => TermReason::Normal,
                    _ => TermReason::Killed,
                },
            }),
            other => return Err(DecodeError::UnknownTraceType { trace_type: other }),
        })
    }
}

/// A complete meter message: standard header plus event body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeterMsg {
    /// The standard header.
    pub header: MeterHeader,
    /// The per-event body. Its kind must agree with
    /// `header.trace_type`; [`MeterMsg::encode`] enforces this by
    /// writing the body's own trace type.
    pub body: MeterBody,
}

impl MeterMsg {
    /// Encodes into the on-wire byte layout of Appendix A.
    ///
    /// The header's `size` and `trace_type` fields are derived from
    /// the body, so the caller need not keep them in sync.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 56);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoding to `out` and returns the encoded length.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let mut w = Writer::new(out);
        let h = &self.header;
        w.u32(0).u16(h.machine).u16(0); // size placeholder, padding
        w.u32(h.cpu_time).u32(h.seq).u32(h.proc_time);
        w.u32(self.body.trace_type());
        self.body.write(&mut w);
        let size = w.len() - start;
        w.patch_u32(start, size as u32);
        size
    }

    /// Decodes one message from the front of `buf`, returning the
    /// message and the number of bytes consumed (the header's `size`).
    ///
    /// Meter connections are streams, so several buffered messages
    /// arrive concatenated; call this repeatedly, advancing by the
    /// returned length — or use [`MeterDecoder`], which does the
    /// advancing for you and borrows rather than copies. This is a
    /// thin wrapper over [`MeterRecord::parse`] + [`MeterRecord::to_msg`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the buffer does not hold a complete
    /// message, the size field is implausible, the trace type is
    /// unknown, or a name field is malformed.
    pub fn decode(buf: &[u8]) -> Result<(MeterMsg, usize), DecodeError> {
        let record = MeterRecord::parse(buf)?;
        Ok((record.to_msg()?, record.len()))
    }

    /// Decodes a whole buffer of concatenated messages.
    ///
    /// A thin wrapper around [`MeterDecoder`]; use the decoder
    /// directly to avoid materializing every message up front.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed message; previously decoded
    /// messages are discarded.
    pub fn decode_all(buf: &[u8]) -> Result<Vec<MeterMsg>, DecodeError> {
        let mut decoder = MeterDecoder::new(buf);
        let mut out = Vec::new();
        for record in decoder.by_ref() {
            out.push(record?.to_msg()?);
        }
        // The decoder treats a partial tail as "wait for more input";
        // for this whole-buffer API it is an error, as it always was.
        match decoder.remainder() {
            [] => Ok(out),
            tail => Err(MeterRecord::parse(tail).expect_err("tail was unparseable")),
        }
    }
}

/// One meter message borrowed from a stream buffer — the monitor's one
/// record view (`dpm_filter::RecordView` is this type) and the
/// zero-copy currency of the filter pipeline.
///
/// Its body is *not* decoded: the accessors read the header's fields
/// in place at their fixed offsets, [`to_msg`](MeterRecord::to_msg)
/// materializes an owned [`MeterMsg`] on demand, and it derefs to
/// `[u8]`, so whatever accepts a raw record slice accepts a record.
/// [`parse`](MeterRecord::parse) yields a complete, size-checked frame;
/// [`new`](MeterRecord::new) wraps bytes framed elsewhere (a stored
/// frame's payload). Either way every accessor is total: a field the
/// bytes are too short to hold reads as `0` (`None` for
/// [`pid`](MeterRecord::pid)).
#[derive(Debug, Clone, Copy)]
pub struct MeterRecord<'a> {
    bytes: &'a [u8],
}

impl<'a> MeterRecord<'a> {
    /// Wraps one complete record's bytes.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> MeterRecord<'a> {
        MeterRecord { bytes }
    }

    /// Parses one record from the front of `buf` without copying.
    ///
    /// Validates the frame bounds only: the size field must lie in
    /// `HEADER_LEN..=MAX_METER_MSG` and the buffer must hold the whole
    /// frame ([`frame_step`]). Body-level problems (unknown trace
    /// type, bad names) are reported by [`MeterRecord::to_msg`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the buffer holds a prefix of a
    /// record; [`DecodeError::BadSize`] when the size field is out of
    /// range (stream corruption).
    pub fn parse(buf: &'a [u8]) -> Result<MeterRecord<'a>, DecodeError> {
        match frame_step(buf) {
            FrameStep::Record(size) => Ok(MeterRecord::new(&buf[..size])),
            FrameStep::Garbage(size) => Err(DecodeError::BadSize { size }),
            FrameStep::Partial(need) => Err(DecodeError::Truncated {
                need,
                have: buf.len(),
            }),
        }
    }

    /// The record's complete wire bytes (header + body).
    #[inline]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The decoded header, with `size` normalized to the frame length.
    pub fn header(&self) -> MeterHeader {
        MeterHeader {
            size: self.bytes.len() as u32,
            machine: self.machine(),
            cpu_time: self.cpu_time(),
            seq: self.seq(),
            proc_time: u32_at(self.bytes, 16).unwrap_or(0),
            trace_type: self.trace_type(),
        }
    }

    /// The machine field, read in place.
    #[inline]
    pub fn machine(&self) -> u16 {
        u16_at(self.bytes, 4).unwrap_or(0)
    }

    /// The `cpu_time` stamp (emitting machine's local clock,
    /// milliseconds), read in place. The ingest side subtracts this
    /// from its own machine clock for the emit→ingest staleness
    /// readout — honest only up to the skew between the two clocks,
    /// which is the paper's own caveat about distributed timestamps.
    #[inline]
    pub fn cpu_time(&self) -> u32 {
        u32_at(self.bytes, 8).unwrap_or(0)
    }

    /// The per-process sequence number, read in place (`0` means
    /// unsequenced; see [`MeterHeader::seq`]).
    #[inline]
    pub fn seq(&self) -> u32 {
        u32_at(self.bytes, 12).unwrap_or(0)
    }

    /// The trace-type field, read in place.
    #[inline]
    pub fn trace_type(&self) -> u32 {
        u32_at(self.bytes, 20).unwrap_or(0)
    }

    /// The emitting process id, read in place. Every meter body puts
    /// `pid` at body offset 0; `None` for a header-only record.
    #[inline]
    pub fn pid(&self) -> Option<u32> {
        u32_at(self.bytes, HEADER_LEN)
    }

    /// Decodes the full message, allocating owned bodies.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownTraceType`], [`DecodeError::Truncated`]
    /// (body shorter than its trace type requires) or
    /// [`DecodeError::BadName`].
    pub fn to_msg(&self) -> Result<MeterMsg, DecodeError> {
        let header = self.header();
        let mut r = Reader::new(self.bytes);
        r.take(HEADER_LEN)?;
        let body = MeterBody::read(header.trace_type, &mut r)?;
        Ok(MeterMsg { header, body })
    }
}

impl Deref for MeterRecord<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

/// A streaming, zero-copy iterator over concatenated meter messages.
///
/// Yields one [`MeterRecord`] per complete frame; stops (returns
/// `None`) at the end of the buffer or at a clean partial tail — use
/// [`remainder`](MeterDecoder::remainder) to recover bytes that need
/// more input stitched on. A malformed frame is yielded once as
/// `Err`, after which the iterator is fused; `remainder` then points
/// at the offending bytes so callers can resynchronize.
///
/// ```
/// use dpm_meter::{MeterDecoder, MeterMsg, MeterBody, MeterFork, MeterHeader, trace_type};
/// let msg = MeterMsg {
///     header: MeterHeader { trace_type: trace_type::FORK, ..Default::default() },
///     body: MeterBody::Fork(MeterFork { pid: 1, pc: 2, new_pid: 3 }),
/// };
/// let mut wire = msg.encode();
/// wire.extend_from_slice(&msg.encode());
/// let records: Vec<_> = MeterDecoder::new(&wire).collect::<Result<_, _>>().unwrap();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].trace_type(), trace_type::FORK);
/// assert_eq!(records[0].to_msg().unwrap().body, msg.body);
/// ```
#[derive(Debug, Clone)]
pub struct MeterDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    fused: bool,
}

impl<'a> MeterDecoder<'a> {
    /// Starts decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> MeterDecoder<'a> {
        MeterDecoder {
            buf,
            pos: 0,
            fused: false,
        }
    }

    /// Bytes consumed by successfully yielded records.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// The unconsumed tail: empty after a fully decoded buffer, a
    /// partial frame awaiting more input, or the malformed bytes that
    /// stopped iteration.
    pub fn remainder(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

impl<'a> Iterator for MeterDecoder<'a> {
    type Item = Result<MeterRecord<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        match MeterRecord::parse(self.remainder()) {
            Ok(record) => {
                self.pos += record.len();
                Some(Ok(record))
            }
            // The end of the buffer or a clean partial tail: wait for
            // more input.
            Err(DecodeError::Truncated { .. }) => None,
            Err(e) => {
                self.fused = true;
                Some(Err(e))
            }
        }
    }
}

/// Error decoding a meter message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer holds fewer bytes than the message needs.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The header's size field is smaller than a header.
    BadSize {
        /// The offending size.
        size: u32,
    },
    /// The header's trace type is not one of [`trace_type`]'s values.
    UnknownTraceType {
        /// The offending value.
        trace_type: u32,
    },
    /// A socket name field could not be decoded.
    BadName(NameDecodeError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { need, have } => {
                write!(f, "meter message truncated: need {need} bytes, have {have}")
            }
            DecodeError::BadSize { size } => write!(f, "meter message size {size} is too small"),
            DecodeError::UnknownTraceType { trace_type } => {
                write!(f, "unknown trace type {trace_type}")
            }
            DecodeError::BadName(e) => write!(f, "bad socket name: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::BadName(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NameDecodeError> for DecodeError {
    fn from(e: NameDecodeError) -> DecodeError {
        DecodeError::BadName(e)
    }
}

impl From<WireError> for DecodeError {
    /// A meter message holds no length-prefixed field, so a reader
    /// over one can only run out of bytes.
    fn from(e: WireError) -> DecodeError {
        match e {
            WireError::Truncated { need, have } => DecodeError::Truncated { need, have },
            WireError::TooLong { len, .. } => DecodeError::BadSize { size: len as u32 },
            WireError::NotUtf8 => DecodeError::BadName(NameDecodeError::BadPath),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(trace: u32) -> MeterHeader {
        MeterHeader {
            size: 0,
            machine: 5,
            cpu_time: 9_999,
            seq: 0,
            proc_time: 40,
            trace_type: trace,
        }
    }

    fn round_trip(body: MeterBody) -> MeterMsg {
        let msg = MeterMsg {
            header: header(body.trace_type()),
            body,
        };
        let bytes = msg.encode();
        let (back, used) = MeterMsg::decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(back.body, msg.body);
        assert_eq!(back.header.machine, msg.header.machine);
        assert_eq!(back.header.cpu_time, msg.header.cpu_time);
        assert_eq!(back.header.proc_time, msg.header.proc_time);
        assert_eq!(back.header.trace_type, msg.body.trace_type());
        back
    }

    #[test]
    fn send_round_trip_with_and_without_name() {
        round_trip(MeterBody::Send(MeterSendMsg {
            pid: 2120,
            pc: 0x452,
            sock: 4,
            msg_length: 128,
            dest_name: Some(SockName::inet(0, 228)),
        }));
        round_trip(MeterBody::Send(MeterSendMsg {
            pid: 2120,
            pc: 0x452,
            sock: 4,
            msg_length: 128,
            dest_name: None,
        }));
    }

    #[test]
    fn every_body_round_trips() {
        let name = || Some(SockName::unix("/tmp/f1"));
        round_trip(MeterBody::RecvCall(MeterRecvCall {
            pid: 1,
            pc: 2,
            sock: 3,
        }));
        round_trip(MeterBody::Recv(MeterRecvMsg {
            pid: 1,
            pc: 2,
            sock: 3,
            msg_length: 4,
            source_name: name(),
        }));
        round_trip(MeterBody::SockCrt(MeterSockCrt {
            pid: 1,
            pc: 2,
            sock: 3,
            domain: 2,
            sock_type: 1,
            protocol: 0,
        }));
        round_trip(MeterBody::Dup(MeterDup {
            pid: 1,
            pc: 2,
            sock: 3,
            new_sock: 4,
        }));
        round_trip(MeterBody::DestSock(MeterDestSock {
            pid: 1,
            pc: 2,
            sock: 3,
        }));
        round_trip(MeterBody::Fork(MeterFork {
            pid: 1,
            pc: 2,
            new_pid: 99,
        }));
        round_trip(MeterBody::Accept(MeterAccept {
            pid: 1,
            pc: 2,
            sock: 3,
            new_sock: 4,
            sock_name: name(),
            peer_name: Some(SockName::inet(7, 9)),
        }));
        round_trip(MeterBody::Connect(MeterConnect {
            pid: 1,
            pc: 2,
            sock: 3,
            sock_name: Some(SockName::Internal(12)),
            peer_name: name(),
        }));
        round_trip(MeterBody::TermProc(MeterTermProc {
            pid: 1,
            pc: 2,
            reason: TermReason::Killed,
        }));
    }

    /// Golden test for Fig. 3.2 / Appendix A: the send event's fields
    /// sit at the documented byte offsets *within the body*:
    /// `pid,0,4  pc,4,4  sock,8,4  msgLength,12,4  destNameLen,16,4
    /// destName,20,16`.
    #[test]
    fn send_field_offsets_match_figure_3_2() {
        let msg = MeterMsg {
            header: header(trace_type::SEND),
            body: MeterBody::Send(MeterSendMsg {
                pid: 0x11111111,
                pc: 0x22222222,
                sock: 0x33333333,
                msg_length: 0x44444444,
                dest_name: Some(SockName::inet(0x0d9d_020c, 0x0102)),
            }),
        };
        let b = msg.encode();
        let body = &b[HEADER_LEN..];
        assert_eq!(u32_at(body, 0).unwrap(), 0x11111111, "pid at offset 0");
        assert_eq!(u32_at(body, 4).unwrap(), 0x22222222, "pc at offset 4");
        assert_eq!(u32_at(body, 8).unwrap(), 0x33333333, "sock at offset 8");
        assert_eq!(
            u32_at(body, 12).unwrap(),
            0x44444444,
            "msgLength at offset 12"
        );
        assert_eq!(u32_at(body, 16).unwrap(), 8, "destNameLen at offset 16");
        assert_eq!(body.len(), 20 + NAME_LEN, "destName is the last 16 bytes");
        // Total message size: 24-byte header + 36-byte body.
        assert_eq!(b.len(), 60);
        assert_eq!(u32_at(&b, 0).unwrap(), 60, "header size field");
    }

    /// Golden test for Fig. 4.1: the accept message layout.
    #[test]
    fn accept_layout_matches_figure_4_1() {
        let msg = MeterMsg {
            header: header(trace_type::ACCEPT),
            body: MeterBody::Accept(MeterAccept {
                pid: 10,
                pc: 20,
                sock: 30,
                new_sock: 40,
                sock_name: Some(SockName::inet(1, 2)),
                peer_name: Some(SockName::inet(3, 4)),
            }),
        };
        let b = msg.encode();
        // header: size, machine, cpuTime, procTime, traceType
        assert_eq!(u32_at(&b, 0).unwrap() as usize, b.len());
        assert_eq!(u16_at(&b, 4).unwrap(), 5);
        assert_eq!(u32_at(&b, 8).unwrap(), 9_999);
        assert_eq!(u32_at(&b, 16).unwrap(), 40);
        assert_eq!(u32_at(&b, 20).unwrap(), trace_type::ACCEPT);
        let body = &b[HEADER_LEN..];
        assert_eq!(u32_at(body, 0).unwrap(), 10, "pid");
        assert_eq!(u32_at(body, 4).unwrap(), 20, "pc");
        assert_eq!(u32_at(body, 8).unwrap(), 30, "socket accepting connection");
        assert_eq!(
            u32_at(body, 12).unwrap(),
            40,
            "new socket created for connection"
        );
        assert_eq!(u32_at(body, 16).unwrap(), 8, "sockNameLen");
        assert_eq!(u32_at(body, 20).unwrap(), 8, "peerNameLen");
        assert_eq!(body.len(), 24 + 2 * NAME_LEN);
    }

    #[test]
    fn header_is_24_bytes_with_dummy() {
        let msg = MeterMsg {
            header: header(trace_type::FORK),
            body: MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 2,
                new_pid: 3,
            }),
        };
        let b = msg.encode();
        assert_eq!(b.len(), HEADER_LEN + 12);
        // The paper's dummy word (offset 12, our `seq`) is zero when unset.
        assert_eq!(u32_at(&b, 12).unwrap(), 0);
    }

    #[test]
    fn decode_all_concatenated_stream() {
        let mut buf = Vec::new();
        let msgs: Vec<MeterMsg> = (0..5)
            .map(|i| MeterMsg {
                header: header(trace_type::FORK),
                body: MeterBody::Fork(MeterFork {
                    pid: i,
                    pc: 0,
                    new_pid: i + 100,
                }),
            })
            .collect();
        for m in &msgs {
            m.encode_into(&mut buf);
        }
        let decoded = MeterMsg::decode_all(&buf).unwrap();
        assert_eq!(decoded.len(), 5);
        for (d, m) in decoded.iter().zip(&msgs) {
            assert_eq!(d.body, m.body);
        }
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        let msg = MeterMsg {
            header: header(trace_type::SEND),
            body: MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 2,
                sock: 3,
                msg_length: 4,
                dest_name: None,
            }),
        };
        let b = msg.encode();
        assert!(matches!(
            MeterMsg::decode(&b[..10]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            MeterMsg::decode(&b[..b.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        let mut bad = b.clone();
        bad[20..24].copy_from_slice(&77u32.to_le_bytes());
        assert!(matches!(
            MeterMsg::decode(&bad),
            Err(DecodeError::UnknownTraceType { trace_type: 77 })
        ));
        let mut tiny = b;
        tiny[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            MeterMsg::decode(&tiny),
            Err(DecodeError::BadSize { size: 3 })
        ));
    }

    /// `MAX_METER_MSG` is an invariant of the wire format: nothing
    /// `encode` can produce comes anywhere near it, so a size field
    /// above it is always stream corruption.
    #[test]
    fn encoded_messages_never_exceed_max_meter_msg() {
        let name = || Some(SockName::unix("/tmp/a-very-long-path"));
        let bodies = [
            MeterBody::Send(MeterSendMsg {
                pid: u32::MAX,
                pc: u32::MAX,
                sock: u32::MAX,
                msg_length: u32::MAX,
                dest_name: name(),
            }),
            MeterBody::Recv(MeterRecvMsg {
                pid: 1,
                pc: 2,
                sock: 3,
                msg_length: 4,
                source_name: name(),
            }),
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 2,
                sock: 3,
                new_sock: 4,
                sock_name: name(),
                peer_name: name(),
            }),
            MeterBody::Connect(MeterConnect {
                pid: 1,
                pc: 2,
                sock: 3,
                sock_name: name(),
                peer_name: name(),
            }),
            MeterBody::SockCrt(MeterSockCrt {
                pid: 1,
                pc: 2,
                sock: 3,
                domain: 2,
                sock_type: 1,
                protocol: 0,
            }),
        ];
        for body in bodies {
            let msg = MeterMsg {
                header: header(body.trace_type()),
                body,
            };
            let n = msg.encode().len();
            assert!(
                n <= MAX_METER_MSG,
                "encoded {n} bytes exceeds MAX_METER_MSG ({MAX_METER_MSG})"
            );
        }
        // The largest body (accept: 24 bytes + two names) stays small.
        const { assert!(HEADER_LEN + 24 + 2 * NAME_LEN <= MAX_METER_MSG) };
    }

    #[test]
    fn decoder_iterates_stream_without_copying() {
        let msgs: Vec<MeterMsg> = (0..4)
            .map(|i| MeterMsg {
                header: header(trace_type::FORK),
                body: MeterBody::Fork(MeterFork {
                    pid: i,
                    pc: 0,
                    new_pid: i + 100,
                }),
            })
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode_into(&mut wire);
        }
        let mut decoder = MeterDecoder::new(&wire);
        for (i, m) in msgs.iter().enumerate() {
            let record = decoder.next().expect("record").expect("valid");
            // The record borrows the original wire bytes in place.
            assert_eq!(
                record.bytes().as_ptr(),
                wire[i * record.len()..].as_ptr(),
                "record {i} is a borrow, not a copy"
            );
            assert_eq!(record.machine(), 5);
            assert_eq!(record.trace_type(), trace_type::FORK);
            assert_eq!(record.to_msg().unwrap().body, m.body);
        }
        assert!(decoder.next().is_none());
        assert_eq!(decoder.consumed(), wire.len());
        assert!(decoder.remainder().is_empty());
    }

    #[test]
    fn decoder_stops_at_partial_tail_with_remainder() {
        let msg = MeterMsg {
            header: header(trace_type::FORK),
            body: MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 2,
                new_pid: 3,
            }),
        };
        let mut wire = msg.encode();
        let full = wire.len();
        wire.extend_from_slice(&msg.encode()[..10]); // partial second frame
        let mut decoder = MeterDecoder::new(&wire);
        assert!(decoder.next().unwrap().is_ok());
        assert!(decoder.next().is_none(), "partial tail is not an error");
        assert_eq!(decoder.consumed(), full);
        assert_eq!(decoder.remainder().len(), 10);
    }

    #[test]
    fn decoder_fuses_on_bad_size_and_exposes_bad_tail() {
        let msg = MeterMsg {
            header: header(trace_type::FORK),
            body: MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 2,
                new_pid: 3,
            }),
        };
        let mut wire = msg.encode();
        let good = wire.len();
        let mut bad = msg.encode();
        bad[0..4].copy_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&bad);
        let mut decoder = MeterDecoder::new(&wire);
        assert!(decoder.next().unwrap().is_ok());
        assert!(matches!(
            decoder.next(),
            Some(Err(DecodeError::BadSize { size: 3 }))
        ));
        assert!(decoder.next().is_none(), "decoder is fused after an error");
        assert_eq!(decoder.remainder().len(), wire.len() - good);
    }

    #[test]
    fn oversize_size_field_is_corruption_not_truncation() {
        let msg = MeterMsg {
            header: header(trace_type::FORK),
            body: MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 2,
                new_pid: 3,
            }),
        };
        let mut wire = msg.encode();
        wire[0..4].copy_from_slice(&(MAX_METER_MSG as u32 + 1).to_le_bytes());
        assert!(matches!(
            MeterRecord::parse(&wire),
            Err(DecodeError::BadSize { .. })
        ));
    }

    #[test]
    fn trace_type_names() {
        assert_eq!(trace_type::name(trace_type::SEND), Some("send"));
        assert_eq!(trace_type::name(trace_type::ACCEPT), Some("accept"));
        assert_eq!(trace_type::name(1234), None);
    }

    #[test]
    fn body_pid_accessor() {
        let b = MeterBody::Dup(MeterDup {
            pid: 42,
            pc: 0,
            sock: 1,
            new_sock: 2,
        });
        assert_eq!(b.pid(), 42);
        assert_eq!(b.trace_type(), trace_type::DUP);
    }
}
