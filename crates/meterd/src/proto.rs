//! The controller ↔ meterdaemon communication protocol.
//!
//! "The cooperation between the controller and the meterdaemons
//! implies a need for a communication protocol. This protocol defines
//! the information to be exchanged, the synchronization of the
//! exchange, and the procedure for establishing communication
//! connections. … This format includes a message type and a message
//! body. The type field identifies the purpose of the message. … The
//! exchange is structured as a remote procedure call." (§3.5.1,
//! Fig. 3.6)
//!
//! Fig. 3.6 gives two concrete type numbers — `11: create request`
//! (filename, parameter count, parameter list, filter port, filter
//! host, meter flags, control port, control host) and `18: create
//! reply` (pid, status) — reproduced here verbatim; the remaining
//! numbers fill the obvious gaps.
//!
//! Wire form: `u32 total-length, u32 type, body`, strings as
//! `u32 length + bytes`, all little-endian (VAX order).

use dpm_filter::{FilterArgs, FilterRole};
use dpm_meter::wire::{
    u32_at, Bytes, Frame, Leaf, List, Nested, OptStr, Port, Reader, Str, WireError, Writer,
};
use dpm_meter::{layout, MeterFlags};
use dpm_simos::Pid;
use std::fmt;

/// Message type numbers. `CREATE_REQUEST` and `CREATE_REPLY` are the
/// two the paper shows.
pub(crate) mod msg_type {
    /// Create a metered process (Fig. 3.6).
    pub(crate) const CREATE_REQUEST: u32 = 11;
    /// Create a filter process.
    pub(crate) const CREATE_FILTER: u32 = 12;
    /// Change a process's meter flags.
    pub(crate) const SET_FLAGS: u32 = 13;
    /// Start (or resume) a process.
    pub(crate) const START: u32 = 14;
    /// Stop a process.
    pub(crate) const STOP: u32 = 15;
    /// Kill a process.
    pub(crate) const KILL: u32 = 16;
    /// Acquire (begin metering) an already-running process.
    pub(crate) const ACQUIRE: u32 = 17;
    /// Reply to `CREATE_REQUEST`/`CREATE_FILTER` (Fig. 3.6).
    pub(crate) const CREATE_REPLY: u32 = 18;
    /// Fetch a file (a filter's log).
    pub(crate) const GET_FILE: u32 = 19;
    /// Stop metering a process (used when removing an acquired
    /// process: the filter connection is taken down but the process
    /// keeps running, §4.3 `removejob`).
    pub(crate) const CLEAR_METER: u32 = 20;
    /// Generic acknowledgement reply.
    pub(crate) const ACK: u32 = 21;
    /// Reply carrying file contents.
    pub(crate) const FILE_REPLY: u32 = 22;
    /// Daemon → controller: a process changed state (§3.5.1's one
    /// exception, where the daemon initiates the connection).
    pub(crate) const STATE_CHANGE: u32 = 23;
    /// Daemon → controller: bytes a process wrote to its redirected
    /// standard output (§3.5.2).
    pub(crate) const IO_DATA: u32 = 24;
    /// Write a file on the daemon's machine — the simulation's `rcp`
    /// (§3.5.3).
    pub(crate) const WRITE_FILE: u32 = 25;
    /// Feed bytes to a process's redirected standard input.
    pub(crate) const SEND_INPUT: u32 = 26;
    /// An idempotency wrapper: a request id plus a nested request.
    /// Retried calls reuse the id; the daemon replays the cached
    /// reply instead of re-executing.
    pub(crate) const TAGGED: u32 = 27;
    /// Query the state of a process (controller resync after a daemon
    /// restart).
    pub(crate) const QUERY_PROC: u32 = 28;
    /// Reply to `QUERY_PROC`.
    pub(crate) const PROC_STATUS: u32 = 29;
    /// List files under a prefix on the daemon's machine (segment
    /// enumeration for store-backed logs).
    pub(crate) const LIST_FILES: u32 = 30;
    /// Reply to `LIST_FILES`.
    pub(crate) const FILE_LIST: u32 = 31;
    /// Acquire a batch of already-running processes in one
    /// round-trip (controller takeover / acquire-at-scale).
    pub(crate) const ACQUIRE_MANY: u32 = 32;
    /// Reply to `ACQUIRE_MANY`: per-pid outcomes.
    pub(crate) const ACQUIRE_MANY_REPLY: u32 = 33;
}

/// Status code carried in replies. On the wire this is a bare `u32`
/// (0 is success, as tradition demands); in the API it is a typed
/// enum so callers match on `RpcStatus::Ok` instead of a magic `0`.
///
/// Unknown wire values decode to [`RpcStatus::Other`] instead of
/// failing, so a newer daemon can add codes without breaking an older
/// controller; `#[non_exhaustive]` keeps downstream matches honest
/// about that possibility.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcStatus {
    /// Operation succeeded (wire code 0).
    Ok,
    /// No such file (wire code 1).
    NoEnt,
    /// No such process (wire code 2).
    Srch,
    /// Permission denied (wire code 3).
    Perm,
    /// Anything else that went wrong (wire code 4).
    Fail,
    /// The caller gave up waiting for a reply (wire code 5). Produced
    /// locally by the RPC timeout path, never sent by a daemon.
    Timeout,
    /// The daemon could not be reached after retries (wire code 6).
    /// Produced locally by the RPC retry path.
    Unavailable,
    /// A wire code this build does not know about.
    Other(u32),
}

impl RpcStatus {
    /// Whether this is the success code.
    pub fn is_ok(self) -> bool {
        self == RpcStatus::Ok
    }

    /// The wire code.
    pub(crate) fn code(self) -> u32 {
        self.into()
    }
}

impl From<u32> for RpcStatus {
    fn from(code: u32) -> RpcStatus {
        match code {
            0 => RpcStatus::Ok,
            1 => RpcStatus::NoEnt,
            2 => RpcStatus::Srch,
            3 => RpcStatus::Perm,
            4 => RpcStatus::Fail,
            5 => RpcStatus::Timeout,
            6 => RpcStatus::Unavailable,
            other => RpcStatus::Other(other),
        }
    }
}

impl From<RpcStatus> for u32 {
    fn from(s: RpcStatus) -> u32 {
        match s {
            RpcStatus::Ok => 0,
            RpcStatus::NoEnt => 1,
            RpcStatus::Srch => 2,
            RpcStatus::Perm => 3,
            RpcStatus::Fail => 4,
            RpcStatus::Timeout => 5,
            RpcStatus::Unavailable => 6,
            RpcStatus::Other(code) => code,
        }
    }
}

impl fmt::Display for RpcStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcStatus::Ok => write!(f, "ok"),
            RpcStatus::NoEnt => write!(f, "no such file"),
            RpcStatus::Srch => write!(f, "no such process"),
            RpcStatus::Perm => write!(f, "permission denied"),
            RpcStatus::Fail => write!(f, "request failed"),
            RpcStatus::Timeout => write!(f, "request timed out"),
            RpcStatus::Unavailable => write!(f, "daemon unavailable"),
            RpcStatus::Other(code) => write!(f, "unknown status {code}"),
        }
    }
}

/// First word of a `CreateFilter` body, ahead of the version — part
/// of the pinned layout.
const SPEC_TAG: u32 = 0xFFFF_FFFF;

/// The `CreateFilter` body's wire version.
pub(crate) const FILTER_SPEC_VERSION: u32 = 2;

/// A request sent from the controller to a meterdaemon (or, for the
/// last two variants, from a daemon to a controller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `11`: create a metered process, suspended.
    Create {
        /// Executable file on the daemon's machine.
        filename: String,
        /// Program parameters.
        params: Vec<String>,
        /// Filter's port for the meter connection.
        filter_port: u16,
        /// Filter's host (literal name, §3.5.4).
        filter_host: String,
        /// Initial meter flags.
        meter_flags: MeterFlags,
        /// Controller's notification port.
        control_port: u16,
        /// Controller's host.
        control_host: String,
        /// Whether to redirect the process's stdio through the daemon
        /// gateway (§3.5.2).
        redirect_io: bool,
        /// A file on the daemon's machine whose contents become the
        /// process's standard input, followed by end-of-file ("the
        /// file is copied to the machine on which the specified
        /// process is executing. The file is then opened by the
        /// meterdaemon, which redirects to it the standard input of
        /// the process", §3.5.2). Requires `redirect_io`.
        stdin_file: Option<String>,
    },
    /// `12`: create a filter process (runs immediately).
    CreateFilter {
        /// What to spawn, where it listens, where its records go, and
        /// its place in the filter tree — see [`FilterArgs`].
        spec: FilterArgs,
    },
    /// `13`: replace a process's meter flags.
    SetFlags {
        /// The process.
        pid: Pid,
        /// The new mask.
        flags: MeterFlags,
    },
    /// `14`: start or resume.
    Start {
        /// The process.
        pid: Pid,
    },
    /// `15`: stop.
    Stop {
        /// The process.
        pid: Pid,
    },
    /// `16`: kill.
    Kill {
        /// The process.
        pid: Pid,
    },
    /// `17`: meter an already-running process.
    Acquire {
        /// The process.
        pid: Pid,
        /// Filter's meter port.
        filter_port: u16,
        /// Filter's host.
        filter_host: String,
        /// Meter flags to set.
        meter_flags: MeterFlags,
        /// Controller notification port.
        control_port: u16,
        /// Controller host.
        control_host: String,
    },
    /// `32`: meter (or re-bind) a batch of already-running processes
    /// in one round-trip. With `rebind_only` false this is `Acquire`
    /// over each pid, but the daemon opens a *single* connection to
    /// the filter and shares it across the whole batch — the
    /// acquire-at-scale path. With `rebind_only` true the processes
    /// are already metered and only the daemon's notion of the owning
    /// controller changes — the takeover path, which must not disturb
    /// the live meter stream.
    AcquireMany {
        /// The processes.
        pids: Vec<Pid>,
        /// Filter's meter port (ignored when `rebind_only`).
        filter_port: u16,
        /// Filter's host (ignored when `rebind_only`).
        filter_host: String,
        /// Meter flags to set (ignored when `rebind_only`).
        meter_flags: MeterFlags,
        /// Controller notification port.
        control_port: u16,
        /// Controller host.
        control_host: String,
        /// True to only re-point state-change notifications at the
        /// new controller, leaving meter connections untouched.
        rebind_only: bool,
    },
    /// `19`: fetch a file from the daemon's machine.
    GetFile {
        /// Path on the daemon's machine.
        path: String,
    },
    /// `20`: take down a process's meter connection and flags.
    ClearMeter {
        /// The process.
        pid: Pid,
    },
    /// `25`: write a file on the daemon's machine (`rcp`).
    WriteFile {
        /// Destination path.
        path: String,
        /// File contents.
        data: Vec<u8>,
    },
    /// `26`: feed a process's redirected standard input.
    SendInput {
        /// The process.
        pid: Pid,
        /// The bytes.
        data: Vec<u8>,
    },
    /// `23` (daemon → controller): process state change.
    StateChange {
        /// The process.
        pid: Pid,
        /// 0 = terminated normally, 1 = killed, 2 = stopped.
        state: u32,
    },
    /// `24` (daemon → controller): redirected process output.
    IoData {
        /// The process.
        pid: Pid,
        /// What it wrote.
        data: Vec<u8>,
    },
    /// `27`: an idempotency wrapper around another request. The id is
    /// chosen by the caller and reused verbatim on every retry of the
    /// same logical call; the daemon caches the reply it sent for each
    /// id and replays it for duplicates, so a retried `CreateFilter`
    /// or `Start` is applied exactly once.
    Tagged {
        /// Caller-chosen request id, unique per logical call.
        req_id: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// `28`: query a process's current state (controller resync after
    /// a daemon restart loses in-flight state-change notifications).
    QueryProc {
        /// The process.
        pid: Pid,
    },
    /// `30`: list files on the daemon's machine whose names start with
    /// a prefix — segment enumeration for store-backed filter logs.
    ListFiles {
        /// The name prefix.
        prefix: String,
    },
}

/// A reply to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `18`: result of `Create`/`CreateFilter`/`Acquire`.
    Create {
        /// New (or acquired) process id; 0 on failure.
        pid: Pid,
        /// Outcome of the request.
        status: RpcStatus,
    },
    /// `21`: plain acknowledgement.
    Ack {
        /// Outcome of the request.
        status: RpcStatus,
    },
    /// `22`: file contents.
    File {
        /// Outcome of the request.
        status: RpcStatus,
        /// The bytes (empty on failure).
        data: Vec<u8>,
    },
    /// `29`: a process's current state, answering `QueryProc`.
    ProcStatus {
        /// Outcome of the query ([`RpcStatus::Srch`] if the daemon
        /// does not know the process).
        status: RpcStatus,
        /// Same codes as [`Request::StateChange`]: 0 = terminated
        /// normally, 1 = killed, 2 = stopped, 3 = running.
        state: u32,
    },
    /// `31`: file names, answering `ListFiles`.
    FileList {
        /// Outcome of the request.
        status: RpcStatus,
        /// Matching names, sorted (empty on failure).
        names: Vec<String>,
    },
    /// `33`: per-pid outcomes, answering `AcquireMany`.
    AcquireMany {
        /// Overall outcome: `Ok` when the daemon processed the batch
        /// (individual pids may still have failed), a failure code
        /// when it could not (e.g. the filter was unreachable).
        status: RpcStatus,
        /// One `(pid, outcome)` per requested pid, in request order.
        results: Vec<(Pid, RpcStatus)>,
    },
}

impl Reply {
    /// The reply's status code.
    pub fn status(&self) -> RpcStatus {
        match self {
            Reply::Create { status, .. }
            | Reply::Ack { status }
            | Reply::File { status, .. }
            | Reply::ProcStatus { status, .. }
            | Reply::FileList { status, .. }
            | Reply::AcquireMany { status, .. } => *status,
        }
    }
}

/// Error decoding a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    what: String,
}

impl ProtoError {
    fn new(what: impl Into<String>) -> ProtoError {
        ProtoError { what: what.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.what)
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::new(e.to_string())
    }
}

/// Largest total length a frame may claim (16 MiB: a fetched store
/// segment fits, a corrupted prefix does not) — the one bound stream
/// readers check [`frame_len`] against, and the cap on every string
/// and byte field inside a frame.
pub(crate) const MAX_RPC_FRAME: usize = 16 * 1024 * 1024;

/// Most program parameters a `Create` may carry.
const MAX_PARAMS: usize = 4096;

/// Most pids an `AcquireMany` (or its reply), and most names a
/// `FileList`, may carry.
const MAX_BATCH: usize = 65536;

/// A string field of a frame.
type Text = Str<MAX_RPC_FRAME>;

/// A byte field of a frame.
type Data = Bytes<MAX_RPC_FRAME>;

/// A status as its wire code.
impl Leaf<ProtoError> for RpcStatus {
    type Value = RpcStatus;
    fn put(v: &RpcStatus, w: &mut Writer<'_>) {
        <u32 as Leaf<ProtoError>>::put(&v.code(), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<RpcStatus, ProtoError> {
        <u32 as Leaf<ProtoError>>::get(r).map(RpcStatus::from)
    }
}

/// [`FilterRole`]s by wire code. An unknown code is refused: silently
/// mis-placing a filter in the tree would corrupt a measurement
/// session.
const ROLES: [FilterRole; 3] = [FilterRole::Leaf, FilterRole::Edge, FilterRole::Aggregate];

/// A [`FilterRole`] as its index in [`ROLES`].
struct Role;

impl Leaf<ProtoError> for Role {
    type Value = FilterRole;
    fn put(v: &FilterRole, w: &mut Writer<'_>) {
        let code = ROLES
            .iter()
            .position(|r| r == v)
            .expect("every role has a code");
        <u32 as Leaf<ProtoError>>::put(&(code as u32), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<FilterRole, ProtoError> {
        let code = <u32 as Leaf<ProtoError>>::get(r)?;
        let role = ROLES.get(code as usize).copied();
        role.ok_or_else(|| ProtoError::new(format!("unknown filter role {code}")))
    }
}

layout! {
    impl Leaf<ProtoError> for FilterArgs {
        filterfile: Text, port: Port, logfile: Text, descriptions: Text, templates: Text,
        shards: u32, role: Role, upstream: Text,
    }
}

/// A `CreateFilter` body: [`SPEC_TAG`], the version, then the
/// [`FilterArgs`] — read back only if [`FilterArgs::validate`] passes,
/// so a daemon never spawns (or registers an edge for) a filter that
/// would die on its own argument check. Unknown versions are refused.
struct Spec;

impl Leaf<ProtoError> for Spec {
    type Value = FilterArgs;
    fn put(v: &FilterArgs, w: &mut Writer<'_>) {
        <(u32, u32) as Leaf<ProtoError>>::put(&(SPEC_TAG, FILTER_SPEC_VERSION), w);
        <FilterArgs as Leaf<ProtoError>>::put(v, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<FilterArgs, ProtoError> {
        if <u32 as Leaf<ProtoError>>::get(r)? != SPEC_TAG {
            return Err(ProtoError::new("filter spec: missing version tag"));
        }
        match <u32 as Leaf<ProtoError>>::get(r)? {
            FILTER_SPEC_VERSION => {}
            v => return Err(ProtoError::new(format!("unknown filter spec version {v}"))),
        }
        let spec = <FilterArgs as Leaf<ProtoError>>::get(r)?;
        spec.validate()
            .map_err(|e| ProtoError::new(format!("filter spec: {e}")))?;
        Ok(spec)
    }
}

/// A tagged call's request: a whole frame inside a byte field, written
/// in place, and refused if it is itself tagged.
struct Inner;

impl Leaf<ProtoError> for Inner {
    type Value = Box<Request>;
    fn put(v: &Self::Value, w: &mut Writer<'_>) {
        <Nested<Frame<Request>, MAX_RPC_FRAME> as Leaf<ProtoError>>::put(v, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, ProtoError> {
        match <Nested<Frame<Request>, MAX_RPC_FRAME> as Leaf<ProtoError>>::get(r)? {
            Request::Tagged { .. } => Err(ProtoError::new("nested tagged request")),
            inner => Ok(Box::new(inner)),
        }
    }
}

// Fig. 3.6: after the frame's length word, the type number, then the
// body. Ports travel as `u32`s.
layout! {
    impl Leaf<ProtoError> for Request by u32;
    /// The message's type number.
    pub(crate) fn msg_type() -> u32 {
        msg_type::CREATE_REQUEST => Create {
            filename: Text, params: List<Text, MAX_PARAMS>, filter_port: Port, filter_host: Text,
            meter_flags: MeterFlags, control_port: Port, control_host: Text, redirect_io: bool,
            stdin_file: OptStr<MAX_RPC_FRAME>,
        },
        msg_type::CREATE_FILTER => CreateFilter { spec: Spec },
        msg_type::SET_FLAGS => SetFlags { pid: Pid, flags: MeterFlags },
        msg_type::START => Start { pid: Pid },
        msg_type::STOP => Stop { pid: Pid },
        msg_type::KILL => Kill { pid: Pid },
        msg_type::ACQUIRE => Acquire {
            pid: Pid, filter_port: Port, filter_host: Text, meter_flags: MeterFlags,
            control_port: Port, control_host: Text,
        },
        msg_type::ACQUIRE_MANY => AcquireMany {
            pids: List<Pid, MAX_BATCH>, filter_port: Port, filter_host: Text,
            meter_flags: MeterFlags, control_port: Port, control_host: Text, rebind_only: bool,
        },
        msg_type::GET_FILE => GetFile { path: Text },
        msg_type::CLEAR_METER => ClearMeter { pid: Pid },
        msg_type::WRITE_FILE => WriteFile { path: Text, data: Data },
        msg_type::SEND_INPUT => SendInput { pid: Pid, data: Data },
        msg_type::STATE_CHANGE => StateChange { pid: Pid, state: u32 },
        msg_type::IO_DATA => IoData { pid: Pid, data: Data },
        msg_type::TAGGED => Tagged { req_id: u64, inner: Inner },
        msg_type::QUERY_PROC => QueryProc { pid: Pid },
        msg_type::LIST_FILES => ListFiles { prefix: Text },
    } else ty => ProtoError::new(format!("unknown request type {ty}"))
}

layout! {
    impl Leaf<ProtoError> for Reply by u32;
    /// The message's type number.
    pub(crate) fn msg_type() -> u32 {
        msg_type::CREATE_REPLY => Create { pid: Pid, status: RpcStatus },
        msg_type::ACK => Ack { status: RpcStatus },
        msg_type::FILE_REPLY => File { status: RpcStatus, data: Data },
        msg_type::PROC_STATUS => ProcStatus { status: RpcStatus, state: u32 },
        msg_type::FILE_LIST => FileList { status: RpcStatus, names: List<Text, MAX_BATCH> },
        msg_type::ACQUIRE_MANY_REPLY => AcquireMany {
            status: RpcStatus, results: List<(Pid, RpcStatus), MAX_BATCH>,
        },
    } else ty => ProtoError::new(format!("unknown reply type {ty}"))
}

impl Request {
    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        <Frame<Request> as Leaf<ProtoError>>::put(self, &mut Writer::new(&mut out));
        out
    }

    /// Decodes a complete message (including its length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, an unknown type number, a port
    /// beyond 65535, or a filter description its validator rejects.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        <Frame<Request> as Leaf<ProtoError>>::get(&mut Reader::new(buf))
    }
}

impl Reply {
    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        <Frame<Reply> as Leaf<ProtoError>>::put(self, &mut Writer::new(&mut out));
        out
    }

    /// Decodes a complete message.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation or an unknown type number.
    pub fn decode(buf: &[u8]) -> Result<Reply, ProtoError> {
        <Frame<Reply> as Leaf<ProtoError>>::get(&mut Reader::new(buf))
    }
}

/// Reads the total length from a message's first four bytes, so stream
/// readers know how much to collect.
pub fn frame_len(prefix: &[u8]) -> Option<usize> {
    u32_at(prefix, 0).map(|len| len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_request_matches_figure_3_6_shape() {
        // Fig. 3.6: type 11 with filename, parameter count, parameter
        // list, filter port, filter host, meter flags, control port,
        // control host.
        let req = Request::Create {
            filename: "/bin/A".into(),
            params: vec!["x".into(), "y".into()],
            filter_port: 4000,
            filter_host: "blue".into(),
            meter_flags: MeterFlags::SEND | MeterFlags::RECEIVE,
            control_port: 5000,
            control_host: "yellow".into(),
            redirect_io: true,
            stdin_file: Some("/tmp/in".into()),
        };
        let wire = req.encode();
        assert_eq!(frame_len(&wire), Some(wire.len()));
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, 11, "create request is type 11");
        assert_eq!(Request::decode(&wire).unwrap(), req);
    }

    #[test]
    fn create_reply_matches_figure_3_6_shape() {
        let rep = Reply::Create {
            pid: Pid(2120),
            status: RpcStatus::Ok,
        };
        let wire = rep.encode();
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, 18, "create reply is type 18");
        // Body: pid then status, directly after the 8-byte prefix.
        assert_eq!(
            u32::from_le_bytes([wire[8], wire[9], wire[10], wire[11]]),
            2120
        );
        assert_eq!(Reply::decode(&wire).unwrap(), rep);
    }

    #[test]
    fn every_request_round_trips() {
        let f = MeterFlags::ALL;
        let reqs = vec![
            Request::CreateFilter {
                spec: FilterArgs {
                    port: 4001,
                    logfile: "/usr/tmp/f1".into(),
                    shards: 4,
                    ..FilterArgs::default()
                },
            },
            Request::CreateFilter {
                spec: FilterArgs {
                    port: 4002,
                    logfile: "/usr/tmp/f2".into(),
                    shards: 2,
                    role: FilterRole::Aggregate,
                    ..FilterArgs::default()
                },
            },
            Request::CreateFilter {
                spec: FilterArgs {
                    port: 4003,
                    role: FilterRole::Edge,
                    upstream: "blue:4002".into(),
                    ..FilterArgs::default()
                },
            },
            Request::SetFlags {
                pid: Pid(7),
                flags: f,
            },
            Request::Start { pid: Pid(7) },
            Request::Stop { pid: Pid(7) },
            Request::Kill { pid: Pid(7) },
            Request::Acquire {
                pid: Pid(9),
                filter_port: 1,
                filter_host: "h".into(),
                meter_flags: f,
                control_port: 2,
                control_host: "c".into(),
            },
            Request::AcquireMany {
                pids: vec![Pid(9), Pid(10), Pid(11)],
                filter_port: 1,
                filter_host: "h".into(),
                meter_flags: f,
                control_port: 2,
                control_host: "c".into(),
                rebind_only: false,
            },
            Request::AcquireMany {
                pids: vec![],
                filter_port: 0,
                filter_host: String::new(),
                meter_flags: MeterFlags::from_bits(0),
                control_port: 2,
                control_host: "c".into(),
                rebind_only: true,
            },
            Request::GetFile {
                path: "/usr/tmp/f1".into(),
            },
            Request::ClearMeter { pid: Pid(9) },
            Request::WriteFile {
                path: "/bin/A".into(),
                data: vec![1, 2, 3],
            },
            Request::SendInput {
                pid: Pid(9),
                data: b"hello\n".to_vec(),
            },
            Request::StateChange {
                pid: Pid(9),
                state: 0,
            },
            Request::IoData {
                pid: Pid(9),
                data: b"output".to_vec(),
            },
            Request::QueryProc { pid: Pid(2120) },
            Request::ListFiles {
                prefix: "/usr/tmp/f1-segments/".into(),
            },
            Request::Tagged {
                req_id: 0xDEAD_BEEF_0000_0001,
                inner: Box::new(Request::Start { pid: Pid(7) }),
            },
        ];
        for req in reqs {
            let wire = req.encode();
            assert_eq!(Request::decode(&wire).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn every_reply_round_trips() {
        for rep in [
            Reply::Create {
                pid: Pid(1),
                status: RpcStatus::Ok,
            },
            Reply::Ack {
                status: RpcStatus::Perm,
            },
            Reply::File {
                status: RpcStatus::Ok,
                data: vec![9; 100],
            },
            Reply::Ack {
                status: RpcStatus::Other(77),
            },
            Reply::ProcStatus {
                status: RpcStatus::Ok,
                state: 3,
            },
            Reply::ProcStatus {
                status: RpcStatus::Srch,
                state: 0,
            },
            Reply::FileList {
                status: RpcStatus::Ok,
                names: vec!["a-0.seg".into(), "a-1.seg".into()],
            },
            Reply::FileList {
                status: RpcStatus::NoEnt,
                names: vec![],
            },
            Reply::AcquireMany {
                status: RpcStatus::Ok,
                results: vec![
                    (Pid(9), RpcStatus::Ok),
                    (Pid(10), RpcStatus::Srch),
                    (Pid(11), RpcStatus::Ok),
                ],
            },
            Reply::AcquireMany {
                status: RpcStatus::Unavailable,
                results: vec![],
            },
        ] {
            assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn acquire_many_rejects_garbage() {
        // An absurd pid count (a corrupted or hostile length prefix)
        // is named, not allocated.
        let req = Request::AcquireMany {
            pids: vec![Pid(1)],
            filter_port: 4000,
            filter_host: "green".into(),
            meter_flags: MeterFlags::ALL,
            control_port: 5000,
            control_host: "yellow".into(),
            rebind_only: false,
        };
        let mut wire = req.encode();
        wire[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::decode(&wire).unwrap_err();
        assert!(err.to_string().contains("absurd length"), "{err}");
        // Truncated mid-batch.
        let wire = req.encode();
        assert!(Request::decode(&wire[..wire.len() - 2]).is_err());
        // The reply-side count is capped the same way.
        let rep = Reply::AcquireMany {
            status: RpcStatus::Ok,
            results: vec![(Pid(1), RpcStatus::Ok)],
        };
        let mut wire = rep.encode();
        wire[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Reply::decode(&wire).unwrap_err();
        assert!(err.to_string().contains("absurd length"), "{err}");
    }

    #[test]
    fn tagged_requests_nest_and_reject_double_wrapping() {
        // A Tagged wrapper round-trips any plain request and keeps
        // the same id across re-encodes (the retry path depends on
        // byte-identical retransmissions).
        let inner = Request::CreateFilter {
            spec: FilterArgs {
                port: 4001,
                logfile: "/usr/tmp/f1".into(),
                ..FilterArgs::default()
            },
        };
        let tagged = Request::Tagged {
            req_id: 42,
            inner: Box::new(inner.clone()),
        };
        let wire = tagged.encode();
        assert_eq!(wire, tagged.encode(), "encoding is deterministic");
        let ty = u32::from_le_bytes([wire[4], wire[5], wire[6], wire[7]]);
        assert_eq!(ty, msg_type::TAGGED);
        match Request::decode(&wire).unwrap() {
            Request::Tagged { req_id, inner: got } => {
                assert_eq!(req_id, 42);
                assert_eq!(*got, inner);
            }
            other => panic!("decoded {other:?}"),
        }
        // Tagged-inside-Tagged is malformed, not silently unwrapped.
        let double = Request::Tagged {
            req_id: 1,
            inner: Box::new(tagged),
        };
        assert!(Request::decode(&double.encode())
            .unwrap_err()
            .to_string()
            .contains("nested tagged"));
    }

    #[test]
    fn retry_status_codes_round_trip_and_print() {
        // The retry/dedup additions: wire codes 5 and 6 are now typed
        // instead of falling into Other.
        assert_eq!(RpcStatus::from(5), RpcStatus::Timeout);
        assert_eq!(RpcStatus::from(6), RpcStatus::Unavailable);
        assert_eq!(RpcStatus::Timeout.code(), 5);
        assert_eq!(RpcStatus::Unavailable.code(), 6);
        assert!(!RpcStatus::Timeout.is_ok());
        assert!(!RpcStatus::Unavailable.is_ok());
        assert_eq!(RpcStatus::Timeout.to_string(), "request timed out");
        assert_eq!(RpcStatus::Unavailable.to_string(), "daemon unavailable");
        // They survive a trip through a reply frame too.
        for status in [RpcStatus::Timeout, RpcStatus::Unavailable] {
            let rep = Reply::Ack { status };
            assert_eq!(Reply::decode(&rep.encode()).unwrap().status(), status);
        }
    }

    #[test]
    fn rpc_status_round_trips_and_prints() {
        for code in 0..8u32 {
            assert_eq!(RpcStatus::from(code).code(), code);
        }
        assert!(RpcStatus::Ok.is_ok());
        assert!(!RpcStatus::Fail.is_ok());
        assert_eq!(RpcStatus::from(2), RpcStatus::Srch);
        assert_eq!(RpcStatus::from(9), RpcStatus::Other(9));
        assert_eq!(RpcStatus::NoEnt.to_string(), "no such file");
        assert_eq!(RpcStatus::Other(9).to_string(), "unknown status 9");
    }

    #[test]
    fn decode_errors_on_garbage() {
        assert!(Request::decode(&[1, 2]).is_err());
        let mut wire = Request::Start { pid: Pid(1) }.encode();
        wire[4..8].copy_from_slice(&999u32.to_le_bytes());
        assert!(Request::decode(&wire)
            .unwrap_err()
            .to_string()
            .contains("999"));
        let mut truncated = Request::GetFile { path: "abc".into() }.encode();
        truncated.truncate(10);
        assert!(Request::decode(&truncated).is_err());
        assert!(Reply::decode(&[0; 8]).is_err());
    }

    /// An aggregate with an upstream: every field of the body off its
    /// default.
    fn sample_spec() -> FilterArgs {
        FilterArgs {
            filterfile: "/bin/filter".into(),
            port: 4700,
            logfile: "/usr/tmp/log.root".into(),
            descriptions: "descriptions".into(),
            templates: "templates".into(),
            shards: 3,
            role: FilterRole::Aggregate,
            upstream: "hub:4900".into(),
        }
    }

    #[test]
    fn create_filter_round_trips_with_pinned_bytes() {
        let req = Request::CreateFilter {
            spec: sample_spec(),
        };
        let wire = req.encode();
        assert_eq!(Request::decode(&wire).unwrap(), req);

        // The bytes the v2 encoder produces for this spec: length 105,
        // type 12, tag, version 2, then the fields (strings as u32
        // length + bytes, little-endian).
        let pinned: &[u8] = b"\x69\0\0\0\x0c\0\0\0\xff\xff\xff\xff\x02\0\0\0\
            \x0b\0\0\0/bin/filter\x5c\x12\0\0\
            \x11\0\0\0/usr/tmp/log.root\
            \x0c\0\0\0descriptions\
            \x09\0\0\0templates\
            \x03\0\0\0\x02\0\0\0\
            \x08\0\0\0hub:4900";
        assert_eq!(wire, pinned);
    }

    /// Overwrites the `u32` at `at` in an encoded `CreateFilter`.
    fn patched(spec: &FilterArgs, at: usize, word: u32) -> Vec<u8> {
        let mut wire = Request::CreateFilter { spec: spec.clone() }.encode();
        wire[at..at + 4].copy_from_slice(&word.to_le_bytes());
        wire
    }

    #[test]
    fn create_filter_rejects_what_the_validator_rejects() {
        let spec = sample_spec();
        let n = Request::CreateFilter { spec: spec.clone() }.encode().len();
        // Offsets in `sample_spec`'s body: tag 8, version 12, port
        // after the 11-byte filterfile; from the end: upstream (4 + 8),
        // role, shards.
        let (tag, version, port) = (8, 12, 16 + 4 + 11);
        let (role, shards) = (n - 16, n - 20);
        for (wire, want) in [
            (patched(&spec, tag, 11), "missing version tag"),
            (
                patched(&spec, version, 99),
                "unknown filter spec version 99",
            ),
            // The version that carried a sink word is refused like any
            // other the daemon does not speak.
            (patched(&spec, version, 1), "unknown filter spec version 1"),
            (patched(&spec, role, 7), "unknown filter role 7"),
            (patched(&spec, shards, 0), "key 'shards'"),
            (patched(&spec, port, 0), "missing key 'port'"),
            // 65536 + 4000 must not be narrowed to port 4000.
            (patched(&spec, port, 69_536), "port 69536 out of range"),
        ] {
            let err = Request::decode(&wire).unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
        }
        // Cross-field rules: an edge without an upstream, a leaf
        // without a log, an upstream that is no host:port.
        for (bad, want) in [
            (
                FilterArgs {
                    role: FilterRole::Edge,
                    upstream: String::new(),
                    ..sample_spec()
                },
                "requires key 'upstream'",
            ),
            (
                FilterArgs {
                    role: FilterRole::Leaf,
                    logfile: String::new(),
                    ..sample_spec()
                },
                "requires key 'log'",
            ),
            (
                FilterArgs {
                    upstream: "nocolon".into(),
                    ..sample_spec()
                },
                "key 'upstream'",
            ),
        ] {
            let req = Request::CreateFilter { spec: bad };
            let err = Request::decode(&req.encode()).unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
            // Wrapped in a retry tag it is rejected just the same.
            let tagged = Request::Tagged {
                req_id: 7,
                inner: Box::new(req),
            };
            let err = Request::decode(&tagged.encode()).unwrap_err().to_string();
            assert!(err.contains(want), "tagged {want}: {err}");
        }
    }

    #[test]
    fn out_of_range_ports_are_rejected_everywhere() {
        let f = MeterFlags::ALL;
        let create = Request::Create {
            filename: "/bin/A".into(),
            params: vec![],
            filter_port: 4000,
            filter_host: "h".into(),
            meter_flags: f,
            control_port: 5000,
            control_host: "c".into(),
            redirect_io: false,
            stdin_file: None,
        };
        let acquire = Request::Acquire {
            pid: Pid(9),
            filter_port: 4000,
            filter_host: "h".into(),
            meter_flags: f,
            control_port: 5000,
            control_host: "c".into(),
        };
        let many = Request::AcquireMany {
            pids: vec![Pid(9)],
            filter_port: 4000,
            filter_host: "h".into(),
            meter_flags: f,
            control_port: 5000,
            control_host: "c".into(),
            rebind_only: false,
        };
        for req in [create, acquire, many] {
            let wire = req.encode();
            for (port, name) in [(4000u32, "filter"), (5000u32, "control")] {
                let at = wire
                    .windows(4)
                    .position(|w| w == port.to_le_bytes())
                    .unwrap_or_else(|| panic!("{name} port in {req:?}"));
                let mut bad = wire.clone();
                bad[at..at + 4].copy_from_slice(&(65_536 + port).to_le_bytes());
                let err = Request::decode(&bad).unwrap_err().to_string();
                assert!(
                    err.contains("out of range"),
                    "{name} port of {req:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn frame_len_reads_prefix() {
        assert_eq!(frame_len(&[5, 0, 0, 0, 9]), Some(5));
        assert_eq!(frame_len(&[1, 2]), None);
    }
}
