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
use dpm_meter::wire::{u32_at, Reader, WireError, Writer};
use dpm_meter::MeterFlags;
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

/// [`FilterRole`]'s wire code.
fn role_code(role: FilterRole) -> u32 {
    match role {
        FilterRole::Leaf => 0,
        FilterRole::Edge => 1,
        FilterRole::Aggregate => 2,
    }
}

/// Decodes a [`FilterRole`] wire code; unknown values are rejected —
/// silently mis-placing a filter in the tree would corrupt a
/// measurement session.
fn role_from_code(code: u32) -> Result<FilterRole, ProtoError> {
    match code {
        0 => Ok(FilterRole::Leaf),
        1 => Ok(FilterRole::Edge),
        2 => Ok(FilterRole::Aggregate),
        other => Err(ProtoError::new(format!("unknown filter role {other}"))),
    }
}

/// First word of a `CreateFilter` body, ahead of the version — part
/// of the pinned layout.
const SPEC_TAG: u32 = 0xFFFF_FFFF;

/// The `CreateFilter` body's wire version.
pub(crate) const FILTER_SPEC_VERSION: u32 = 2;

/// Writes a [`FilterArgs`] as the `CreateFilter` body:
/// `SPEC_TAG, version, filterfile, port, logfile, descriptions,
/// templates, shards, role, upstream`.
fn encode_filter_args(spec: &FilterArgs, w: &mut Writer<'_>) {
    w.u32(SPEC_TAG).u32(FILTER_SPEC_VERSION);
    w.str(&spec.filterfile).u32(spec.port as u32);
    w.str(&spec.logfile).str(&spec.descriptions);
    w.str(&spec.templates).u32(spec.shards);
    w.u32(role_code(spec.role)).str(&spec.upstream);
}

/// Reads a `CreateFilter` body and runs [`FilterArgs::validate`] on
/// it, so a daemon never spawns (or registers an edge for) a filter
/// that would die on its own argument check. Unknown versions and
/// roles are rejected outright.
fn decode_filter_args(r: &mut Reader<'_>) -> Result<FilterArgs, ProtoError> {
    if r.u32()? != SPEC_TAG {
        return Err(ProtoError::new("filter spec: missing version tag"));
    }
    let version = r.u32()?;
    if version != FILTER_SPEC_VERSION {
        return Err(ProtoError::new(format!(
            "unknown filter spec version {version}"
        )));
    }
    let spec = FilterArgs {
        filterfile: string(r)?,
        port: port(r)?,
        logfile: string(r)?,
        descriptions: string(r)?,
        templates: string(r)?,
        shards: r.u32()?,
        role: role_from_code(r.u32()?)?,
        upstream: string(r)?,
    };
    spec.validate()
        .map_err(|e| ProtoError::new(format!("filter spec: {e}")))?;
    Ok(spec)
}

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

// --- wire helpers -----------------------------------------------------

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

/// A complete frame of type `ty`: `u32 total-length, u32 type`, then
/// whatever `body` writes.
fn frame(ty: u32, body: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let mut w = Writer::new(&mut out);
    w.u32(0).u32(ty); // length placeholder
    body(&mut w);
    let len = w.len() as u32;
    w.patch_u32(0, len);
    out
}

/// A port number: carried as a `u32`, rejected beyond 65535 instead
/// of narrowed to some other port.
fn port(r: &mut Reader<'_>) -> Result<u16, ProtoError> {
    let v = r.u32()?;
    u16::try_from(v).map_err(|_| ProtoError::new(format!("port {v} out of range")))
}

fn bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, ProtoError> {
    Ok(r.bytes(MAX_RPC_FRAME)?.to_vec())
}

fn string(r: &mut Reader<'_>) -> Result<String, ProtoError> {
    Ok(r.str(MAX_RPC_FRAME)?.to_owned())
}

/// An element count no larger than `cap` that the rest of the frame
/// can hold at `min_elem_bytes` apiece.
fn count(
    r: &mut Reader<'_>,
    min_elem_bytes: usize,
    cap: usize,
    what: &str,
) -> Result<usize, ProtoError> {
    match r.count(min_elem_bytes) {
        Ok(n) if n <= cap => Ok(n),
        Err(e @ WireError::Truncated { .. }) => Err(e.into()),
        _ => Err(ProtoError::new(format!("absurd {what} count"))),
    }
}

impl Request {
    /// The message's type number.
    pub(crate) fn msg_type(&self) -> u32 {
        match self {
            Request::Create { .. } => msg_type::CREATE_REQUEST,
            Request::CreateFilter { .. } => msg_type::CREATE_FILTER,
            Request::SetFlags { .. } => msg_type::SET_FLAGS,
            Request::Start { .. } => msg_type::START,
            Request::Stop { .. } => msg_type::STOP,
            Request::Kill { .. } => msg_type::KILL,
            Request::Acquire { .. } => msg_type::ACQUIRE,
            Request::AcquireMany { .. } => msg_type::ACQUIRE_MANY,
            Request::GetFile { .. } => msg_type::GET_FILE,
            Request::ClearMeter { .. } => msg_type::CLEAR_METER,
            Request::WriteFile { .. } => msg_type::WRITE_FILE,
            Request::SendInput { .. } => msg_type::SEND_INPUT,
            Request::StateChange { .. } => msg_type::STATE_CHANGE,
            Request::IoData { .. } => msg_type::IO_DATA,
            Request::Tagged { .. } => msg_type::TAGGED,
            Request::QueryProc { .. } => msg_type::QUERY_PROC,
            Request::ListFiles { .. } => msg_type::LIST_FILES,
        }
    }

    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        frame(self.msg_type(), |w| match self {
            Request::Create {
                filename,
                params,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
                redirect_io,
                stdin_file,
            } => {
                w.str(filename).u32(params.len() as u32);
                for p in params {
                    w.str(p);
                }
                w.u32(*filter_port as u32).str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32).str(control_host);
                w.u32(*redirect_io as u32);
                w.str(stdin_file.as_deref().unwrap_or(""));
            }
            Request::CreateFilter { spec } => encode_filter_args(spec, w),
            Request::SetFlags { pid, flags } => {
                w.u32(pid.0).u32(flags.bits());
            }
            Request::Start { pid }
            | Request::Stop { pid }
            | Request::Kill { pid }
            | Request::ClearMeter { pid }
            | Request::QueryProc { pid } => {
                w.u32(pid.0);
            }
            Request::Acquire {
                pid,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
            } => {
                w.u32(pid.0);
                w.u32(*filter_port as u32).str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32).str(control_host);
            }
            Request::AcquireMany {
                pids,
                filter_port,
                filter_host,
                meter_flags,
                control_port,
                control_host,
                rebind_only,
            } => {
                w.u32(pids.len() as u32);
                for pid in pids {
                    w.u32(pid.0);
                }
                w.u32(*filter_port as u32).str(filter_host);
                w.u32(meter_flags.bits());
                w.u32(*control_port as u32).str(control_host);
                w.u32(*rebind_only as u32);
            }
            Request::GetFile { path } => {
                w.str(path);
            }
            Request::WriteFile { path, data } => {
                w.str(path).bytes(data);
            }
            Request::SendInput { pid, data } | Request::IoData { pid, data } => {
                w.u32(pid.0).bytes(data);
            }
            Request::StateChange { pid, state } => {
                w.u32(pid.0).u32(*state);
            }
            Request::Tagged { req_id, inner } => {
                w.u64(*req_id).bytes(&inner.encode());
            }
            Request::ListFiles { prefix } => {
                w.str(prefix);
            }
        })
    }

    /// Decodes a complete message (including its length prefix).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, an unknown type number, a port
    /// beyond 65535, or a filter description its validator rejects.
    pub fn decode(buf: &[u8]) -> Result<Request, ProtoError> {
        let r = &mut Reader::new(buf);
        let (_len, ty) = (r.u32()?, r.u32()?);
        Ok(match ty {
            msg_type::CREATE_REQUEST => {
                let filename = string(r)?;
                // A parameter is at least its own length prefix.
                let n = count(r, 4, MAX_PARAMS, "parameter")?;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(string(r)?);
                }
                Request::Create {
                    filename,
                    params,
                    filter_port: port(r)?,
                    filter_host: string(r)?,
                    meter_flags: MeterFlags::from_bits(r.u32()?),
                    control_port: port(r)?,
                    control_host: string(r)?,
                    redirect_io: r.u32()? != 0,
                    stdin_file: {
                        let s = string(r)?;
                        if s.is_empty() {
                            None
                        } else {
                            Some(s)
                        }
                    },
                }
            }
            msg_type::CREATE_FILTER => Request::CreateFilter {
                spec: decode_filter_args(r)?,
            },
            msg_type::SET_FLAGS => Request::SetFlags {
                pid: Pid(r.u32()?),
                flags: MeterFlags::from_bits(r.u32()?),
            },
            msg_type::START => Request::Start { pid: Pid(r.u32()?) },
            msg_type::STOP => Request::Stop { pid: Pid(r.u32()?) },
            msg_type::KILL => Request::Kill { pid: Pid(r.u32()?) },
            msg_type::ACQUIRE => Request::Acquire {
                pid: Pid(r.u32()?),
                filter_port: port(r)?,
                filter_host: string(r)?,
                meter_flags: MeterFlags::from_bits(r.u32()?),
                control_port: port(r)?,
                control_host: string(r)?,
            },
            msg_type::ACQUIRE_MANY => {
                let n = count(r, 4, MAX_BATCH, "pid")?;
                let mut pids = Vec::with_capacity(n);
                for _ in 0..n {
                    pids.push(Pid(r.u32()?));
                }
                Request::AcquireMany {
                    pids,
                    filter_port: port(r)?,
                    filter_host: string(r)?,
                    meter_flags: MeterFlags::from_bits(r.u32()?),
                    control_port: port(r)?,
                    control_host: string(r)?,
                    rebind_only: r.u32()? != 0,
                }
            }
            msg_type::GET_FILE => Request::GetFile { path: string(r)? },
            msg_type::CLEAR_METER => Request::ClearMeter { pid: Pid(r.u32()?) },
            msg_type::WRITE_FILE => Request::WriteFile {
                path: string(r)?,
                data: bytes(r)?,
            },
            msg_type::SEND_INPUT => Request::SendInput {
                pid: Pid(r.u32()?),
                data: bytes(r)?,
            },
            msg_type::STATE_CHANGE => Request::StateChange {
                pid: Pid(r.u32()?),
                state: r.u32()?,
            },
            msg_type::IO_DATA => Request::IoData {
                pid: Pid(r.u32()?),
                data: bytes(r)?,
            },
            msg_type::TAGGED => {
                let req_id = r.u64()?;
                let inner = Request::decode(r.bytes(MAX_RPC_FRAME)?)?;
                if matches!(inner, Request::Tagged { .. }) {
                    return Err(ProtoError::new("nested tagged request"));
                }
                Request::Tagged {
                    req_id,
                    inner: Box::new(inner),
                }
            }
            msg_type::QUERY_PROC => Request::QueryProc { pid: Pid(r.u32()?) },
            msg_type::LIST_FILES => Request::ListFiles { prefix: string(r)? },
            other => return Err(ProtoError::new(format!("unknown request type {other}"))),
        })
    }
}

impl Reply {
    /// The message's type number.
    pub(crate) fn msg_type(&self) -> u32 {
        match self {
            Reply::Create { .. } => msg_type::CREATE_REPLY,
            Reply::Ack { .. } => msg_type::ACK,
            Reply::File { .. } => msg_type::FILE_REPLY,
            Reply::ProcStatus { .. } => msg_type::PROC_STATUS,
            Reply::FileList { .. } => msg_type::FILE_LIST,
            Reply::AcquireMany { .. } => msg_type::ACQUIRE_MANY_REPLY,
        }
    }

    /// Encodes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        frame(self.msg_type(), |w| match self {
            Reply::Create { pid, status } => {
                w.u32(pid.0).u32(status.code());
            }
            Reply::Ack { status } => {
                w.u32(status.code());
            }
            Reply::File { status, data } => {
                w.u32(status.code()).bytes(data);
            }
            Reply::ProcStatus { status, state } => {
                w.u32(status.code()).u32(*state);
            }
            Reply::FileList { status, names } => {
                w.u32(status.code()).u32(names.len() as u32);
                for n in names {
                    w.str(n);
                }
            }
            Reply::AcquireMany { status, results } => {
                w.u32(status.code()).u32(results.len() as u32);
                for (pid, st) in results {
                    w.u32(pid.0).u32(st.code());
                }
            }
        })
    }

    /// Decodes a complete message.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation or an unknown type number.
    pub fn decode(buf: &[u8]) -> Result<Reply, ProtoError> {
        let r = &mut Reader::new(buf);
        let (_len, ty) = (r.u32()?, r.u32()?);
        Ok(match ty {
            msg_type::CREATE_REPLY => Reply::Create {
                pid: Pid(r.u32()?),
                status: RpcStatus::from(r.u32()?),
            },
            msg_type::ACK => Reply::Ack {
                status: RpcStatus::from(r.u32()?),
            },
            msg_type::FILE_REPLY => Reply::File {
                status: RpcStatus::from(r.u32()?),
                data: bytes(r)?,
            },
            msg_type::PROC_STATUS => Reply::ProcStatus {
                status: RpcStatus::from(r.u32()?),
                state: r.u32()?,
            },
            msg_type::FILE_LIST => {
                let status = RpcStatus::from(r.u32()?);
                let n = count(r, 4, MAX_BATCH, "file")?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(string(r)?);
                }
                Reply::FileList { status, names }
            }
            msg_type::ACQUIRE_MANY_REPLY => {
                let status = RpcStatus::from(r.u32()?);
                let n = count(r, 8, MAX_BATCH, "pid")?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push((Pid(r.u32()?), RpcStatus::from(r.u32()?)));
                }
                Reply::AcquireMany { status, results }
            }
            other => return Err(ProtoError::new(format!("unknown reply type {other}"))),
        })
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
        assert!(err.to_string().contains("absurd pid count"), "{err}");
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
        assert!(err.to_string().contains("absurd pid count"), "{err}");
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
