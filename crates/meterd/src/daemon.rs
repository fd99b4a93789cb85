//! The meterdaemon.
//!
//! "To provide process control across machine boundaries, we use
//! daemon processes executing on each machine. … There must be a
//! meterdaemon on each machine that supports the measurement system.
//! The sole purpose of the meterdaemons is to carry out control
//! functions for the controller." (§3.5.1)
//!
//! The exchange is an RPC over a *temporary* stream connection: "the
//! stream connection between the controller and a meterdaemon exists
//! for the duration of a single exchange of messages" (§3.5.1). The
//! one exception is process-termination reporting, where the daemon
//! initiates the connection to the controller.

use crate::proto::{frame_len, Reply, Request, RpcStatus, MAX_RPC_FRAME};
use dpm_filter::FilterRole;
use dpm_meter::{MeterFlags, SockName, TermReason};
use dpm_simos::{
    connect_backoff, Backoff, BindTo, Cluster, Domain, Fd, FlagSel, Pid, PidSel, Proc, RunState,
    Sig, SockSel, SockType, SysError, SysResult, Uid,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The well-known port every meterdaemon listens on.
pub const METERD_PORT: u16 = 571;

/// The program-registry name of the meterdaemon.
pub const METERD_PROGRAM: &str = "meterd";

/// Reads exactly `n` bytes from a stream descriptor; `None` at EOF.
///
/// # Errors
///
/// Propagates any read error.
pub fn read_exact(p: &Proc, fd: Fd, n: usize) -> SysResult<Option<Vec<u8>>> {
    let mut buf = Vec::with_capacity(n);
    while buf.len() < n {
        let chunk = p.read(fd, n - buf.len())?;
        if chunk.is_empty() {
            return Ok(None);
        }
        buf.extend_from_slice(&chunk);
    }
    Ok(Some(buf))
}

/// Reads one length-prefixed protocol frame; `None` at EOF.
///
/// # Errors
///
/// `EINVAL` on a malformed length; read errors propagate.
pub fn read_frame(p: &Proc, fd: Fd) -> SysResult<Option<Vec<u8>>> {
    let Some(prefix) = read_exact(p, fd, 4)? else {
        return Ok(None);
    };
    let total = frame_len(&prefix).ok_or(SysError::Einval)?;
    if !(8..=MAX_RPC_FRAME).contains(&total) {
        return Err(SysError::Einval);
    }
    let Some(rest) = read_exact(p, fd, total - 4)? else {
        return Ok(None);
    };
    let mut out = prefix;
    out.extend_from_slice(&rest);
    Ok(Some(out))
}

/// Performs one controller-side RPC: temporary connection, one
/// request, one reply, close (§3.5.1).
///
/// This is the raw single-attempt exchange with no timeout; callers
/// that must survive a lossy network or a restarting daemon should use
/// [`rpc_call_retry`] instead.
///
/// # Errors
///
/// Connection errors propagate; a garbled reply is `EINVAL`.
pub fn rpc_call(p: &Proc, host: &str, req: &Request) -> SysResult<Reply> {
    let s = p.socket(Domain::Inet, SockType::Stream)?;
    let result = (|| {
        p.connect_host(s, host, METERD_PORT)?;
        p.write(s, &req.encode())?;
        let frame = read_frame(p, s)?.ok_or(SysError::Epipe)?;
        Reply::decode(&frame).map_err(|_| SysError::Einval)
    })();
    let _ = p.close(s);
    result
}

/// Default per-attempt reply timeout for [`rpc_call_retry`], in
/// virtual milliseconds. Generous next to the simulated WAN latencies
/// (tens of milliseconds) yet short enough that a partitioned daemon
/// is retried, not waited on forever.
pub const RPC_TIMEOUT_MS: u64 = 400;

/// Source of idempotency keys for [`rpc_call_retry`]. Uniqueness is
/// all that matters — the daemon's dedup cache keys on the id, and the
/// fault schedule never looks at it.
static NEXT_REQ_ID: AtomicU64 = AtomicU64::new(1);

/// What one RPC attempt came back with.
enum Attempt {
    Got(Reply),
    /// Could not connect, or the connection died before a full reply.
    Unreachable,
    /// Connected and sent, but no reply within the timeout.
    TimedOut,
}

/// Reads one protocol frame, giving up after `timeout_ms` of virtual
/// time. Polls non-blockingly, advancing the virtual clock between
/// polls (the same discipline as the workloads' `read_timeout`).
fn read_frame_deadline(p: &Proc, fd: Fd, timeout_ms: u64) -> SysResult<Attempt> {
    let mut buf: Vec<u8> = Vec::new();
    let mut waited = 0u64;
    loop {
        let want = match frame_len(&buf) {
            Some(total) => {
                if !(8..=MAX_RPC_FRAME).contains(&total) {
                    return Ok(Attempt::Unreachable);
                }
                if buf.len() >= total {
                    match Reply::decode(&buf) {
                        Ok(reply) => return Ok(Attempt::Got(reply)),
                        Err(_) => return Ok(Attempt::Unreachable),
                    }
                }
                total - buf.len()
            }
            None => 4 - buf.len(),
        };
        match p.read_nb(fd, want)? {
            Some(chunk) if chunk.is_empty() => return Ok(Attempt::Unreachable), // EOF
            Some(chunk) => buf.extend_from_slice(&chunk),
            None => {
                if waited >= timeout_ms {
                    return Ok(Attempt::TimedOut);
                }
                p.sleep_ms(2)?;
                waited += 2;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }
}

/// One attempt of the hardened RPC: connect, send the pre-encoded
/// tagged request, wait (bounded) for the reply.
fn rpc_attempt(p: &Proc, host: &str, wire: &[u8], timeout_ms: u64) -> SysResult<Attempt> {
    let s = p.socket(Domain::Inet, SockType::Stream)?;
    let result = (|| {
        if p.connect_host(s, host, METERD_PORT).is_err() {
            return Ok(Attempt::Unreachable);
        }
        if p.write(s, wire).is_err() {
            return Ok(Attempt::Unreachable);
        }
        read_frame_deadline(p, s, timeout_ms)
    })();
    let _ = p.close(s);
    result
}

/// The hardened controller-side RPC: per-attempt reply timeout,
/// bounded exponential-backoff retries, and an idempotency key so a
/// retried request is applied by the daemon at most once (the daemon
/// replays its cached reply for a request id it has already served).
///
/// Failure is reported in-band rather than as an error: when every
/// attempt is exhausted the result is an [`Reply::Ack`] carrying
/// [`RpcStatus::Timeout`] (sent but no reply in time) or
/// [`RpcStatus::Unavailable`] (could not reach the daemon at all), so
/// callers handle a dead daemon through the same status path as any
/// other refusal.
///
/// # Errors
///
/// Only process-fatal errors ([`SysError::Killed`]) propagate.
pub fn rpc_call_retry(
    p: &Proc,
    host: &str,
    req: &Request,
    timeout_ms: u64,
    mut retry: Backoff,
) -> SysResult<Reply> {
    let req_id = NEXT_REQ_ID.fetch_add(1, Ordering::Relaxed);
    let wire = Request::Tagged {
        req_id,
        inner: Box::new(req.clone()),
    }
    .encode();
    // Per-link RPC health, labelled by the (caller, callee) pair so a
    // partition shows up on exactly the affected link.
    let link = format!("{}->{}", p.machine().name(), host);
    let r = dpm_telemetry::registry();
    loop {
        let last = match rpc_attempt(p, host, &wire, timeout_ms) {
            Ok(Attempt::Got(reply)) => return Ok(reply),
            Ok(Attempt::Unreachable) => {
                r.counter("meterd", "rpc_unreachable", &link).inc();
                RpcStatus::Unavailable
            }
            Ok(Attempt::TimedOut) => {
                r.counter("meterd", "rpc_timeouts", &link).inc();
                RpcStatus::Timeout
            }
            Err(SysError::Killed) => return Err(SysError::Killed),
            Err(_) => {
                r.counter("meterd", "rpc_unreachable", &link).inc();
                RpcStatus::Unavailable
            }
        };
        if !retry.wait(p)? {
            dpm_telemetry::note(
                "meterd",
                &link,
                format!(
                    "rpc {req_id} gave up after {} retries ({last:?})",
                    retry.attempts()
                ),
            );
            return Ok(Reply::Ack { status: last });
        }
        r.counter("meterd", "rpc_retries", &link).inc();
    }
}

/// Sends a one-way notification (state change, I/O data) to a
/// controller's notification socket.
///
/// # Errors
///
/// Connection errors propagate.
pub fn notify(p: &Proc, host: &str, port: u16, req: &Request) -> SysResult<()> {
    let s = p.socket(Domain::Inet, SockType::Stream)?;
    let result = (|| {
        p.connect_host(s, host, port)?;
        p.write(s, &req.encode())?;
        Ok(())
    })();
    let _ = p.close(s);
    result
}

/// How many distinct clients the daemon keeps reply history for.
const REPLY_CACHE_CLIENTS: usize = 32;

/// How many served request ids the daemon remembers *per client* for
/// replaying replies to retried [`Request::Tagged`] calls.
const REPLY_CACHE_PER_CLIENT: usize = 64;

/// One client's recently served replies, in least-recently-used order
/// (front = coldest). Request ids are process-global on the caller
/// side, but grouping by client keeps one chatty controller — a
/// takeover doing thousands of `AcquireMany` calls, say — from
/// flushing the dedup window every *other* controller's retries
/// depend on.
#[derive(Debug, Default)]
struct ClientReplies {
    map: HashMap<u64, Vec<u8>>,
    order: VecDeque<u64>,
}

impl ClientReplies {
    fn touch(&mut self, req_id: u64) {
        if let Some(i) = self.order.iter().position(|&id| id == req_id) {
            self.order.remove(i);
            self.order.push_back(req_id);
        }
    }

    fn get(&mut self, req_id: u64) -> Option<Vec<u8>> {
        let hit = self.map.get(&req_id).cloned();
        if hit.is_some() {
            self.touch(req_id);
        }
        hit
    }

    fn insert(&mut self, req_id: u64, reply: Vec<u8>) {
        if self.map.insert(req_id, reply).is_none() {
            self.order.push_back(req_id);
            if self.order.len() > REPLY_CACHE_PER_CLIENT {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        } else {
            self.touch(req_id);
        }
    }
}

/// The daemon's reply cache: per-client LRU maps of encoded replies
/// keyed by request id, with the client population itself LRU-bounded.
/// A retried `CreateFilter` or `Start` whose first reply was lost gets
/// the original reply replayed instead of a second execution.
#[derive(Debug, Default)]
struct ReplyCache {
    clients: HashMap<String, ClientReplies>,
    order: VecDeque<String>,
}

impl ReplyCache {
    fn touch(&mut self, client: &str) {
        if let Some(i) = self.order.iter().position(|c| c == client) {
            self.order.remove(i);
            self.order.push_back(client.to_owned());
        }
    }

    fn get(&mut self, client: &str, req_id: u64) -> Option<Vec<u8>> {
        let hit = self.clients.get_mut(client)?.get(req_id);
        if hit.is_some() {
            self.touch(client);
        }
        hit
    }

    fn insert(&mut self, client: &str, req_id: u64, reply: Vec<u8>) {
        if !self.clients.contains_key(client) {
            self.clients
                .insert(client.to_owned(), ClientReplies::default());
            self.order.push_back(client.to_owned());
            if self.order.len() > REPLY_CACHE_CLIENTS {
                if let Some(old) = self.order.pop_front() {
                    self.clients.remove(&old);
                }
            }
        } else {
            self.touch(client);
        }
        self.clients
            .get_mut(client)
            .expect("client just ensured")
            .insert(req_id, reply);
    }
}

/// The cache key for a connection's peer. The *host* identifies a
/// client — the connecting port is ephemeral and changes on every
/// retry, so it must not partition one caller's history.
fn client_key(who: &SockName) -> String {
    match who {
        SockName::Inet { host, .. } => format!("inet:{host}"),
        SockName::UnixPath(path) => format!("unix:{path}"),
        SockName::Internal(id) => format!("internal:{id}"),
    }
}

/// The machine-local edge pre-filter, when one is running: its pid
/// (so the registry can be cleared when it dies) and its meter port.
///
/// While an edge is registered, every meter connection this daemon
/// wires up — `Create` and `Acquire` alike — goes to the edge instead
/// of crossing the network to the job's filter; the edge applies the
/// selection templates locally and forwards only accepted records
/// upstream. That capture-everything behavior is the point of an edge:
/// one per machine, co-located with the daemon.
type EdgeRegistry = Arc<Mutex<Option<(Pid, u16)>>>;

/// What the daemon remembers about each process it created.
#[derive(Debug, Clone)]
struct ProcInfo {
    control_host: String,
    control_port: u16,
    /// The daemon's end of the stdio gateway socketpair, when the
    /// process's I/O was redirected.
    stdin_fd: Option<Fd>,
}

/// Registers the meterdaemon program and starts one daemon (as root)
/// on every machine of the cluster — the paper's requirement that
/// "there must be a meterdaemon on each machine".
pub fn start_meterdaemons(cluster: &Arc<Cluster>) -> Vec<Pid> {
    cluster.register_program(METERD_PROGRAM, meterd_main);
    let mut pids = Vec::new();
    for m in cluster.machines() {
        cluster.install_program_file(m.name(), "/etc/meterd", METERD_PROGRAM);
        pids.push(m.spawn_fn(METERD_PROGRAM, Uid::ROOT, None, true, |p| {
            meterd_main(p, Vec::new())
        }));
    }
    pids
}

/// The meterdaemon program body. Runs until killed.
///
/// # Errors
///
/// Fatal setup errors (cannot bind the well-known port) propagate;
/// per-request errors are turned into error replies.
pub fn meterd_main(p: Proc, _args: Vec<String>) -> SysResult<()> {
    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    // A restarted daemon can find its well-known port still bound:
    // processes the previous daemon spawned inherited its descriptors
    // (fork semantics, no close-on-exec in 4.2BSD's spawn path here),
    // so the old listener lives until the last such child exits.
    // Retry with the shared bounded backoff instead of dying — the
    // port frees as the orphaned children finish.
    let mut retry = Backoff::standard();
    loop {
        match p.bind(listener, BindTo::Port(METERD_PORT)) {
            Ok(_) => break,
            Err(SysError::Eaddrinuse) => {
                if !retry.wait(&p)? {
                    return Err(SysError::Eaddrinuse);
                }
            }
            Err(e) => return Err(e),
        }
    }
    p.listen(listener, 16)?;

    let procs: Arc<Mutex<HashMap<Pid, ProcInfo>>> = Arc::new(Mutex::new(HashMap::new()));
    let replies: Arc<Mutex<ReplyCache>> = Arc::new(Mutex::new(ReplyCache::default()));
    let edges: EdgeRegistry = Arc::new(Mutex::new(None));

    // The SIGCHLD handler: "when a process changes state (stops or
    // terminates), a signal handling procedure in the meterdaemon is
    // activated. Upon receiving such a notification, the meterdaemon
    // requests a connection to the controller responsible for the
    // terminating process, and then sends the information about the
    // change of state to this controller." (§3.5.1)
    {
        let watcher = p.clone();
        let procs = procs.clone();
        let edges = edges.clone();
        std::thread::spawn(move || loop {
            match watcher.wait_child() {
                Ok((pid, reason)) => {
                    // A dead edge pre-filter must stop capturing meter
                    // connections; new ones go to the job's filter.
                    {
                        let mut e = edges.lock();
                        if e.map(|(epid, _)| epid) == Some(pid) {
                            *e = None;
                        }
                    }
                    let info = procs.lock().get(&pid).cloned();
                    if let Some(info) = info {
                        let state = match reason {
                            TermReason::Normal => 0,
                            TermReason::Killed => 1,
                        };
                        let _ = notify(
                            &watcher,
                            &info.control_host,
                            info.control_port,
                            &Request::StateChange { pid, state },
                        );
                        procs.lock().remove(&pid);
                    }
                }
                Err(SysError::Esrch) => {
                    // No children right now; the daemon may get some
                    // later, or may itself be gone.
                    if watcher
                        .machine()
                        .proc_state(watcher.pid())
                        .map(|s| s.is_dead())
                        != Some(false)
                    {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(_) => break,
            }
        });
    }

    loop {
        let (conn, who) = p.accept(listener)?;
        let outcome = serve_one(&p, conn, &who, &procs, &replies, &edges);
        let _ = p.close(conn);
        // Individual request failures must not kill the daemon, but a
        // kill signal must.
        if let Err(SysError::Killed) = outcome {
            return Err(SysError::Killed);
        }
    }
}

/// Handles one temporary connection: one request, one reply. A
/// [`Request::Tagged`] wrapper is unwrapped here; an id the daemon has
/// already served gets its cached reply replayed without re-executing
/// the request.
fn serve_one(
    p: &Proc,
    conn: Fd,
    who: &SockName,
    procs: &Arc<Mutex<HashMap<Pid, ProcInfo>>>,
    replies: &Arc<Mutex<ReplyCache>>,
    edges: &EdgeRegistry,
) -> SysResult<()> {
    let Some(frame) = read_frame(p, conn)? else {
        return Ok(());
    };
    dpm_telemetry::registry()
        .counter("meterd", "rpc_served", p.machine().name())
        .inc();
    let req = match Request::decode(&frame) {
        Ok(r) => r,
        Err(_e) => {
            let _ = p.write(
                conn,
                &Reply::Ack {
                    status: RpcStatus::Fail,
                }
                .encode(),
            );
            return Ok(());
        }
    };
    let (req_id, req) = match req {
        Request::Tagged { req_id, inner } => (Some(req_id), *inner),
        other => (None, other),
    };
    let client = client_key(who);
    if let Some(id) = req_id {
        if let Some(cached) = replies.lock().get(&client, id) {
            dpm_telemetry::registry()
                .counter("meterd", "replay_hits", p.machine().name())
                .inc();
            p.write(conn, &cached)?;
            return Ok(());
        }
    }
    let reply = handle(p, procs, edges, req)?;
    if let Some(reply) = reply {
        let bytes = reply.encode();
        if let Some(id) = req_id {
            replies.lock().insert(&client, id, bytes.clone());
        }
        p.write(conn, &bytes)?;
    }
    Ok(())
}

fn sys_status(e: &SysError) -> RpcStatus {
    match e {
        SysError::Enoent => RpcStatus::NoEnt,
        SysError::Esrch => RpcStatus::Srch,
        SysError::Eperm => RpcStatus::Perm,
        _ => RpcStatus::Fail,
    }
}

/// Executes one request; `Ok(None)` for one-way messages.
fn handle(
    p: &Proc,
    procs: &Arc<Mutex<HashMap<Pid, ProcInfo>>>,
    edges: &EdgeRegistry,
    req: Request,
) -> SysResult<Option<Reply>> {
    match req {
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
            let reply = create_process(
                p,
                procs,
                edges,
                &filename,
                params,
                filter_port,
                &filter_host,
                meter_flags,
                control_port,
                &control_host,
                redirect_io,
                stdin_file,
            )?;
            Ok(Some(reply))
        }
        Request::CreateFilter { spec } => {
            // `spec` passed the validator at decode; the program reads
            // this argv back with `FilterArgs::parse`.
            match p.spawn_file(&spec.filterfile, spec.to_args(), None) {
                Ok(pid) => {
                    // Filters run immediately.
                    p.kill(pid, Sig::Cont)?;
                    if spec.role == FilterRole::Edge {
                        *edges.lock() = Some((pid, spec.port));
                    }
                    Ok(Some(Reply::Create {
                        pid,
                        status: RpcStatus::Ok,
                    }))
                }
                Err(e) => Ok(Some(Reply::Create {
                    pid: Pid(0),
                    status: sys_status(&e),
                })),
            }
        }
        Request::SetFlags { pid, flags } => Ok(Some(ack(p.setmeter(
            PidSel::Pid(pid),
            FlagSel::Set(flags),
            SockSel::NoChange,
        )))),
        Request::Start { pid } => Ok(Some(ack(p.kill(pid, Sig::Cont)))),
        Request::Stop { pid } => Ok(Some(ack(p.kill(pid, Sig::Stop)))),
        Request::Kill { pid } => Ok(Some(ack(p.kill(pid, Sig::Kill)))),
        Request::Acquire {
            pid,
            filter_port,
            filter_host,
            meter_flags,
            control_port: _,
            control_host: _,
        } => {
            let result = (|| -> SysResult<()> {
                let (host, port) = filter_target(p, edges, &filter_host, filter_port);
                let s = connect_filter(p, &host, port)?;
                let r = p.setmeter(PidSel::Pid(pid), FlagSel::Set(meter_flags), SockSel::Fd(s));
                let _ = p.close(s);
                r
            })();
            Ok(Some(match result {
                Ok(()) => Reply::Create {
                    pid,
                    status: RpcStatus::Ok,
                },
                Err(e) => Reply::Create {
                    pid: Pid(0),
                    status: sys_status(&e),
                },
            }))
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
            dpm_telemetry::registry()
                .counter("meterd", "acquire_many_pids", p.machine().name())
                .add(pids.len() as u64);
            if rebind_only {
                // Takeover path: the processes are already metered and
                // their filter connections must not be disturbed; only
                // the controller that owns them has changed. Re-point
                // the daemon's notion of each process's controller so
                // state-change notifications reach the new owner.
                let mut results = Vec::with_capacity(pids.len());
                let mut table = procs.lock();
                for pid in pids {
                    let alive = p
                        .machine()
                        .proc_state(pid)
                        .map(|s| !s.is_dead())
                        .unwrap_or(false);
                    if alive {
                        let info = table.entry(pid).or_insert_with(|| ProcInfo {
                            control_host: String::new(),
                            control_port: 0,
                            stdin_fd: None,
                        });
                        info.control_host = control_host.clone();
                        info.control_port = control_port;
                        results.push((pid, RpcStatus::Ok));
                    } else {
                        results.push((pid, RpcStatus::Srch));
                    }
                }
                Ok(Some(Reply::AcquireMany {
                    status: RpcStatus::Ok,
                    results,
                }))
            } else {
                // Acquire-at-scale path: one connection to the filter
                // is shared by the whole batch — `setmeter` bumps the
                // socket's reference per process, so the descriptor
                // can be closed here as usual. Thousands of processes
                // cost one connect instead of thousands.
                let (host, port) = filter_target(p, edges, &filter_host, filter_port);
                let s = match connect_filter(p, &host, port) {
                    Ok(s) => s,
                    Err(e) => {
                        return Ok(Some(Reply::AcquireMany {
                            status: sys_status(&e),
                            results: Vec::new(),
                        }));
                    }
                };
                let mut results = Vec::with_capacity(pids.len());
                for pid in pids {
                    match p.setmeter(PidSel::Pid(pid), FlagSel::Set(meter_flags), SockSel::Fd(s)) {
                        Ok(()) => results.push((pid, RpcStatus::Ok)),
                        Err(e) => results.push((pid, sys_status(&e))),
                    }
                }
                let _ = p.close(s);
                Ok(Some(Reply::AcquireMany {
                    status: RpcStatus::Ok,
                    results,
                }))
            }
        }
        Request::GetFile { path } => Ok(Some(match p.machine().fs().read(&path) {
            Some(data) => Reply::File {
                status: RpcStatus::Ok,
                data,
            },
            None => Reply::File {
                status: RpcStatus::NoEnt,
                data: Vec::new(),
            },
        })),
        Request::ClearMeter { pid } => Ok(Some(ack(p.setmeter(
            PidSel::Pid(pid),
            FlagSel::None,
            SockSel::None,
        )))),
        Request::WriteFile { path, data } => {
            p.machine().fs().write(&path, data);
            Ok(Some(Reply::Ack {
                status: RpcStatus::Ok,
            }))
        }
        Request::SendInput { pid, data } => {
            let fd = procs.lock().get(&pid).and_then(|i| i.stdin_fd);
            Ok(Some(match fd {
                Some(fd) => ack(p.write(fd, &data).map(|_| ())),
                None => Reply::Ack {
                    status: RpcStatus::Srch,
                },
            }))
        }
        Request::QueryProc { pid } => Ok(Some(match p.machine().proc_state(pid) {
            Some(state) => Reply::ProcStatus {
                status: RpcStatus::Ok,
                state: match state {
                    RunState::Zombie(TermReason::Normal) => 0,
                    RunState::Zombie(TermReason::Killed) => 1,
                    RunState::Stopped => 2,
                    RunState::Embryo | RunState::Running => 3,
                },
            },
            None => Reply::ProcStatus {
                status: RpcStatus::Srch,
                state: 0,
            },
        })),
        Request::ListFiles { prefix } => Ok(Some(Reply::FileList {
            status: RpcStatus::Ok,
            names: p.machine().fs().list(&prefix),
        })),
        // Tagged is unwrapped by `serve_one` before dispatch; one
        // arriving here is a protocol violation (nested wrapping is
        // also rejected at decode time).
        Request::Tagged { .. } => Ok(Some(Reply::Ack {
            status: RpcStatus::Fail,
        })),
        // One-way messages are controller-bound; a daemon receiving
        // them ignores them.
        Request::StateChange { .. } | Request::IoData { .. } => Ok(None),
    }
}

/// Connects a stream socket to the filter on the shared backoff
/// policy — a just-created filter may not have bound its port yet.
fn connect_filter(p: &Proc, host: &str, port: u16) -> SysResult<Fd> {
    connect_backoff(p, host, port, Backoff::standard())
}

/// Where a meter connection should really go: the machine-local edge
/// pre-filter when one is registered (selection happens before the
/// network, only accepted records travel upstream), otherwise the
/// filter the request named.
fn filter_target(
    p: &Proc,
    edges: &EdgeRegistry,
    filter_host: &str,
    filter_port: u16,
) -> (String, u16) {
    match *edges.lock() {
        Some((_, eport)) => (p.machine().name().to_owned(), eport),
        None => (filter_host.to_owned(), filter_port),
    }
}

fn ack<T>(r: SysResult<T>) -> Reply {
    match r {
        Ok(_) => Reply::Ack {
            status: RpcStatus::Ok,
        },
        Err(e) => Reply::Ack {
            status: sys_status(&e),
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn create_process(
    p: &Proc,
    procs: &Arc<Mutex<HashMap<Pid, ProcInfo>>>,
    edges: &EdgeRegistry,
    filename: &str,
    params: Vec<String>,
    filter_port: u16,
    filter_host: &str,
    meter_flags: MeterFlags,
    control_port: u16,
    control_host: &str,
    redirect_io: bool,
    stdin_file: Option<String>,
) -> SysResult<Reply> {
    // The meter connection: "the meterdaemon creates its socket by
    // calling socket(), and initiates the connection to the filter.
    // Once the connection is established, the daemon calls setmeter(),
    // passing to it the connected socket descriptor." (§4.1)
    let meter_sock = if meter_flags.meters_anything() || filter_port != 0 {
        let (host, port) = filter_target(p, edges, filter_host, filter_port);
        match connect_filter(p, &host, port) {
            Ok(s) => Some(s),
            Err(e) => {
                return Ok(Reply::Create {
                    pid: Pid(0),
                    status: sys_status(&e),
                });
            }
        }
    } else {
        None
    };

    // The stdio gateway (§3.5.2): one socketpair; the child's stdio
    // descriptors all point at its end.
    let stdio = if redirect_io {
        let (ours, theirs) = p.socketpair()?;
        Some((ours, theirs))
    } else {
        None
    };

    let spawned = p.spawn_file(filename, params, stdio.map(|(_, theirs)| theirs));
    let pid = match spawned {
        Ok(pid) => pid,
        Err(e) => {
            if let Some(s) = meter_sock {
                let _ = p.close(s);
            }
            if let Some((a, b)) = stdio {
                let _ = p.close(a);
                let _ = p.close(b);
            }
            return Ok(Reply::Create {
                pid: Pid(0),
                status: sys_status(&e),
            });
        }
    };

    if let Some(s) = meter_sock {
        p.setmeter(PidSel::Pid(pid), FlagSel::Set(meter_flags), SockSel::Fd(s))?;
        p.close(s)?;
    }

    let mut stdin_fd = None;
    if let Some((ours, theirs)) = stdio {
        // The child holds `theirs` through its stdio slots.
        p.close(theirs)?;
        stdin_fd = Some(ours);
        // Standard input from a file (§3.5.2): the daemon opens the
        // (already-copied) file and feeds it down the gateway, then
        // half-closes so the process sees end-of-file. The reverse
        // direction — the process's stdout — keeps flowing.
        if let Some(path) = &stdin_file {
            match p.machine().fs().read(path) {
                Some(contents) => {
                    p.write(ours, &contents)?;
                    p.shutdown_write(ours)?;
                    stdin_fd = None; // no terminal input possible now
                }
                None => {
                    // The input file is missing: fail the create.
                    let _ = p.kill(pid, Sig::Kill);
                    let _ = p.close(ours);
                    return Ok(Reply::Create {
                        pid: Pid(0),
                        status: RpcStatus::NoEnt,
                    });
                }
            }
        }
        // Output forwarder: reads the gateway and relays each chunk to
        // the controller over a fresh connection, mirroring the
        // daemon's temporary-connection style.
        let fwd_host = control_host.to_owned();
        let fwd_port = control_port;
        p.fork_with(move |c| {
            loop {
                let data = c.read(ours, 1024)?;
                if data.is_empty() {
                    break;
                }
                let _ = notify(&c, &fwd_host, fwd_port, &Request::IoData { pid, data });
            }
            Ok(())
        })?;
    }

    procs.lock().insert(
        pid,
        ProcInfo {
            control_host: control_host.to_owned(),
            control_port,
            stdin_fd,
        },
    );
    Ok(Reply::Create {
        pid,
        status: RpcStatus::Ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(n: u8) -> Vec<u8> {
        vec![n; 4]
    }

    #[test]
    fn dedup_holds_within_the_window() {
        let mut cache = ReplyCache::default();
        for id in 0..REPLY_CACHE_PER_CLIENT as u64 {
            cache.insert("inet:1", id, reply(id as u8));
        }
        // Every id in the window replays its original reply — a retry
        // is never re-executed.
        for id in 0..REPLY_CACHE_PER_CLIENT as u64 {
            assert_eq!(cache.get("inet:1", id), Some(reply(id as u8)), "id {id}");
        }
        // Re-inserting an id keeps the first reply's bytes canonical
        // for LRU purposes and does not grow the window.
        cache.insert("inet:1", 0, reply(99));
        assert_eq!(cache.clients["inet:1"].order.len(), REPLY_CACHE_PER_CLIENT);
    }

    #[test]
    fn per_client_lru_evicts_coldest_id_first() {
        let mut cache = ReplyCache::default();
        for id in 0..REPLY_CACHE_PER_CLIENT as u64 {
            cache.insert("inet:1", id, reply(id as u8));
        }
        // Touch id 0 so id 1 becomes the coldest.
        assert!(cache.get("inet:1", 0).is_some());
        cache.insert("inet:1", REPLY_CACHE_PER_CLIENT as u64, reply(7));
        assert!(
            cache.get("inet:1", 0).is_some(),
            "recently used id survives"
        );
        assert_eq!(cache.get("inet:1", 1), None, "coldest id evicted");
        assert_eq!(
            cache.clients["inet:1"].map.len(),
            REPLY_CACHE_PER_CLIENT,
            "window stays capped"
        );
    }

    #[test]
    fn one_chatty_client_cannot_flush_anothers_window() {
        let mut cache = ReplyCache::default();
        cache.insert("inet:1", 42, reply(1));
        // Another controller (a takeover doing a large acquire, say)
        // burns far more ids than one window holds.
        for id in 0..10 * REPLY_CACHE_PER_CLIENT as u64 {
            cache.insert("inet:2", id, reply(2));
        }
        assert_eq!(
            cache.get("inet:1", 42),
            Some(reply(1)),
            "first client's dedup window is intact"
        );
        assert_eq!(cache.clients["inet:2"].map.len(), REPLY_CACHE_PER_CLIENT);
    }

    #[test]
    fn client_population_is_lru_bounded() {
        let mut cache = ReplyCache::default();
        for c in 0..REPLY_CACHE_CLIENTS as u32 {
            cache.insert(&format!("inet:{c}"), 1, reply(c as u8));
        }
        // Keep client 0 warm, then overflow the population.
        assert!(cache.get("inet:0", 1).is_some());
        cache.insert("inet:999", 1, reply(9));
        assert_eq!(cache.clients.len(), REPLY_CACHE_CLIENTS);
        assert!(cache.get("inet:0", 1).is_some(), "warm client survives");
        assert_eq!(cache.get("inet:1", 1), None, "coldest client evicted");
    }

    #[test]
    fn client_key_ignores_ephemeral_port() {
        let a = client_key(&SockName::Inet {
            host: 3,
            port: 1024,
        });
        let b = client_key(&SockName::Inet {
            host: 3,
            port: 2771,
        });
        assert_eq!(a, b, "same host, different connections: one client");
        let c = client_key(&SockName::Inet {
            host: 4,
            port: 1024,
        });
        assert_ne!(a, c);
    }
}
