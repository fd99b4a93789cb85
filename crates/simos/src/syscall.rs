//! The system-call interface: what a simulated program can do.
//!
//! A [`Proc`] is handed to every program body and plays the role of
//! the 4.2BSD system-call trap: `socket`, `bind`, `listen`, `connect`,
//! `accept`, `send`/`sendto`, `recv`/`recvfrom`, `read`, `write`,
//! `close`, `dup`, `socketpair`, `fork`, signals, `wait`, and the
//! paper's `setmeter(2)` (Appendix C).
//!
//! Metering is **transparent**: none of these interfaces change when a
//! process is metered, and the meter connection never appears in the
//! descriptor table (§2.2, §3.2).

use crate::cluster::Cluster;
use crate::error::{SysError, SysResult};
use crate::machine::{FlushPlan, Machine, Wait};
use crate::metering;
use crate::process::{Desc, Pid, RunState, Sig, Uid};
use crate::socket::{
    Dgram, Domain, PendingConn, RemoteSock, SockId, SockKind, SockType, Socket, StreamState,
};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFlags, MeterFork,
    MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, SockName, TermReason,
};
use dpm_simnet::HostId;
use std::sync::Arc;

/// A file descriptor.
pub type Fd = u32;

/// Where to bind a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindTo {
    /// An Internet-domain port on this machine.
    Port(u16),
    /// A UNIX-domain path on this machine.
    Path(String),
}

/// Process selector for [`Proc::setmeter`] (the manual page's
/// `SELF or an integer process id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PidSel {
    /// The calling process (`-1` in the C interface).
    Current,
    /// A specific process on the same machine.
    Pid(Pid),
}

/// Flag selector for [`Proc::setmeter`]
/// (`NONE, NO_CHANGE or flags indicating the events to be metered`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagSel {
    /// Turn all flags off.
    None,
    /// Leave the flags unchanged.
    NoChange,
    /// Replace the mask with these flags.
    Set(MeterFlags),
}

/// Meter-connection selector for [`Proc::setmeter`]
/// (`NONE, NO_CHANGE or a meter connection socket`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockSel {
    /// Close the meter connection, if one exists.
    None,
    /// Leave the meter connection unchanged.
    NoChange,
    /// Install the socket behind this descriptor *of the calling
    /// process* as the target's meter socket. The descriptor is
    /// duplicated for the metered process but not placed in its
    /// descriptor table (§3.2).
    Fd(Fd),
}

/// Handle through which a simulated process makes system calls.
///
/// Cloning a `Proc` models a second thread of control in the same
/// process (the meterdaemon uses one for its SIGCHLD-style handler);
/// all clones share the one process-table entry.
#[derive(Clone)]
pub struct Proc {
    machine: Arc<Machine>,
    pid: Pid,
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("pid", &self.pid)
            .field("machine", &self.machine.name())
            .finish()
    }
}

impl Proc {
    pub(crate) fn new(machine: Arc<Machine>, pid: Pid) -> Proc {
        Proc { machine, pid }
    }

    /// The calling process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The owning user.
    pub(crate) fn uid(&self) -> Uid {
        self.machine.proc_uid(self.pid).unwrap_or_default()
    }

    /// The machine this process runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The literal host name of this process's machine.
    pub fn hostname(&self) -> &str {
        self.machine.name()
    }

    /// The cluster.
    pub fn cluster(&self) -> Arc<Cluster> {
        self.machine.cluster()
    }

    // ------------------------------------------------------------------
    // Prologue
    // ------------------------------------------------------------------

    /// System-call prologue: honors stop/kill control, synchronizes
    /// the process's virtual time with global time, charges the base
    /// system-call cost, and returns the fake "PC" (the syscall
    /// ordinal) recorded in meter messages.
    fn enter(&self) -> SysResult<u32> {
        // Block while stopped; abort when killed.
        self.machine.wait_on(self.pid, |_k| Ok(Wait::Ready(())))?;
        let cost = self.cluster().config().costs.syscall_us;
        let global = self.machine.clock().global().clone();
        let mut k = self.machine.kern.lock();
        let p = k.proc_mut(self.pid)?;
        p.local_us = p.local_us.max(global.now_us());
        p.local_us += cost;
        p.cpu_us += cost;
        p.syscall_count += 1;
        let pc = p.syscall_count;
        let local = p.local_us;
        drop(k);
        global.advance_to_us(local);
        Ok(pc)
    }

    /// Burns `ms` milliseconds of CPU — the program's "computation"
    /// (internal events, §1.2). Advances the process's clock and
    /// charges its CPU accounting.
    ///
    /// # Errors
    ///
    /// [`SysError::Killed`] if a kill signal is pending.
    pub fn compute_ms(&self, ms: u64) -> SysResult<()> {
        self.compute_us(ms * 1000)
    }

    /// Like [`Proc::compute_ms`] with microsecond resolution.
    pub fn compute_us(&self, us: u64) -> SysResult<()> {
        self.machine.wait_on(self.pid, |_k| Ok(Wait::Ready(())))?;
        let global = self.machine.clock().global().clone();
        let mut k = self.machine.kern.lock();
        let p = k.proc_mut(self.pid)?;
        p.local_us = p.local_us.max(global.now_us());
        p.local_us += us;
        p.cpu_us += us;
        let local = p.local_us;
        drop(k);
        global.advance_to_us(local);
        Ok(())
    }

    /// Sleeps `ms` milliseconds of virtual time without charging CPU.
    ///
    /// # Errors
    ///
    /// [`SysError::Killed`] if a kill signal is pending.
    pub fn sleep_ms(&self, ms: u64) -> SysResult<()> {
        self.machine.wait_on(self.pid, |_k| Ok(Wait::Ready(())))?;
        let global = self.machine.clock().global().clone();
        let mut k = self.machine.kern.lock();
        let p = k.proc_mut(self.pid)?;
        p.local_us = p.local_us.max(global.now_us()) + ms * 1000;
        let local = p.local_us;
        drop(k);
        global.advance_to_us(local);
        Ok(())
    }

    /// The machine's local clock in milliseconds as this process sees
    /// it — what `time(2)` would return.
    pub fn time_ms(&self) -> u32 {
        let k = self.machine.kern.lock();
        let local = k
            .procs
            .get(&self.pid)
            .map(|p| p.local_us)
            .unwrap_or_default();
        self.machine.clock().at_ms(local)
    }

    fn finish(&self, plans: Vec<FlushPlan>) {
        if !plans.is_empty() {
            let cluster = self.cluster();
            self.machine.run_plans(&cluster, plans);
        }
    }

    // ------------------------------------------------------------------
    // Socket creation and naming
    // ------------------------------------------------------------------

    /// `socket(2)`: creates an endpoint of communication.
    pub fn socket(&self, domain: Domain, stype: SockType) -> SysResult<Fd> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let mut plans = Vec::new();
        let fd = {
            let mut k = self.machine.kern.lock();
            let sid = k.alloc_sock(Socket::new(domain, stype));
            let p = k.proc_mut(self.pid)?;
            let fd = p.alloc_fd(Desc::Sock(sid));
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::SockCrt(MeterSockCrt {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                    domain: domain.as_u32(),
                    sock_type: stype.as_u32(),
                    protocol: 0,
                }),
            ));
            fd
        };
        self.finish(plans);
        Ok(fd)
    }

    /// `bind(2)`: gives the socket a name so others can send to it.
    ///
    /// # Errors
    ///
    /// `EBADF` for a bad descriptor, `EINVAL` if already bound or the
    /// address kind does not match the socket's domain, `EADDRINUSE`
    /// if the port or path is taken.
    pub fn bind(&self, fd: Fd, to: BindTo) -> SysResult<SockName> {
        self.enter()?;
        let host = self.machine.id().0;
        let mut k = self.machine.kern.lock();
        let sid = k.fd_sock(self.pid, fd)?;
        let name = match (&to, k.sock_mut(sid)?.domain) {
            (BindTo::Port(p), Domain::Inet) => SockName::Inet { host, port: *p },
            (BindTo::Path(p), Domain::Unix) => SockName::UnixPath(p.clone()),
            _ => return Err(SysError::Einval),
        };
        if k.sock_mut(sid)?.name.is_some() {
            return Err(SysError::Einval);
        }
        match &name {
            SockName::Inet { port, .. } => {
                if k.inet_binds.contains_key(port) {
                    return Err(SysError::Eaddrinuse);
                }
                k.inet_binds.insert(*port, sid);
            }
            SockName::UnixPath(p) => {
                if k.unix_binds.contains_key(p) {
                    return Err(SysError::Eaddrinuse);
                }
                k.unix_binds.insert(p.clone(), sid);
            }
            SockName::Internal(_) => unreachable!("bind never makes internal names"),
        }
        k.sock_mut(sid)?.name = Some(name.clone());
        Ok(name)
    }

    /// Auto-binds an unbound socket so it has a name to appear in
    /// meter records and datagram sources. Internet sockets get an
    /// ephemeral port; UNIX-domain sockets get an internally generated
    /// unique name (as socketpairs do, §4.1).
    fn autobind(
        k: &mut crate::machine::KernState,
        cluster: &Cluster,
        host: u32,
        sid: SockId,
    ) -> SysResult<SockName> {
        if let Some(n) = &k.sock_mut(sid)?.name {
            return Ok(n.clone());
        }
        let domain = k.sock_mut(sid)?.domain;
        let name = match domain {
            Domain::Inet => {
                let port = k.eph_port();
                k.inet_binds.insert(port, sid);
                SockName::Inet { host, port }
            }
            Domain::Unix => SockName::Internal(cluster.alloc_internal()),
        };
        k.sock_mut(sid)?.name = Some(name.clone());
        Ok(name)
    }

    /// `listen(2)`: marks a stream socket as accepting connections,
    /// with a queue of at most `backlog` pending requests.
    ///
    /// # Errors
    ///
    /// `EOPNOTSUPP` on a datagram socket, `EINVAL` if the socket is
    /// connected or unbound.
    pub fn listen(&self, fd: Fd, backlog: usize) -> SysResult<()> {
        self.enter()?;
        let mut k = self.machine.kern.lock();
        let sid = k.fd_sock(self.pid, fd)?;
        let sock = k.sock_mut(sid)?;
        if sock.name.is_none() {
            return Err(SysError::Einval);
        }
        match &mut sock.kind {
            SockKind::Stream { state, .. } => match state {
                StreamState::Idle => {
                    *state = StreamState::Listening {
                        backlog: backlog.max(1),
                        pending: Default::default(),
                    };
                    Ok(())
                }
                StreamState::Listening { backlog: b, .. } => {
                    *b = backlog.max(1);
                    Ok(())
                }
                _ => Err(SysError::Einval),
            },
            SockKind::Datagram { .. } => Err(SysError::Eopnotsupp),
        }
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// `connect(2)` by literal host name and port, the way processes
    /// exchange addresses in the measurement system (§3.5.4).
    ///
    /// # Errors
    ///
    /// `ENOENT` for an unknown host, plus everything
    /// [`Proc::connect`] can return.
    pub fn connect_host(&self, fd: Fd, host: &str, port: u16) -> SysResult<()> {
        let hid = self.cluster().resolve_host(host)?;
        self.connect(fd, &SockName::Inet { host: hid.0, port })
    }

    /// `connect(2)`: initiates a connection on a stream socket
    /// (blocking until accepted or refused), or sets the default
    /// destination of a datagram socket.
    ///
    /// # Errors
    ///
    /// `ECONNREFUSED` when nothing is listening at `name` or its
    /// pending queue is full; `EISCONN` if already connected;
    /// `EINVAL`/`EBADF` for argument problems.
    pub fn connect(&self, fd: Fd, name: &SockName) -> SysResult<()> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let my_host = self.machine.id();

        // Phase 1 (own kernel): validate, auto-bind, mark Connecting.
        let (sid, src_name, stype, t_send) = {
            let mut k = self.machine.kern.lock();
            let sid = k.fd_sock(self.pid, fd)?;
            let stype = k.sock_mut(sid)?.stype;
            let src_name = Self::autobind(&mut k, &cluster, my_host.0, sid)?;
            if stype == SockType::Stream {
                let sock = k.sock_mut(sid)?;
                match &mut sock.kind {
                    SockKind::Stream { state, .. } => match state {
                        StreamState::Idle | StreamState::Refused => {
                            *state = StreamState::Connecting
                        }
                        StreamState::Connected { .. } => return Err(SysError::Eisconn),
                        _ => return Err(SysError::Einval),
                    },
                    SockKind::Datagram { .. } => unreachable!(),
                }
            }
            let t_send = k.proc_ref(self.pid)?.local_us;
            (sid, src_name, stype, t_send)
        };

        if stype == SockType::Datagram {
            // Datagram connect: remember the default destination.
            let mut plans = Vec::new();
            {
                let mut k = self.machine.kern.lock();
                if let SockKind::Datagram { default_peer, .. } = &mut k.sock_mut(sid)?.kind {
                    *default_peer = Some(name.clone());
                }
                plans.extend(metering::emit(
                    &mut k,
                    &self.machine,
                    &cluster,
                    self.pid,
                    MeterBody::Connect(MeterConnect {
                        pid: self.pid.0,
                        pc,
                        sock: sid.0,
                        sock_name: Some(src_name),
                        peer_name: Some(name.clone()),
                    }),
                ));
            }
            self.finish(plans);
            return Ok(());
        }

        // Phase 2: park a connection request at the listener.
        let dst_machine = self.route(&cluster, name)?;
        if cluster.connect_blocked(my_host, dst_machine.id(), t_send) {
            // An injected partition refuses new connections outright;
            // the caller sees the same error as a dead listener and is
            // expected to retry after the heal.
            let mut k = self.machine.kern.lock();
            if let Ok(sock) = k.sock_mut(sid) {
                if let SockKind::Stream { state, .. } = &mut sock.kind {
                    *state = StreamState::Idle;
                }
            }
            return Err(SysError::Econnrefused);
        }
        let latency = cluster.sample_latency(my_host, dst_machine.id());
        let parked = dst_machine.push_pending(
            name,
            PendingConn {
                from: RemoteSock {
                    host: my_host,
                    sock: sid,
                },
                peer_name: src_name.clone(),
                visible_at_us: t_send + latency,
            },
        );
        if let Err(e) = parked {
            let mut k = self.machine.kern.lock();
            if let Ok(sock) = k.sock_mut(sid) {
                if let SockKind::Stream { state, .. } = &mut sock.kind {
                    *state = StreamState::Idle;
                }
            }
            return Err(e);
        }

        // Phase 3: block until the acceptor completes (or refuses) us.
        let sid_copy = sid;
        self.machine.wait_on(self.pid, move |k| {
            let floor = match k.socks.get(&sid_copy) {
                None => return Err(SysError::Ebadf),
                Some(s) => match &s.kind {
                    SockKind::Stream {
                        state, rx_floor_us, ..
                    } => match state {
                        // A peer may accept and close before we run.
                        StreamState::Connected { .. } | StreamState::PeerClosed { .. } => {
                            *rx_floor_us
                        }
                        StreamState::Refused => return Err(SysError::Econnrefused),
                        StreamState::Connecting => return Ok(Wait::Block),
                        _ => return Err(SysError::Einval),
                    },
                    SockKind::Datagram { .. } => return Err(SysError::Einval),
                },
            };
            let p = k.proc_mut(self.pid)?;
            p.local_us = p.local_us.max(floor);
            Ok(Wait::Ready(()))
        })?;

        // Phase 4: meter the connect.
        let mut plans = Vec::new();
        {
            let mut k = self.machine.kern.lock();
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::Connect(MeterConnect {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                    sock_name: Some(src_name),
                    peer_name: Some(name.clone()),
                }),
            ));
        }
        self.finish(plans);
        Ok(())
    }

    /// `accept(2)`: blocks until a connection request arrives on the
    /// listening socket `fd`, then creates and returns the new
    /// connection socket and the connector's name. "The accepting
    /// process's original socket is only used for the establishment of
    /// connections" (§3.1).
    ///
    /// # Errors
    ///
    /// `EINVAL` if the socket is not listening; `EBADF` for a bad
    /// descriptor; [`SysError::Killed`] if killed while blocked.
    pub fn accept(&self, fd: Fd) -> SysResult<(Fd, SockName)> {
        self.accept_inner(fd, true)
            .map(|opt| opt.expect("blocking accept returned None"))
    }

    /// Non-blocking `accept`: returns `Ok(None)` when no connection
    /// request is pending (or the process is currently stopped).
    ///
    /// # Errors
    ///
    /// As [`Proc::accept`].
    pub fn accept_nb(&self, fd: Fd) -> SysResult<Option<(Fd, SockName)>> {
        self.accept_inner(fd, false)
    }

    fn accept_inner(&self, fd: Fd, blocking: bool) -> SysResult<Option<(Fd, SockName)>> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let my_host = self.machine.id();

        let cond = |k: &mut crate::machine::KernState| {
            let sid = k.fd_sock(self.pid, fd)?;
            let listener_name = {
                let sock = k.sock_mut(sid)?;
                sock.name.clone().ok_or(SysError::Einval)?
            };
            let pend = {
                let sock = k.sock_mut(sid)?;
                match &mut sock.kind {
                    SockKind::Stream {
                        state: StreamState::Listening { pending, .. },
                        ..
                    } => match pending.pop_front() {
                        Some(p) => p,
                        None => return Ok(Wait::Block),
                    },
                    _ => return Err(SysError::Einval),
                }
            };
            // Jump to the request's arrival time (discrete-event style).
            let local = {
                let p = k.proc_mut(self.pid)?;
                p.local_us = p.local_us.max(pend.visible_at_us);
                p.local_us
            };
            let new_sid = k.alloc_sock(Socket {
                name: Some(listener_name.clone()),
                kind: SockKind::Stream {
                    state: StreamState::Connected {
                        peer: pend.from,
                        peer_name: pend.peer_name.clone(),
                    },
                    rx: Default::default(),
                    rx_floor_us: local,
                    rx_eof: false,
                    wr_closed: false,
                },
                ..Socket::new(Domain::Inet, SockType::Stream)
            });
            let new_fd = k.proc_mut(self.pid)?.alloc_fd(Desc::Sock(new_sid));
            Ok(Wait::Ready((
                sid,
                new_sid,
                new_fd,
                listener_name,
                pend,
                local,
            )))
        };

        let got = if blocking {
            Some(self.machine.wait_on(self.pid, cond)?)
        } else {
            self.machine.poll_on(self.pid, cond)?
        };
        let Some((sid, new_sid, new_fd, listener_name, pend, local)) = got else {
            return Ok(None);
        };
        self.machine.clock().global().advance_to_us(local);

        // Complete the connector's half.
        let latency = cluster.sample_latency(my_host, pend.from.host);
        let completed = cluster
            .machine_by_id(pend.from.host)
            .map(|m| {
                m.complete_connection(
                    pend.from.sock,
                    RemoteSock {
                        host: my_host,
                        sock: new_sid,
                    },
                    listener_name.clone(),
                    local + latency,
                )
            })
            .unwrap_or(false);
        if !completed {
            // The connector vanished mid-handshake; the new socket is
            // immediately half-closed.
            self.machine.peer_closed(new_sid);
        }

        // Meter the accept.
        let mut plans = Vec::new();
        {
            let mut k = self.machine.kern.lock();
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::Accept(MeterAccept {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                    new_sock: new_sid.0,
                    sock_name: Some(listener_name),
                    peer_name: Some(pend.peer_name.clone()),
                }),
            ));
        }
        self.finish(plans);
        Ok(Some((new_fd, pend.peer_name)))
    }

    /// `socketpair(2)`: a pair of connected stream sockets with
    /// internally generated unique names. Meters as two creates plus a
    /// connect and an accept — "all four messages are produced" (§3.2).
    pub fn socketpair(&self) -> SysResult<(Fd, Fd)> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let my_host = self.machine.id();
        let mut plans = Vec::new();
        let (fd_a, fd_b) = {
            let mut k = self.machine.kern.lock();
            let name_a = SockName::Internal(cluster.alloc_internal());
            let name_b = SockName::Internal(cluster.alloc_internal());
            let local = k.proc_ref(self.pid)?.local_us;
            let sid_a = k.alloc_sock(Socket {
                name: Some(name_a.clone()),
                ..Socket::new(Domain::Unix, SockType::Stream)
            });
            let sid_b = k.alloc_sock(Socket {
                name: Some(name_b.clone()),
                ..Socket::new(Domain::Unix, SockType::Stream)
            });
            for (sid, peer_sid, peer_name) in [
                (sid_a, sid_b, name_b.clone()),
                (sid_b, sid_a, name_a.clone()),
            ] {
                let sock = k.sock_mut(sid)?;
                sock.kind = SockKind::Stream {
                    state: StreamState::Connected {
                        peer: RemoteSock {
                            host: my_host,
                            sock: peer_sid,
                        },
                        peer_name,
                    },
                    rx: Default::default(),
                    rx_floor_us: local,
                    rx_eof: false,
                    wr_closed: false,
                };
            }
            let p = k.proc_mut(self.pid)?;
            let fd_a = p.alloc_fd(Desc::Sock(sid_a));
            let fd_b = p.alloc_fd(Desc::Sock(sid_b));
            for body in [
                MeterBody::SockCrt(MeterSockCrt {
                    pid: self.pid.0,
                    pc,
                    sock: sid_a.0,
                    domain: Domain::Unix.as_u32(),
                    sock_type: SockType::Stream.as_u32(),
                    protocol: 0,
                }),
                MeterBody::SockCrt(MeterSockCrt {
                    pid: self.pid.0,
                    pc,
                    sock: sid_b.0,
                    domain: Domain::Unix.as_u32(),
                    sock_type: SockType::Stream.as_u32(),
                    protocol: 0,
                }),
                MeterBody::Connect(MeterConnect {
                    pid: self.pid.0,
                    pc,
                    sock: sid_a.0,
                    sock_name: Some(name_a.clone()),
                    peer_name: Some(name_b.clone()),
                }),
                MeterBody::Accept(MeterAccept {
                    pid: self.pid.0,
                    pc,
                    sock: sid_b.0,
                    new_sock: sid_b.0,
                    sock_name: Some(name_b),
                    peer_name: Some(name_a),
                }),
            ] {
                plans.extend(metering::emit(
                    &mut k,
                    &self.machine,
                    &cluster,
                    self.pid,
                    body,
                ));
            }
            (fd_a, fd_b)
        };
        self.finish(plans);
        Ok((fd_a, fd_b))
    }

    fn route(&self, cluster: &Arc<Cluster>, name: &SockName) -> SysResult<Arc<Machine>> {
        match name {
            SockName::Inet { host, .. } => cluster
                .machine_by_id(HostId(*host))
                .ok_or(SysError::Econnrefused),
            SockName::UnixPath(_) => Ok(self.machine.clone()),
            SockName::Internal(_) => Err(SysError::Einval),
        }
    }

    // ------------------------------------------------------------------
    // Data transfer
    // ------------------------------------------------------------------

    /// `send(2)`/`write(2)` on a connected socket (or the console for
    /// un-redirected stdio). All the `write` varieties are one meter
    /// event (§3.2). Returns the number of bytes sent.
    ///
    /// # Errors
    ///
    /// `EPIPE` if the peer has closed; `ENOTCONN` on an unconnected
    /// socket.
    pub fn write(&self, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let desc = {
            let k = self.machine.kern.lock();
            k.proc_ref(self.pid)?.desc(fd).ok_or(SysError::Ebadf)?
        };
        match desc {
            Desc::Console => {
                let mut k = self.machine.kern.lock();
                k.proc_mut(self.pid)?.console_out.extend_from_slice(data);
                Ok(data.len())
            }
            Desc::Sock(sid) => self.write_sock(pc, &cluster, sid, data),
        }
    }

    fn write_sock(
        &self,
        pc: u32,
        cluster: &Arc<Cluster>,
        sid: SockId,
        data: &[u8],
    ) -> SysResult<usize> {
        let my_host = self.machine.id();
        enum Out {
            Stream { peer: RemoteSock, visible: u64 },
            Dgram { dest: SockName, t_send: u64 },
        }
        let mut plans = Vec::new();
        let out = {
            let mut k = self.machine.kern.lock();
            let sock = k.sock_mut(sid)?;
            let out = match &sock.kind {
                SockKind::Stream {
                    state, wr_closed, ..
                } => match state {
                    StreamState::Connected { .. } if *wr_closed => return Err(SysError::Epipe),
                    StreamState::Connected { peer, .. } => {
                        let peer = *peer;
                        let latency = cluster.sample_latency(my_host, peer.host);
                        let t_send = k.proc_ref(self.pid)?.local_us;
                        // A partition delays stream bytes until its heal
                        // time; the stream stays reliable and ordered.
                        let extra = cluster.stream_extra(my_host, peer.host, t_send);
                        Out::Stream {
                            peer,
                            visible: t_send + latency + extra,
                        }
                    }
                    StreamState::PeerClosed { .. } => return Err(SysError::Epipe),
                    _ => return Err(SysError::Enotconn),
                },
                SockKind::Datagram { default_peer, .. } => match default_peer {
                    Some(d) => {
                        let dest = d.clone();
                        let t_send = k.proc_ref(self.pid)?.local_us;
                        Out::Dgram { dest, t_send }
                    }
                    None => return Err(SysError::Enotconn),
                },
            };
            // One send meter event, name available only for datagrams
            // ("when one writes across a connection, the name of the
            // recipient is not available", §4.1).
            let dest_name = match &out {
                Out::Stream { .. } => None,
                Out::Dgram { dest, .. } => Some(dest.clone()),
            };
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                cluster,
                self.pid,
                MeterBody::Send(MeterSendMsg {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                    msg_length: data.len() as u32,
                    dest_name,
                }),
            ));
            out
        };
        self.finish(plans);
        match out {
            Out::Stream { peer, visible } => {
                cluster
                    .stats
                    .record_frame(data.len(), peer.host != self.machine.id());
                let delivered = cluster
                    .machine_by_id(peer.host)
                    .map(|m| m.deliver_segment(peer.sock, data.to_vec(), visible))
                    .unwrap_or(false);
                if delivered {
                    Ok(data.len())
                } else {
                    Err(SysError::Epipe)
                }
            }
            Out::Dgram { dest, t_send } => {
                self.ship_dgram(cluster, sid, &dest, data, t_send)?;
                Ok(data.len())
            }
        }
    }

    /// `sendto(2)`: sends one datagram to a named socket.
    ///
    /// # Errors
    ///
    /// `EOPNOTSUPP` on a stream socket; `EINVAL` for an internal name;
    /// `EMSGSIZE` for datagrams over 64 KiB.
    pub fn sendto(&self, fd: Fd, data: &[u8], dest: &SockName) -> SysResult<usize> {
        let pc = self.enter()?;
        if data.len() > 65536 {
            return Err(SysError::Emsgsize);
        }
        let cluster = self.cluster();
        let my_host = self.machine.id().0;
        let mut plans = Vec::new();
        let (sid, t_send) = {
            let mut k = self.machine.kern.lock();
            let sid = k.fd_sock(self.pid, fd)?;
            if k.sock_mut(sid)?.stype != SockType::Datagram {
                return Err(SysError::Eopnotsupp);
            }
            Self::autobind(&mut k, &cluster, my_host, sid)?;
            let t_send = k.proc_ref(self.pid)?.local_us;
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::Send(MeterSendMsg {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                    msg_length: data.len() as u32,
                    dest_name: Some(dest.clone()),
                }),
            ));
            (sid, t_send)
        };
        self.finish(plans);
        self.ship_dgram(&cluster, sid, dest, data, t_send)?;
        Ok(data.len())
    }

    /// Routes a datagram through the loss/latency model and enqueues
    /// it at the destination (if it survives).
    fn ship_dgram(
        &self,
        cluster: &Arc<Cluster>,
        sid: SockId,
        dest: &SockName,
        data: &[u8],
        t_send: u64,
    ) -> SysResult<()> {
        let dst_machine = self.route(cluster, dest).map_err(|_| SysError::Einval)?;
        let src_name = {
            let k = self.machine.kern.lock();
            k.socks.get(&sid).and_then(|s| s.name.clone())
        };
        cluster
            .stats
            .record_frame(data.len(), dst_machine.id() != self.machine.id());
        // The fault injector resolves the send into zero (lost), one,
        // or two (duplicated) deliveries; absent an injected fault the
        // random loss/latency model decides as before.
        let deliveries = cluster.datagram_deliveries(self.machine.id(), dst_machine.id(), t_send);
        if deliveries.is_empty() {
            cluster.stats.record_loss();
            return Ok(()); // the sender cannot tell (§3.1)
        }
        let dst_sid = {
            let k = dst_machine.kern.lock();
            match dest {
                SockName::Inet { port, .. } => k.inet_binds.get(port).copied(),
                SockName::UnixPath(p) => k.unix_binds.get(p).copied(),
                SockName::Internal(_) => None,
            }
        };
        if let Some(dst_sid) = dst_sid {
            for latency_us in deliveries {
                dst_machine.deliver_dgram(
                    dst_sid,
                    Dgram {
                        data: data.to_vec(),
                        src: src_name.clone(),
                        visible_at_us: t_send + latency_us,
                    },
                );
            }
        } else {
            // No socket bound at the destination: the datagram
            // disappears, exactly like UDP to a dead port.
            cluster.stats.record_loss();
        }
        Ok(())
    }

    /// `read(2)`/`recv(2)`: reads bytes from a socket or the console,
    /// blocking until something is available. For streams, "as many
    /// bytes as possible are delivered for each read without regard
    /// for whether or not the bytes originated from the same message";
    /// for datagrams each read obtains one complete message (§3.1).
    /// Returns an empty vector at end-of-file.
    ///
    /// # Errors
    ///
    /// `ENOTCONN` for an unconnected stream socket; `EBADF`;
    /// [`SysError::Killed`].
    pub fn read(&self, fd: Fd, max: usize) -> SysResult<Vec<u8>> {
        self.recvfrom_inner(fd, max, true).map(|r| match r {
            Some((data, _)) => data,
            None => unreachable!("blocking read returned None"),
        })
    }

    /// `recvfrom(2)`: like [`Proc::read`] but also reports the
    /// sender's socket name when the kernel knows it (datagrams).
    ///
    /// # Errors
    ///
    /// As [`Proc::read`].
    pub fn recvfrom(&self, fd: Fd, max: usize) -> SysResult<(Vec<u8>, Option<SockName>)> {
        self.recvfrom_inner(fd, max, true)
            .map(|r| r.expect("blocking recvfrom returned None"))
    }

    /// Non-blocking read; `Ok(None)` when nothing is available yet.
    ///
    /// # Errors
    ///
    /// As [`Proc::read`].
    pub fn read_nb(&self, fd: Fd, max: usize) -> SysResult<Option<Vec<u8>>> {
        self.recvfrom_inner(fd, max, false)
            .map(|r| r.map(|(data, _)| data))
    }

    /// Non-blocking `recvfrom`; `Ok(None)` when nothing is available.
    ///
    /// # Errors
    ///
    /// As [`Proc::read`].
    pub fn recvfrom_nb(
        &self,
        fd: Fd,
        max: usize,
    ) -> SysResult<Option<(Vec<u8>, Option<SockName>)>> {
        self.recvfrom_inner(fd, max, false)
    }

    /// `select(2)`, read-set only: blocks until at least one of the
    /// given descriptors is readable — data buffered, a connection
    /// request pending on a listener, end-of-file reached, or console
    /// input available — and returns the ready ones in `fds` order.
    ///
    /// The returned descriptors are *hints*, exactly as with the real
    /// call: a subsequent blocking `read`/`accept` on one of them is
    /// guaranteed not to block.
    ///
    /// # Errors
    ///
    /// `EBADF` if any descriptor is invalid; `EINVAL` on an empty set;
    /// [`SysError::Killed`] if killed while blocked.
    pub fn select(&self, fds: &[Fd]) -> SysResult<Vec<Fd>> {
        self.enter()?;
        if fds.is_empty() {
            return Err(SysError::Einval);
        }
        let fds = fds.to_vec();
        let me = self.pid;
        let global = self.machine.clock().global().clone();
        self.machine.wait_on(me, move |k| loop {
            let now = k.proc_ref(me)?.local_us;
            let mut ready = Vec::new();
            let mut earliest: Option<u64> = None;
            for &fd in &fds {
                let desc = k.proc_ref(me)?.desc(fd).ok_or(SysError::Ebadf)?;
                match desc {
                    Desc::Console => {
                        let p = k.proc_ref(me)?;
                        if !p.console_in.is_empty() || p.console_eof {
                            ready.push(fd);
                        }
                    }
                    Desc::Sock(sid) => {
                        let sock = k.socks.get(&sid).ok_or(SysError::Ebadf)?;
                        match &sock.kind {
                            SockKind::Datagram { rx, .. } => {
                                if let Some(t) = rx.iter().map(|d| d.visible_at_us).min() {
                                    if t <= now {
                                        ready.push(fd);
                                    } else {
                                        earliest = Some(earliest.map_or(t, |e: u64| e.min(t)));
                                    }
                                }
                            }
                            SockKind::Stream {
                                state, rx, rx_eof, ..
                            } => {
                                if let StreamState::Listening { pending, .. } = state {
                                    if let Some(t) = pending.iter().map(|p| p.visible_at_us).min() {
                                        if t <= now {
                                            ready.push(fd);
                                        } else {
                                            earliest = Some(earliest.map_or(t, |e: u64| e.min(t)));
                                        }
                                    }
                                } else if let Some(seg) = rx.front() {
                                    if seg.visible_at_us <= now {
                                        ready.push(fd);
                                    } else {
                                        let t = seg.visible_at_us;
                                        earliest = Some(earliest.map_or(t, |e: u64| e.min(t)));
                                    }
                                } else if *rx_eof
                                    || matches!(
                                        state,
                                        StreamState::PeerClosed { .. } | StreamState::Refused
                                    )
                                {
                                    ready.push(fd); // EOF is readable
                                }
                            }
                        }
                    }
                }
            }
            if !ready.is_empty() {
                return Ok(Wait::Ready(ready));
            }
            // Nothing visible yet. If something is in flight, jump to
            // its arrival (discrete-event style) and re-evaluate; only
            // park on the condition variable when truly nothing is
            // coming.
            match earliest {
                Some(t) => {
                    let p = k.proc_mut(me)?;
                    p.local_us = p.local_us.max(t);
                    global.advance_to_us(p.local_us);
                    // fall through the loop and re-evaluate
                }
                None => return Ok(Wait::Block),
            }
        })
    }

    fn recvfrom_inner(
        &self,
        fd: Fd,
        max: usize,
        blocking: bool,
    ) -> SysResult<Option<(Vec<u8>, Option<SockName>)>> {
        let pc = self.enter()?;
        if max == 0 {
            return Ok(Some((Vec::new(), None)));
        }
        let cluster = self.cluster();
        let desc = {
            let k = self.machine.kern.lock();
            k.proc_ref(self.pid)?.desc(fd).ok_or(SysError::Ebadf)?
        };
        let sid = match desc {
            Desc::Console => {
                return self.read_console(max, blocking);
            }
            Desc::Sock(s) => s,
        };

        // The receive *call* is an event of its own (§4.1:
        // `METERRECEIVECALL`, "ready to receive a message").
        let mut plans = Vec::new();
        {
            let mut k = self.machine.kern.lock();
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::RecvCall(MeterRecvCall {
                    pid: self.pid.0,
                    pc,
                    sock: sid.0,
                }),
            ));
        }
        self.finish(plans);

        let cond = |k: &mut crate::machine::KernState| {
            let now_global = self.machine.clock().global().now_us();
            let local = k.proc_ref(self.pid)?.local_us.max(now_global);
            let sock = k.sock_mut(sid)?;
            match &mut sock.kind {
                SockKind::Datagram { rx, .. } => {
                    // Deliver in visibility order, which models
                    // reordering: a delayed datagram is overtaken.
                    let idx = rx
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, d)| d.visible_at_us)
                        .map(|(i, _)| i);
                    match idx {
                        None => Ok(Wait::Block),
                        Some(i) => {
                            let d = rx.remove(i).expect("index valid");
                            let p = k.proc_mut(self.pid)?;
                            p.local_us = p.local_us.max(d.visible_at_us).max(local);
                            // Datagrams are read as complete messages;
                            // each new read obtains bytes from a new
                            // message (§3.1) — excess is truncated.
                            let mut data = d.data;
                            data.truncate(max);
                            Ok(Wait::Ready((data, d.src)))
                        }
                    }
                }
                SockKind::Stream {
                    state, rx, rx_eof, ..
                } => {
                    if rx.is_empty() {
                        if *rx_eof {
                            return Ok(Wait::Ready((Vec::new(), None))); // half-closed EOF
                        }
                        return match state {
                            StreamState::Connected { .. } => Ok(Wait::Block),
                            StreamState::PeerClosed { .. } | StreamState::Refused => {
                                Ok(Wait::Ready((Vec::new(), None))) // EOF
                            }
                            _ => Err(SysError::Enotconn),
                        };
                    }
                    // Jump to the first segment's arrival, then drain
                    // every segment visible by that instant.
                    let t0 = rx.front().expect("nonempty").visible_at_us.max(local);
                    let mut out = Vec::new();
                    while out.len() < max {
                        match rx.front_mut() {
                            Some(seg) if seg.visible_at_us <= t0 => {
                                let want = max - out.len();
                                if seg.data.len() <= want {
                                    out.extend_from_slice(&seg.data);
                                    rx.pop_front();
                                } else {
                                    out.extend_from_slice(&seg.data[..want]);
                                    seg.data.drain(..want);
                                }
                            }
                            _ => break,
                        }
                    }
                    let p = k.proc_mut(self.pid)?;
                    p.local_us = p.local_us.max(t0);
                    Ok(Wait::Ready((out, None)))
                }
            }
        };

        let got = if blocking {
            Some(self.machine.wait_on(self.pid, cond)?)
        } else {
            self.machine.poll_on(self.pid, cond)?
        };
        let Some((data, src)) = got else {
            return Ok(None);
        };
        {
            let k = self.machine.kern.lock();
            if let Ok(p) = k.proc_ref(self.pid) {
                self.machine.clock().global().advance_to_us(p.local_us);
            }
        }

        // The completed receive is the second event — only when data
        // actually arrived (end-of-file is not a message).
        if !data.is_empty() {
            let mut plans = Vec::new();
            {
                let mut k = self.machine.kern.lock();
                plans.extend(metering::emit(
                    &mut k,
                    &self.machine,
                    &cluster,
                    self.pid,
                    MeterBody::Recv(MeterRecvMsg {
                        pid: self.pid.0,
                        pc,
                        sock: sid.0,
                        msg_length: data.len() as u32,
                        source_name: src.clone(),
                    }),
                ));
            }
            self.finish(plans);
        }
        Ok(Some((data, src)))
    }

    fn read_console(
        &self,
        max: usize,
        blocking: bool,
    ) -> SysResult<Option<(Vec<u8>, Option<SockName>)>> {
        let cond = |k: &mut crate::machine::KernState| {
            let p = k.proc_mut(self.pid)?;
            if p.console_in.is_empty() {
                if p.console_eof {
                    return Ok(Wait::Ready((Vec::new(), None)));
                }
                return Ok(Wait::Block);
            }
            let n = p.console_in.len().min(max);
            let data: Vec<u8> = p.console_in.drain(..n).collect();
            Ok(Wait::Ready((data, None)))
        };
        if blocking {
            self.machine.wait_on(self.pid, cond).map(Some)
        } else {
            self.machine.poll_on(self.pid, cond)
        }
    }

    /// Convenience: reads one `\n`-terminated line (the newline is
    /// stripped). Returns `None` at end-of-file before any bytes.
    ///
    /// # Errors
    ///
    /// As [`Proc::read`].
    pub fn read_line(&self, fd: Fd) -> SysResult<Option<String>> {
        let mut line = Vec::new();
        loop {
            let byte = self.read(fd, 1)?;
            if byte.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                break;
            }
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        Ok(Some(String::from_utf8_lossy(&line).into_owned()))
    }

    /// `shutdown(2)`, write half: no more data will be sent on this
    /// connection from this side. The peer reads the remaining
    /// buffered bytes and then end-of-file, while *its* writes — the
    /// other direction of the connection — keep working. This is how
    /// the meterdaemon marks the end of a redirected standard-input
    /// file (§3.5.2) without tearing down the stdout gateway.
    ///
    /// # Errors
    ///
    /// `ENOTCONN` on an unconnected socket; `EOPNOTSUPP` on a
    /// datagram socket; `EBADF` on a bad descriptor.
    pub fn shutdown_write(&self, fd: Fd) -> SysResult<()> {
        self.enter()?;
        let cluster = self.cluster();
        let peer = {
            let mut k = self.machine.kern.lock();
            let sid = k.fd_sock(self.pid, fd)?;
            let sock = k.sock_mut(sid)?;
            match &mut sock.kind {
                SockKind::Stream {
                    state, wr_closed, ..
                } => match state {
                    StreamState::Connected { peer, .. } => {
                        *wr_closed = true;
                        Some(*peer)
                    }
                    StreamState::PeerClosed { .. } => {
                        *wr_closed = true;
                        None
                    }
                    _ => return Err(SysError::Enotconn),
                },
                SockKind::Datagram { .. } => return Err(SysError::Eopnotsupp),
            }
        };
        if let Some(peer) = peer {
            if let Some(m) = cluster.machine_by_id(peer.host) {
                m.set_rx_eof(peer.sock);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Descriptors
    // ------------------------------------------------------------------

    /// `close(2)`: releases a descriptor. Closing the last reference
    /// destroys the socket (§3.1).
    ///
    /// # Errors
    ///
    /// `EBADF` for a bad descriptor.
    pub fn close(&self, fd: Fd) -> SysResult<()> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let mut plans = Vec::new();
        let mut dead = None;
        {
            let mut k = self.machine.kern.lock();
            let desc = k.proc_mut(self.pid)?.clear_fd(fd).ok_or(SysError::Ebadf)?;
            if let Desc::Sock(sid) = desc {
                plans.extend(metering::emit(
                    &mut k,
                    &self.machine,
                    &cluster,
                    self.pid,
                    MeterBody::DestSock(MeterDestSock {
                        pid: self.pid.0,
                        pc,
                        sock: sid.0,
                    }),
                ));
                dead = k.release_sock(sid);
            }
        }
        self.finish(plans);
        self.machine.destroy(&cluster, dead.as_slice());
        Ok(())
    }

    /// `dup(2)`: duplicates a descriptor. Both descriptors share the
    /// one socket (file-table entry), so the meter record's `sock` and
    /// `newSock` carry the same socket address, as they would have on
    /// real 4.2BSD.
    ///
    /// # Errors
    ///
    /// `EBADF` for a bad descriptor.
    pub fn dup(&self, fd: Fd) -> SysResult<Fd> {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let mut plans = Vec::new();
        let new_fd = {
            let mut k = self.machine.kern.lock();
            let desc = k.proc_ref(self.pid)?.desc(fd).ok_or(SysError::Ebadf)?;
            if let Desc::Sock(sid) = desc {
                k.sock_mut(sid)?.refs += 1;
                plans.extend(metering::emit(
                    &mut k,
                    &self.machine,
                    &cluster,
                    self.pid,
                    MeterBody::Dup(MeterDup {
                        pid: self.pid.0,
                        pc,
                        sock: sid.0,
                        new_sock: sid.0,
                    }),
                ));
            }
            k.proc_mut(self.pid)?.alloc_fd(desc)
        };
        self.finish(plans);
        Ok(new_fd)
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// `fork(2)`, with an explicit child body (Rust cannot duplicate a
    /// running thread). The child inherits the descriptor table — "its
    /// child gains access to the parent's sockets, just as the child
    /// gains access to the parent's open files" (§3.1) — **and the
    /// meter socket and meter flags of the parent** (§3.2), which is
    /// what makes whole-computation metering transparent.
    ///
    /// # Errors
    ///
    /// [`SysError::Killed`] if the caller is being killed.
    pub fn fork_with<F>(&self, body: F) -> SysResult<Pid>
    where
        F: FnOnce(Proc) -> SysResult<()> + Send + 'static,
    {
        let pc = self.enter()?;
        let cluster = self.cluster();
        let child_pid = cluster.alloc_pid();
        let mut plans = Vec::new();
        {
            let mut k = self.machine.kern.lock();
            let parent = k.proc_ref(self.pid)?;
            let mut child = crate::process::ProcEntry::new(
                child_pid,
                Some(self.pid),
                parent.uid,
                format!("{}+", parent.name),
            );
            child.state = RunState::Running;
            child.descs = parent.descs.clone();
            child.local_us = parent.local_us;
            child.meter_sock = parent.meter_sock;
            child.meter_flags = parent.meter_flags;
            let sock_refs: Vec<SockId> = child
                .socket_descs()
                .into_iter()
                .chain(child.meter_sock)
                .collect();
            for sid in sock_refs {
                if let Some(s) = k.socks.get_mut(&sid) {
                    s.refs += 1;
                }
            }
            k.procs.insert(child_pid, child);
            plans.extend(metering::emit(
                &mut k,
                &self.machine,
                &cluster,
                self.pid,
                MeterBody::Fork(MeterFork {
                    pid: self.pid.0,
                    pc,
                    new_pid: child_pid.0,
                }),
            ));
        }
        self.finish(plans);
        self.machine.spawn_thread(child_pid, Box::new(body));
        Ok(child_pid)
    }

    /// Creates a suspended process from an executable file — what the
    /// meterdaemon does for the controller's `addprocess` (§3.5.1).
    /// The file's contents must be `program:<name>` naming a program
    /// registered with [`Cluster::register_program`]. `stdio` may name
    /// a connected socket of the *caller* to become the child's
    /// standard input/output/error gateway (§3.5.2).
    ///
    /// # Errors
    ///
    /// `ENOENT` if the file does not exist on this machine; `ENOEXEC`
    /// if it is not a valid program reference; `EBADF` for a bad
    /// `stdio` descriptor.
    pub fn spawn_file(&self, path: &str, args: Vec<String>, stdio: Option<Fd>) -> SysResult<Pid> {
        self.enter()?;
        let cluster = self.cluster();
        let contents = self
            .machine
            .fs()
            .read_string(path)
            .ok_or(SysError::Enoent)?;
        let prog_name = contents
            .strip_prefix("program:")
            .ok_or(SysError::Enoexec)?
            .trim()
            .to_owned();
        let program = cluster.program(&prog_name).ok_or(SysError::Enoexec)?;
        let stdio_sock = match stdio {
            None => None,
            Some(fd) => {
                let k = self.machine.kern.lock();
                Some(k.fd_sock(self.pid, fd)?)
            }
        };
        let display = path.rsplit('/').next().unwrap_or(path).to_owned();
        let uid = self.uid();
        let pid = self.machine.spawn_inner(
            &display,
            uid,
            Some(self.pid),
            false, // suspended prior to the first instruction
            stdio_sock,
            Box::new(move |proc| program(proc, args)),
        );
        Ok(pid)
    }

    /// `kill(2)`-style signalling of a process **on this machine**,
    /// with 4.2BSD permissions. Cross-machine control must go through
    /// a meterdaemon, exactly as in the paper ("direct control of a
    /// process on another machine is impossible", §3.5.1).
    ///
    /// # Errors
    ///
    /// `ESRCH`/`EPERM` as [`Machine::signal`].
    pub fn kill(&self, pid: Pid, sig: Sig) -> SysResult<()> {
        self.enter()?;
        self.machine.signal(Some(self.uid()), pid, sig)
    }

    /// Waits for any child to terminate, returning its pid and how it
    /// ended.
    ///
    /// # Errors
    ///
    /// `ESRCH` when the process has no children left to wait for.
    pub fn wait_child(&self) -> SysResult<(Pid, TermReason)> {
        self.enter()?;
        let me = self.pid;
        self.machine.wait_on(me, move |k| {
            let has_live_children = k
                .procs
                .values()
                .any(|p| p.parent == Some(me) && !p.state.is_dead());
            let entry = k.proc_mut(me)?;
            match entry.dead_children.pop_front() {
                Some(x) => Ok(Wait::Ready(x)),
                None if has_live_children => Ok(Wait::Block),
                None => Err(SysError::Esrch),
            }
        })
    }

    // ------------------------------------------------------------------
    // setmeter(2)
    // ------------------------------------------------------------------

    /// `setmeter(2)`: marks a process for metering (Appendix C).
    ///
    /// * `proc` — the process to be metered ([`PidSel::Current`] is
    ///   the manual page's `-1`).
    /// * `flags` — the events to flag; [`FlagSel::Set`] **replaces**
    ///   the previous mask.
    /// * `socket` — the meter connection, "a connected stream socket
    ///   in the Internet domain" belonging to the *caller*. It is
    ///   duplicated for the metered process but never appears in that
    ///   process's descriptor table.
    ///
    /// "A user can request metering only for processes belonging to
    /// that user"; the superuser may meter anything.
    ///
    /// # Errors
    ///
    /// `EPERM` if the target process does not belong to the caller;
    /// `ESRCH` if the target process or the named socket does not
    /// exist; `EINVAL` if the socket is not an Internet-domain stream
    /// socket.
    pub fn setmeter(&self, proc: PidSel, flags: FlagSel, socket: SockSel) -> SysResult<()> {
        self.enter()?;
        let cluster = self.cluster();
        let plans_and_dead = {
            let mut k = self.machine.kern.lock();
            let caller_uid = k.proc_ref(self.pid)?.uid;
            let target = match proc {
                PidSel::Current => self.pid,
                PidSel::Pid(p) => p,
            };
            {
                let t = k.procs.get(&target).ok_or(SysError::Esrch)?;
                if t.state.is_dead() {
                    return Err(SysError::Esrch);
                }
                if !caller_uid.is_root() && t.uid != caller_uid {
                    return Err(SysError::Eperm);
                }
            }
            // Resolve and validate the socket argument first so a bad
            // socket leaves the flags untouched.
            let new_sock = match socket {
                SockSel::NoChange => None,
                SockSel::None => Some(None),
                SockSel::Fd(fd) => {
                    let sid = k.fd_sock(self.pid, fd).map_err(|_| SysError::Esrch)?;
                    let s = k.sock_mut(sid)?;
                    if s.domain != Domain::Inet || s.stype != SockType::Stream {
                        return Err(SysError::Einval);
                    }
                    s.refs += 1; // duplicated for the metered process
                    Some(Some(sid))
                }
            };
            let mut dead = None;
            let mut plans = Vec::new();
            if let Some(new_sock) = new_sock {
                // Buffered, unsent records would be lost with the old
                // connection; forward them first, as termination does
                // (§3.2's "any unsent messages are forwarded").
                plans.extend(metering::force_flush(
                    &mut k,
                    &self.machine,
                    &cluster,
                    target,
                ));
                let t = k.proc_mut(target)?;
                let old = std::mem::replace(&mut t.meter_sock, new_sock);
                if let Some(old) = old {
                    // "If setmeter() is called specifying a new meter
                    // socket for a process already having one, the old
                    // socket is closed." (§4.1)
                    dead = k.release_sock(old);
                }
            }
            match flags {
                FlagSel::NoChange => {}
                FlagSel::None => k.proc_mut(target)?.meter_flags = MeterFlags::NONE,
                FlagSel::Set(f) => k.proc_mut(target)?.meter_flags = f,
            }
            (plans, dead)
        };
        let (plans, dead) = plans_and_dead;
        self.machine.run_plans(&cluster, plans);
        self.machine.destroy(&cluster, dead.as_slice());
        Ok(())
    }

    /// The meter flags currently set on a process of this machine
    /// (same permission rule as `setmeter`). Primarily for the
    /// controller's `jobs` listing.
    ///
    /// # Errors
    ///
    /// `ESRCH`/`EPERM` as [`Proc::setmeter`].
    pub fn getmeter(&self, proc: PidSel) -> SysResult<MeterFlags> {
        self.enter()?;
        let k = self.machine.kern.lock();
        let caller_uid = k.proc_ref(self.pid)?.uid;
        let target = match proc {
            PidSel::Current => self.pid,
            PidSel::Pid(p) => p,
        };
        let t = k.procs.get(&target).ok_or(SysError::Esrch)?;
        if !caller_uid.is_root() && t.uid != caller_uid {
            return Err(SysError::Eperm);
        }
        Ok(t.meter_flags)
    }
}
