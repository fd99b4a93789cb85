//! A simulated machine: CPU, clock, file system, and resident kernel.
//!
//! "Processes execute on machines, each consisting of a central
//! processor (CPU), memory, and peripheral devices. Machines do not
//! have direct access to each other's memories. Each machine has a
//! portion of the operating system running on it to support process
//! execution, communications, memory management, and device
//! management." (§1.2)
//!
//! Locking discipline: each machine has one kernel mutex and one
//! condition variable. **No code path ever holds two machines' kernel
//! locks at once** — cross-machine effects (message delivery,
//! connection completion, peer-close notification) are computed under
//! the source lock, then applied under the destination lock.

use crate::cluster::Cluster;
use crate::error::{SysError, SysResult};
use crate::fs::SimFs;
use crate::process::{Desc, Pid, ProcEntry, RunState, Sig, Uid};
use crate::socket::{
    Dgram, PendingConn, RemoteSock, Segment, SockId, SockKind, Socket, StreamState,
};
use crate::syscall::Proc;
use dpm_meter::{SockName, TermReason};
use dpm_simnet::{GlobalTime, HostId, MachineClock};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Mutable kernel state of one machine, guarded by the kernel mutex.
#[derive(Debug, Default)]
pub(crate) struct KernState {
    /// Process table.
    pub procs: HashMap<Pid, ProcEntry>,
    /// Socket table ("file table" for sockets).
    pub socks: HashMap<SockId, Socket>,
    /// Next socket id.
    pub next_sock: u32,
    /// Internet-domain port bindings.
    pub inet_binds: HashMap<u16, SockId>,
    /// UNIX-domain path bindings.
    pub unix_binds: HashMap<String, SockId>,
    /// Next ephemeral port for auto-binding (4.2BSD used 1024+).
    pub next_eph_port: u16,
}

impl KernState {
    /// Allocates a socket id and inserts a fresh socket under it.
    pub(crate) fn alloc_sock(&mut self, sock: Socket) -> SockId {
        self.next_sock += 1;
        let id = SockId(self.next_sock);
        self.socks.insert(id, sock);
        id
    }

    /// Looks up a process entry or fails with `ESRCH`.
    pub(crate) fn proc_mut(&mut self, pid: Pid) -> SysResult<&mut ProcEntry> {
        self.procs.get_mut(&pid).ok_or(SysError::Esrch)
    }

    /// Looks up a process entry or fails with `ESRCH`.
    pub(crate) fn proc_ref(&self, pid: Pid) -> SysResult<&ProcEntry> {
        self.procs.get(&pid).ok_or(SysError::Esrch)
    }

    /// Resolves a process's descriptor to a socket id.
    pub(crate) fn fd_sock(&self, pid: Pid, fd: u32) -> SysResult<SockId> {
        match self.proc_ref(pid)?.desc(fd) {
            Some(Desc::Sock(s)) => Ok(s),
            _ => Err(SysError::Ebadf),
        }
    }

    /// Looks up a socket or fails with `EBADF`.
    pub(crate) fn sock_mut(&mut self, id: SockId) -> SysResult<&mut Socket> {
        self.socks.get_mut(&id).ok_or(SysError::Ebadf)
    }

    /// Next free ephemeral port.
    pub(crate) fn eph_port(&mut self) -> u16 {
        loop {
            if self.next_eph_port < 1024 {
                self.next_eph_port = 1024;
            }
            let p = self.next_eph_port;
            self.next_eph_port = self.next_eph_port.wrapping_add(1);
            if !self.inet_binds.contains_key(&p) {
                return p;
            }
        }
    }

    /// Drops one reference to a socket; returns it when that was the
    /// last, for [`Machine::destroy`].
    pub(crate) fn release_sock(&mut self, id: SockId) -> Option<SockId> {
        let sock = self.socks.get_mut(&id).filter(|s| s.refs > 0)?;
        sock.refs -= 1;
        (sock.refs == 0).then_some(id)
    }
}

/// Cross-machine cleanup produced by destroying a socket.
#[derive(Debug, Clone, Copy)]
enum CloseAction {
    /// Tell the connected peer its counterpart has gone.
    PeerClosed {
        /// The remote endpoint of the dead connection.
        peer: RemoteSock,
    },
    /// Tell a parked connector its listener has gone.
    Refuse {
        /// The remote connecting socket.
        conn: RemoteSock,
    },
}

/// A pending delivery of meter messages to a filter, computed under
/// the source kernel lock and executed after it is released.
#[derive(Debug)]
pub(crate) struct FlushPlan {
    /// Remote (possibly local) endpoint of the meter connection: the
    /// filter's socket.
    pub peer: RemoteSock,
    /// Encoded meter messages.
    pub bytes: Vec<u8>,
    /// Global time at which the bytes become visible to the filter.
    pub visible_at_us: u64,
}

/// Outcome of one evaluation of a blocking condition.
pub(crate) enum Wait<T> {
    /// The operation completed with this value.
    Ready(T),
    /// Nothing to do yet; sleep until the kernel changes.
    Block,
}

/// A simulated machine.
pub struct Machine {
    id: HostId,
    name: String,
    clock: MachineClock,
    fs: SimFs,
    cluster: Weak<Cluster>,
    pub(crate) kern: Mutex<KernState>,
    pub(crate) cv: Condvar,
    threads: Mutex<HashMap<Pid, JoinHandle<()>>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Machine {
    pub(crate) fn new(
        id: HostId,
        name: String,
        global: Arc<GlobalTime>,
        spec: dpm_simnet::ClockSpec,
        cluster: &Arc<Cluster>,
    ) -> Arc<Machine> {
        Arc::new(Machine {
            id,
            name,
            clock: MachineClock::new(global, spec),
            fs: SimFs::new(),
            cluster: Arc::downgrade(cluster),
            kern: Mutex::new(KernState::default()),
            cv: Condvar::new(),
            threads: Mutex::new(HashMap::new()),
        })
    }

    /// The machine's host id (the `machine` field of meter headers).
    pub(crate) fn id(&self) -> HostId {
        self.id
    }

    /// The machine's literal host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine's (skewed) clock.
    pub fn clock(&self) -> &MachineClock {
        &self.clock
    }

    /// The machine's file system.
    pub fn fs(&self) -> &SimFs {
        &self.fs
    }

    /// The cluster this machine belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has been dropped while machines are still
    /// in use — a usage error, since [`Cluster`] owns its machines.
    pub fn cluster(&self) -> Arc<Cluster> {
        self.cluster.upgrade().expect("cluster dropped")
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Spawns a process running `body` on its own thread.
    ///
    /// With `running = false` the process is created suspended "prior
    /// to the execution of the first instruction" (§3.5.1) and must be
    /// started with [`Machine::signal`]/`Sig::Cont`.
    pub fn spawn_fn<F>(
        self: &Arc<Self>,
        name: &str,
        uid: Uid,
        parent: Option<Pid>,
        running: bool,
        body: F,
    ) -> Pid
    where
        F: FnOnce(Proc) -> SysResult<()> + Send + 'static,
    {
        self.spawn_inner(name, uid, parent, running, None, Box::new(body))
    }

    pub(crate) fn spawn_inner(
        self: &Arc<Self>,
        name: &str,
        uid: Uid,
        parent: Option<Pid>,
        running: bool,
        stdio: Option<SockId>,
        body: Box<dyn FnOnce(Proc) -> SysResult<()> + Send>,
    ) -> Pid {
        let cluster = self.cluster();
        let pid = cluster.alloc_pid();
        {
            let mut k = self.kern.lock();
            let mut entry = ProcEntry::new(pid, parent, uid, name);
            if running {
                entry.state = RunState::Running;
            }
            if let Some(sock) = stdio {
                // Redirect stdin/stdout/stderr to the gateway socket
                // (§3.5.2); three descriptor references.
                entry.descs = vec![
                    Some(Desc::Sock(sock)),
                    Some(Desc::Sock(sock)),
                    Some(Desc::Sock(sock)),
                ];
                if let Some(s) = k.socks.get_mut(&sock) {
                    s.refs += 3;
                }
            }
            k.procs.insert(pid, entry);
        }
        self.spawn_thread(pid, body);
        pid
    }

    /// Spawns the OS thread driving an already-inserted process entry.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        pid: Pid,
        body: Box<dyn FnOnce(Proc) -> SysResult<()> + Send>,
    ) {
        let machine = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("{}:{}", self.name, pid))
            .spawn(move || {
                let proc = Proc::new(machine.clone(), pid);
                if machine.wait_for_start(pid) {
                    let result = body(proc);
                    let reason = match result {
                        Ok(()) => TermReason::Normal,
                        Err(SysError::Killed) => TermReason::Killed,
                        Err(_) => TermReason::Normal, // abnormal exit still terminates
                    };
                    machine.exit_process(pid, reason);
                } else {
                    // Killed before ever starting.
                    machine.exit_process(pid, TermReason::Killed);
                }
            })
            .expect("spawn thread");
        self.threads.lock().insert(pid, handle);
        self.cv.notify_all();
    }

    /// Blocks the new process's thread until it is started; returns
    /// `false` if it was killed before starting.
    fn wait_for_start(&self, pid: Pid) -> bool {
        let mut k = self.kern.lock();
        loop {
            let Some(p) = k.procs.get(&pid) else {
                return false;
            };
            if p.kill_pending {
                return false;
            }
            match p.state {
                RunState::Running => return true,
                RunState::Zombie(_) => return false,
                RunState::Embryo | RunState::Stopped => self.cv.wait(&mut k),
            }
        }
    }

    /// Terminates a process: emits the termproc meter event, flushes
    /// the meter buffer, releases descriptors, notifies the parent,
    /// and marks the entry zombie.
    pub(crate) fn exit_process(self: &Arc<Self>, pid: Pid, reason: TermReason) {
        let cluster = self.cluster();

        // Phase 1: emit the termination event and flush the meter
        // buffer ("as part of process termination, any unsent messages
        // are forwarded to the filter", §3.2) — and *deliver* the
        // flush before touching any descriptor. Several processes can
        // share one meter connection (fork inheritance); delivering
        // first guarantees no sibling's exit can close the connection
        // out from under records that were produced before it died.
        let mut plans: Vec<FlushPlan> = Vec::new();
        let reason = {
            let mut k = self.kern.lock();
            let Some(p) = k.procs.get(&pid) else { return };
            if p.state.is_dead() {
                return;
            }
            let reason = if p.kill_pending {
                TermReason::Killed
            } else {
                reason
            };
            if let Some(plan) = crate::metering::emit_termproc(&mut k, self, &cluster, pid, reason)
            {
                plans.push(plan);
            }
            if let Some(plan) = crate::metering::force_flush(&mut k, self, &cluster, pid) {
                plans.push(plan);
            }
            reason
        };
        for plan in plans {
            self.deliver_meter(&cluster, plan);
        }

        // Phase 2: release descriptors. Their peers hear of the close
        // (a filter's meter connection reads end-of-file) before the
        // sockets leave the table.
        let dead: Vec<SockId> = {
            let mut k = self.kern.lock();
            let Some(p) = k.procs.get_mut(&pid) else {
                return;
            };
            let socks = p.socket_descs();
            p.descs.clear();
            let meter_sock = p.meter_sock.take();
            socks
                .into_iter()
                .chain(meter_sock)
                .filter_map(|s| k.release_sock(s))
                .collect()
        };
        self.destroy(&cluster, &dead);

        // Phase 3: mark zombie, notify the parent. Whoever observes the
        // termination — `wait_exit`, the parent's `wait_child`, a
        // daemon's SIGCHLD report — therefore finds the process's
        // final records delivered and its meter connection's EOF
        // already at the filter.
        {
            let mut k = self.kern.lock();
            let Some(p) = k.procs.get_mut(&pid) else {
                return;
            };
            let parent = p.parent;
            p.state = RunState::Zombie(reason);
            p.meter_buf.clear();
            p.meter_buf_count = 0;
            if let Some(pp) = parent.and_then(|parent| k.procs.get_mut(&parent)) {
                pp.dead_children.push_back((pid, reason));
            }
        }
        self.cv.notify_all();
    }

    /// Sends a process-control signal, with 4.2BSD permissions: a
    /// process may signal processes of the same user; the superuser
    /// may signal anything. Pass `from: None` for host-side (test
    /// harness) control, which is unrestricted.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the process does not exist or is a zombie; `EPERM`
    /// on a permission failure.
    pub fn signal(&self, from: Option<Uid>, pid: Pid, sig: Sig) -> SysResult<()> {
        let mut k = self.kern.lock();
        let p = k.procs.get_mut(&pid).ok_or(SysError::Esrch)?;
        if p.state.is_dead() {
            return Err(SysError::Esrch);
        }
        if let Some(uid) = from {
            if !uid.is_root() && uid != p.uid {
                return Err(SysError::Eperm);
            }
        }
        match sig {
            Sig::Stop => {
                if p.state == RunState::Running || p.state == RunState::Embryo {
                    p.state = RunState::Stopped;
                }
            }
            Sig::Cont => {
                if p.state == RunState::Stopped || p.state == RunState::Embryo {
                    p.state = RunState::Running;
                }
            }
            Sig::Kill => {
                p.kill_pending = true;
            }
        }
        drop(k);
        self.cv.notify_all();
        Ok(())
    }

    /// The kernel-level run state of a process, if it exists.
    pub fn proc_state(&self, pid: Pid) -> Option<RunState> {
        self.kern.lock().procs.get(&pid).map(|p| p.state)
    }

    /// The uid owning a process, if it exists.
    pub(crate) fn proc_uid(&self, pid: Pid) -> Option<Uid> {
        self.kern.lock().procs.get(&pid).map(|p| p.uid)
    }

    /// CPU time charged to a process so far, in microseconds.
    pub fn proc_cpu_us(&self, pid: Pid) -> Option<u64> {
        self.kern.lock().procs.get(&pid).map(|p| p.cpu_us)
    }

    /// Pids of every process whose program name equals `name`, sorted.
    /// Includes zombies; check [`Machine::proc_state`] for liveness.
    /// Lets a harness find a well-known process (say, the machine's
    /// meterdaemon) without scanning a pid window.
    pub fn procs_named(&self, name: &str) -> Vec<Pid> {
        let mut pids: Vec<Pid> = self
            .kern
            .lock()
            .procs
            .values()
            .filter(|p| p.name == name)
            .map(|p| p.pid)
            .collect();
        pids.sort_by_key(|p| p.0);
        pids
    }

    /// Blocks until the process terminates, returning how; by then
    /// every connection it was the last to hold reads end-of-file at
    /// its peer. `None` if the pid is unknown.
    pub fn wait_exit(&self, pid: Pid) -> Option<TermReason> {
        let mut k = self.kern.lock();
        loop {
            match k.procs.get(&pid) {
                None => return None,
                Some(p) => match p.state {
                    RunState::Zombie(r) => return Some(r),
                    _ => self.cv.wait(&mut k),
                },
            }
        }
    }

    /// Blocks until every stream connection on `port` of this machine
    /// whose sender has closed has been closed by its reader too: no
    /// socket named `port` here reads `PeerClosed`. A live connection
    /// does not hold it up.
    ///
    /// This is the drain barrier of a filter. A sender's close reaches
    /// its filter before the sender can be seen terminated, and a
    /// filter closes a meter connection only once the records read
    /// from it are durable (DESIGN §8). So once every process metered
    /// into the filter at `port` has terminated, `Ok` means all their
    /// records are stored.
    ///
    /// # Errors
    ///
    /// `bound` is a failure bound only: past it, the names of the
    /// senders whose connections are still undrained.
    pub fn wait_drained(&self, port: u16, bound: Duration) -> Result<(), Vec<SockName>> {
        let deadline = Instant::now() + bound;
        let mut k = self.kern.lock();
        loop {
            let undrained: Vec<SockName> = k
                .socks
                .values()
                .filter(|s| matches!(s.name, Some(SockName::Inet { port: p, .. }) if p == port))
                .filter_map(|s| match s.stream_state() {
                    Some(StreamState::PeerClosed { peer_name }) => Some(peer_name.clone()),
                    _ => None,
                })
                .collect();
            if undrained.is_empty() {
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(undrained);
            }
            self.cv.wait_for(&mut k, left);
        }
    }

    /// Feeds bytes to a process's console input.
    pub fn feed_stdin(&self, pid: Pid, bytes: &[u8]) {
        let mut k = self.kern.lock();
        if let Some(p) = k.procs.get_mut(&pid) {
            p.console_in.extend(bytes.iter().copied());
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Closes a process's console input; a drained console then reads
    /// as end-of-file.
    pub fn close_stdin(&self, pid: Pid) {
        let mut k = self.kern.lock();
        if let Some(p) = k.procs.get_mut(&pid) {
            p.console_eof = true;
        }
        drop(k);
        self.cv.notify_all();
    }

    /// A copy of everything the process has written to its console.
    pub fn console_output(&self, pid: Pid) -> Option<Vec<u8>> {
        self.kern
            .lock()
            .procs
            .get(&pid)
            .map(|p| p.console_out.clone())
    }

    /// Marks every live process for killing.
    pub(crate) fn kill_all(&self) {
        let mut k = self.kern.lock();
        for p in k.procs.values_mut() {
            if !p.state.is_dead() {
                p.kill_pending = true;
                if p.state == RunState::Embryo || p.state == RunState::Stopped {
                    p.state = RunState::Running; // let the thread notice
                }
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Joins all process threads that have been spawned on this
    /// machine. Call after [`Machine::kill_all`] (or once all programs
    /// have finished) or this will block.
    pub(crate) fn join_all(&self) {
        let handles: Vec<_> = {
            let mut t = self.threads.lock();
            t.drain().map(|(_, h)| h).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    // ------------------------------------------------------------------
    // Blocking machinery
    // ------------------------------------------------------------------

    /// Runs `cond` under the kernel lock until it reports readiness,
    /// blocking on the machine's condition variable in between.
    /// Honors process control: a pending kill aborts with
    /// [`SysError::Killed`]; a stopped process stays blocked here even
    /// if the condition is ready.
    pub(crate) fn wait_on<T>(
        &self,
        pid: Pid,
        mut cond: impl FnMut(&mut KernState) -> SysResult<Wait<T>>,
    ) -> SysResult<T> {
        let mut k = self.kern.lock();
        loop {
            {
                let p = k.procs.get(&pid).ok_or(SysError::Esrch)?;
                if p.kill_pending {
                    return Err(SysError::Killed);
                }
                if p.state.is_dead() {
                    // A helper thread of an exited process (e.g. the
                    // meterdaemon's signal handler) gets a clean error.
                    return Err(SysError::Esrch);
                }
                if matches!(p.state, RunState::Stopped | RunState::Embryo) {
                    self.cv.wait(&mut k);
                    continue;
                }
            }
            match cond(&mut k)? {
                Wait::Ready(t) => return Ok(t),
                Wait::Block => self.cv.wait(&mut k),
            }
        }
    }

    /// One-shot (non-blocking) evaluation of a condition, with the
    /// same control checks as [`Machine::wait_on`].
    pub(crate) fn poll_on<T>(
        &self,
        pid: Pid,
        cond: impl FnOnce(&mut KernState) -> SysResult<Wait<T>>,
    ) -> SysResult<Option<T>> {
        let mut k = self.kern.lock();
        {
            let p = k.procs.get(&pid).ok_or(SysError::Esrch)?;
            if p.kill_pending {
                return Err(SysError::Killed);
            }
            if p.state.is_dead() {
                return Err(SysError::Esrch);
            }
            if matches!(p.state, RunState::Stopped | RunState::Embryo) {
                return Ok(None);
            }
        }
        match cond(&mut k)? {
            Wait::Ready(t) => Ok(Some(t)),
            Wait::Block => Ok(None),
        }
    }

    // ------------------------------------------------------------------
    // Cross-machine delivery (called with NO kernel lock held)
    // ------------------------------------------------------------------

    /// Enqueues a datagram on a socket of this machine. Silently drops
    /// it if the socket has vanished or is not a datagram socket —
    /// datagram delivery is not guaranteed (§3.1).
    pub(crate) fn deliver_dgram(&self, dst: SockId, dgram: Dgram) {
        let mut k = self.kern.lock();
        if let Some(sock) = k.socks.get_mut(&dst) {
            if let SockKind::Datagram { rx, .. } = &mut sock.kind {
                rx.push_back(dgram);
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Appends stream data to a connected socket on this machine,
    /// clamping visibility so segments stay ordered. Returns `false`
    /// if the socket is gone (the writer should see `EPIPE`).
    pub(crate) fn deliver_segment(&self, dst: SockId, data: Vec<u8>, visible_at_us: u64) -> bool {
        let mut k = self.kern.lock();
        let delivered = match k.socks.get_mut(&dst) {
            Some(sock) => match &mut sock.kind {
                SockKind::Stream {
                    rx, rx_floor_us, ..
                } => {
                    let vis = visible_at_us.max(*rx_floor_us);
                    *rx_floor_us = vis;
                    rx.push_back(Segment {
                        data,
                        visible_at_us: vis,
                    });
                    true
                }
                SockKind::Datagram { .. } => false,
            },
            None => false,
        };
        drop(k);
        self.cv.notify_all();
        delivered
    }

    /// Parks a connection request on the socket bound to `name` here.
    ///
    /// # Errors
    ///
    /// `ECONNREFUSED` if nothing is listening on `name` or the pending
    /// queue is at its backlog (§3.1's `listen` semantics).
    pub(crate) fn push_pending(&self, name: &SockName, conn: PendingConn) -> SysResult<()> {
        let mut k = self.kern.lock();
        let sid = match name {
            SockName::Inet { port, .. } => k.inet_binds.get(port).copied(),
            SockName::UnixPath(p) => k.unix_binds.get(p).copied(),
            SockName::Internal(_) => None,
        }
        .ok_or(SysError::Econnrefused)?;
        let sock = k.socks.get_mut(&sid).ok_or(SysError::Econnrefused)?;
        match &mut sock.kind {
            SockKind::Stream {
                state: StreamState::Listening { backlog, pending },
                ..
            } => {
                if pending.len() >= *backlog {
                    return Err(SysError::Econnrefused);
                }
                pending.push_back(conn);
            }
            _ => return Err(SysError::Econnrefused),
        }
        drop(k);
        self.cv.notify_all();
        Ok(())
    }

    /// Completes a connection on this machine: flips a `Connecting`
    /// socket to `Connected`. Returns `false` if the connector has
    /// vanished or given up.
    pub(crate) fn complete_connection(
        &self,
        conn: SockId,
        peer: RemoteSock,
        peer_name: SockName,
        visible_at_us: u64,
    ) -> bool {
        let mut k = self.kern.lock();
        let ok = match k.socks.get_mut(&conn) {
            Some(sock) => match &mut sock.kind {
                SockKind::Stream {
                    state, rx_floor_us, ..
                } if matches!(state, StreamState::Connecting) => {
                    *state = StreamState::Connected { peer, peer_name };
                    *rx_floor_us = visible_at_us;
                    true
                }
                _ => false,
            },
            None => false,
        };
        drop(k);
        self.cv.notify_all();
        ok
    }

    /// Marks a connecting socket refused.
    pub(crate) fn refuse_connection(&self, conn: SockId) {
        let mut k = self.kern.lock();
        if let Some(sock) = k.socks.get_mut(&conn) {
            if let SockKind::Stream { state, .. } = &mut sock.kind {
                if matches!(state, StreamState::Connecting) {
                    *state = StreamState::Refused;
                }
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Marks the read direction of a connected socket as finished
    /// (the peer called `shutdown(2)` on its write half): buffered
    /// data stays readable, then reads return end-of-file, but this
    /// side may continue writing.
    pub(crate) fn set_rx_eof(&self, sock: SockId) {
        let mut k = self.kern.lock();
        if let Some(s) = k.socks.get_mut(&sock) {
            if let SockKind::Stream { rx_eof, .. } = &mut s.kind {
                *rx_eof = true;
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Marks a connected socket's peer as closed; buffered data stays
    /// readable, then reads return end-of-file. A connection that
    /// closes before it completed is refused.
    pub(crate) fn peer_closed(&self, sock: SockId) {
        let mut k = self.kern.lock();
        if let Some(s) = k.socks.get_mut(&sock) {
            if let SockKind::Stream { state, .. } = &mut s.kind {
                match std::mem::take(state) {
                    StreamState::Connected { peer_name, .. } => {
                        *state = StreamState::PeerClosed { peer_name };
                    }
                    StreamState::Connecting => *state = StreamState::Refused,
                    other => *state = other,
                }
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Destroys sockets whose last reference went. First each is hung
    /// up: its connection or listen queue is taken out of it, and the
    /// peers hear of the close (the peer's `PeerClosed`, a parked
    /// connector's refusal). Only then do the sockets and their
    /// bindings leave this machine's table. In that order a close
    /// reaches the peer before anyone can see it: once a socket is
    /// gone, every peer it had reads end-of-file. A socket whose own
    /// peer already closed keeps that state until it is gone, so
    /// [`Machine::wait_drained`] counts it undrained until then.
    pub(crate) fn destroy(&self, cluster: &Arc<Cluster>, dead: &[SockId]) {
        if dead.is_empty() {
            return;
        }
        let mut actions = Vec::new();
        let mut k = self.kern.lock();
        for id in dead {
            let Some(SockKind::Stream { state, .. }) = k.socks.get_mut(id).map(|s| &mut s.kind)
            else {
                continue;
            };
            match std::mem::take(state) {
                StreamState::Connected { peer, .. } => {
                    actions.push(CloseAction::PeerClosed { peer })
                }
                StreamState::Listening { pending, .. } => actions.extend(
                    pending
                        .into_iter()
                        .map(|p| CloseAction::Refuse { conn: p.from }),
                ),
                other => *state = other,
            }
        }
        drop(k);
        for a in actions {
            match a {
                CloseAction::PeerClosed { peer } => {
                    if let Some(m) = cluster.machine_by_id(peer.host) {
                        m.peer_closed(peer.sock);
                    }
                }
                CloseAction::Refuse { conn } => {
                    if let Some(m) = cluster.machine_by_id(conn.host) {
                        m.refuse_connection(conn.sock);
                    }
                }
            }
        }
        let mut k = self.kern.lock();
        for id in dead {
            let Some(sock) = k.socks.remove(id) else {
                continue;
            };
            match &sock.name {
                Some(SockName::Inet { port, .. }) if k.inet_binds.get(port) == Some(id) => {
                    k.inet_binds.remove(port);
                }
                Some(SockName::UnixPath(p)) if k.unix_binds.get(p) == Some(id) => {
                    k.unix_binds.remove(p);
                }
                _ => {}
            }
        }
        drop(k);
        self.cv.notify_all();
    }

    /// Delivers flushed meter messages over the meter connection.
    ///
    /// When the fault injector asks for at-least-once retransmission,
    /// the whole flush batch is delivered a second time after an extra
    /// latency sample; the filter's sequence-number dedup must absorb
    /// the duplicate copy.
    pub(crate) fn deliver_meter(&self, cluster: &Arc<Cluster>, plan: FlushPlan) {
        cluster
            .stats
            .record_meter_frame(plan.bytes.len(), plan.peer.host != self.id());
        if let Some(m) = cluster.machine_by_id(plan.peer.host) {
            let dup = cluster.dup_meter_flush(self.id(), plan.peer.host, plan.visible_at_us);
            if dup {
                let extra = cluster.sample_latency(self.id(), plan.peer.host).max(1);
                let copy = plan.bytes.clone();
                m.deliver_segment(plan.peer.sock, plan.bytes, plan.visible_at_us);
                m.deliver_segment(plan.peer.sock, copy, plan.visible_at_us + extra);
            } else {
                m.deliver_segment(plan.peer.sock, plan.bytes, plan.visible_at_us);
            }
        }
    }

    /// Runs any flush plans produced during a system call.
    pub(crate) fn run_plans(&self, cluster: &Arc<Cluster>, plans: Vec<FlushPlan>) {
        for p in plans {
            self.deliver_meter(cluster, p);
        }
    }
}
