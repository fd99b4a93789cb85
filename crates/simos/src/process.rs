//! Process-table entries of the simulated kernel.
//!
//! "In UNIX each process is described by an entry in the process
//! table. … For the purpose of metering, three fields have been added
//! to the process structures in the process table": a pointer to the
//! *meter socket*, a bit mask indicating the events to be metered, and
//! a pointer to meter messages that have yet to be sent (§3.2). All
//! three appear verbatim in [`ProcEntry`].

use crate::socket::SockId;
use dpm_meter::{MeterFlags, TermReason};
use std::collections::VecDeque;

pub use dpm_meter::Pid;

/// A user identifier. Uid 0 is the superuser; "a superuser process can
/// set metering for any process" (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Uid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Whether this is the superuser.
    pub(crate) fn is_root(self) -> bool {
        self == Uid::ROOT
    }
}

impl std::fmt::Display for Uid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Kernel-level run state of a process.
///
/// This is the kernel's view; the *controller* keeps its own
/// five-state view (`new`, `acquired`, `running`, `stopped`, `killed`,
/// Fig. 4.2) layered on top of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Created but suspended prior to the execution of the first
    /// instruction (§3.5.1: "when a process is created, it should be
    /// suspended prior to the start of its execution").
    Embryo,
    /// Eligible to run.
    Running,
    /// Stopped by a SIGSTOP-style signal; resumable.
    Stopped,
    /// Terminated; the entry remains until reaped by its parent.
    Zombie(TermReason),
}

impl RunState {
    /// Whether the process has terminated.
    pub fn is_dead(&self) -> bool {
        matches!(self, RunState::Zombie(_))
    }
}

/// What a descriptor-table slot points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Desc {
    /// A socket in this machine's socket table.
    Sock(SockId),
    /// The process's console: writes accumulate in a per-process
    /// output buffer, reads consume a per-process input buffer. Stand-
    /// in for the terminal when stdio has not been redirected to a
    /// socket by the meterdaemon (§3.5.2).
    Console,
}

/// The signals the simulated kernel understands — exactly the three
/// the measurement tools need for process control (§3.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sig {
    /// Halt execution; resumable with [`Sig::Cont`].
    Stop,
    /// Resume a stopped (or start an embryonic) process.
    Cont,
    /// Terminate the process.
    Kill,
}

/// One entry in a machine's process table.
#[derive(Debug)]
pub(crate) struct ProcEntry {
    /// Process id.
    pub pid: Pid,
    /// Parent process id, if the parent is on this machine.
    pub parent: Option<Pid>,
    /// Owner.
    pub uid: Uid,
    /// Run state.
    pub state: RunState,
    /// Human-readable program name (for `jobs` listings).
    pub name: String,
    /// Descriptor table: indices are file descriptors.
    pub descs: Vec<Option<Desc>>,
    /// CPU time charged to the process, in microseconds. Reported
    /// through meter headers quantized to 10 ms (§4.1).
    pub cpu_us: u64,
    /// The process's local virtual time, in global microseconds.
    pub local_us: u64,
    /// Count of system calls made; doubles as the fake "PC at the time
    /// of the system call" in meter records, since simulated programs
    /// have no program counter.
    pub syscall_count: u32,
    /// Console output buffer (bytes written to a [`Desc::Console`]).
    pub console_out: Vec<u8>,
    /// Console input buffer (bytes available to read from a
    /// [`Desc::Console`]).
    pub console_in: VecDeque<u8>,
    /// Whether console input has been closed; a drained, closed
    /// console reads as end-of-file.
    pub console_eof: bool,
    /// A kill signal has been delivered but the process's thread has
    /// not yet noticed (it will at its next system-call boundary).
    pub kill_pending: bool,
    /// Children that have terminated but not been reaped by `wait`.
    pub dead_children: VecDeque<(Pid, TermReason)>,
    /// **Meter field 1**: the meter socket, "a socket which has been
    /// connected to a filter process. … the descriptor … is not stored
    /// in the process's descriptor table and is, therefore, not
    /// directly accessible by the process" (§3.2).
    pub meter_sock: Option<SockId>,
    /// **Meter field 2**: the meter flags bit mask.
    pub meter_flags: MeterFlags,
    /// **Meter field 3**: meter messages that have yet to be sent,
    /// already encoded in wire format.
    pub meter_buf: Vec<u8>,
    /// Number of messages currently in `meter_buf`.
    pub meter_buf_count: u32,
    /// Per-process meter sequence counter; the last stamped
    /// [`MeterHeader::seq`](dpm_meter::MeterHeader::seq). Sequences
    /// start at 1, so `0` here means nothing emitted yet.
    pub meter_seq: u32,
}

impl ProcEntry {
    /// Creates an embryonic process entry with stdio on the console.
    pub(crate) fn new(
        pid: Pid,
        parent: Option<Pid>,
        uid: Uid,
        name: impl Into<String>,
    ) -> ProcEntry {
        ProcEntry {
            pid,
            parent,
            uid,
            state: RunState::Embryo,
            name: name.into(),
            descs: vec![
                Some(Desc::Console),
                Some(Desc::Console),
                Some(Desc::Console),
            ],
            cpu_us: 0,
            local_us: 0,
            syscall_count: 0,
            console_out: Vec::new(),
            console_in: VecDeque::new(),
            console_eof: false,
            kill_pending: false,
            dead_children: VecDeque::new(),
            meter_sock: None,
            meter_flags: MeterFlags::NONE,
            meter_buf: Vec::new(),
            meter_buf_count: 0,
            meter_seq: 0,
        }
    }

    /// Allocates the lowest free descriptor slot, as UNIX does.
    pub(crate) fn alloc_fd(&mut self, desc: Desc) -> u32 {
        for (i, slot) in self.descs.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(desc);
                return i as u32;
            }
        }
        self.descs.push(Some(desc));
        (self.descs.len() - 1) as u32
    }

    /// Looks up a descriptor.
    pub(crate) fn desc(&self, fd: u32) -> Option<Desc> {
        self.descs.get(fd as usize).copied().flatten()
    }

    /// Clears a descriptor slot, returning what it held.
    pub(crate) fn clear_fd(&mut self, fd: u32) -> Option<Desc> {
        self.descs.get_mut(fd as usize).and_then(Option::take)
    }

    /// CPU time in the 10 ms granularity the paper reports
    /// ("CPU use is updated in increments of 10ms", §4.1).
    pub(crate) fn proc_time_ms(&self) -> u32 {
        ((self.cpu_us / 10_000) * 10) as u32
    }

    /// The sockets currently referenced from the descriptor table
    /// (with multiplicity, for refcount accounting).
    pub(crate) fn socket_descs(&self) -> Vec<SockId> {
        self.descs
            .iter()
            .filter_map(|d| match d {
                Some(Desc::Sock(s)) => Some(*s),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_embryonic_with_console_stdio() {
        let p = ProcEntry::new(Pid(2120), None, Uid(12), "A");
        assert_eq!(p.state, RunState::Embryo);
        assert_eq!(p.desc(0), Some(Desc::Console));
        assert_eq!(p.desc(1), Some(Desc::Console));
        assert_eq!(p.desc(2), Some(Desc::Console));
        assert_eq!(p.desc(3), None);
        assert!(p.meter_sock.is_none());
        assert!(p.meter_flags.is_empty());
    }

    #[test]
    fn fd_allocation_reuses_lowest_slot() {
        let mut p = ProcEntry::new(Pid(1), None, Uid(1), "x");
        let a = p.alloc_fd(Desc::Sock(SockId(10)));
        let b = p.alloc_fd(Desc::Sock(SockId(11)));
        assert_eq!((a, b), (3, 4));
        p.clear_fd(3);
        assert_eq!(p.alloc_fd(Desc::Sock(SockId(12))), 3);
        assert_eq!(p.desc(3), Some(Desc::Sock(SockId(12))));
    }

    #[test]
    fn proc_time_quantizes_to_10ms() {
        let mut p = ProcEntry::new(Pid(1), None, Uid(1), "x");
        p.cpu_us = 9_999; // 9.999 ms
        assert_eq!(p.proc_time_ms(), 0);
        p.cpu_us = 10_000;
        assert_eq!(p.proc_time_ms(), 10);
        p.cpu_us = 39_999;
        assert_eq!(p.proc_time_ms(), 30);
    }

    #[test]
    fn socket_descs_with_multiplicity() {
        let mut p = ProcEntry::new(Pid(1), None, Uid(1), "x");
        p.alloc_fd(Desc::Sock(SockId(5)));
        p.alloc_fd(Desc::Sock(SockId(5))); // dup
        p.alloc_fd(Desc::Sock(SockId(6)));
        assert_eq!(p.socket_descs(), vec![SockId(5), SockId(5), SockId(6)]);
    }

    #[test]
    fn zombie_is_dead() {
        assert!(RunState::Zombie(TermReason::Normal).is_dead());
        assert!(!RunState::Running.is_dead());
        assert!(!RunState::Embryo.is_dead());
        assert!(!RunState::Stopped.is_dead());
    }
}
