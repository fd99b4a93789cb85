//! Debugging analyses.
//!
//! The tools were "intended to aid the programmer in developing,
//! debugging, and measuring the performance of distributed programs"
//! (§1.1), and §5 reports a computation being *debugged* with them.
//! The `METERRECEIVECALL` event exists precisely for this: it records
//! that a process asked to receive — so a receive call with no
//! subsequent receive on the same socket is a process that blocked and
//! never got its message. Combined with unmatched sends (lost
//! datagrams) this pinpoints the classic distributed hang.

use crate::pairing::Pairing;
use crate::trace::{Event, EventKind, ProcKey, Trace};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A receive call that never completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedReceive {
    /// Trace index of the `receivecall` event.
    pub idx: usize,
    /// The blocked process.
    pub proc: ProcKey,
    /// The socket it was receiving on.
    pub sock: u32,
    /// Machine-local time of the call, ms.
    pub since_ms: u32,
}

/// A process that never produced a termination record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unterminated {
    /// The process.
    pub proc: ProcKey,
    /// Its last event's trace index.
    pub last_idx: usize,
    /// Its last event's machine-local time, ms.
    pub last_ms: u32,
}

/// The debugging report.
#[derive(Debug, Clone, Default)]
pub struct DebugReport {
    /// Receive calls with no completing receive: candidate hangs.
    pub blocked_receives: Vec<BlockedReceive>,
    /// Trace indices of sends never matched to a receive: lost
    /// datagrams or bytes unread at trace end.
    pub lost_sends: Vec<usize>,
    /// Processes without a termproc record (only meaningful when the
    /// termproc flag was metered).
    pub unterminated: Vec<Unterminated>,
}

impl DebugReport {
    /// Builds the report from a trace and its pairing.
    pub fn analyze(trace: &Trace, pairing: &Pairing) -> DebugReport {
        // A receivecall completes when a *later* receive event of the
        // same process on the same socket appears.
        let mut pending: HashMap<(ProcKey, u32), VecDeque<usize>> = HashMap::new();
        for (i, e) in trace.events.iter().enumerate() {
            match (&e.kind, e.sock) {
                (EventKind::RecvCall, Some(sock)) => {
                    pending.entry((e.proc, sock)).or_default().push_back(i);
                }
                (EventKind::Recv { .. }, Some(sock)) => {
                    // Completes the oldest outstanding call. A receive
                    // without a recorded call (receivecall unflagged)
                    // is simply ignored here.
                    if let Some(q) = pending.get_mut(&(e.proc, sock)) {
                        q.pop_front();
                    }
                }
                _ => {}
            }
        }
        let mut blocked_receives: Vec<BlockedReceive> = pending
            .into_iter()
            .flat_map(|((proc, sock), idxs)| idxs.into_iter().map(move |idx| (proc, sock, idx)))
            .map(|(proc, sock, idx)| BlockedReceive {
                idx,
                proc,
                sock,
                since_ms: trace.events[idx].cpu_time,
            })
            .collect();
        blocked_receives.sort_by_key(|b| b.idx);

        // Termination tracking.
        let mut last_event: HashMap<ProcKey, &Event> = HashMap::new();
        let mut terminated: HashSet<ProcKey> = HashSet::new();
        let mut saw_term_records = false;
        for e in &trace.events {
            last_event.insert(e.proc, e);
            if matches!(e.kind, EventKind::Term { .. }) {
                saw_term_records = true;
                terminated.insert(e.proc);
            }
        }
        let mut unterminated: Vec<Unterminated> = if saw_term_records {
            last_event
                .values()
                .filter(|e| !terminated.contains(&e.proc))
                .map(|e| Unterminated {
                    proc: e.proc,
                    last_idx: e.idx,
                    last_ms: e.cpu_time,
                })
                .collect()
        } else {
            Vec::new()
        };
        unterminated.sort_by_key(|u| u.proc);

        DebugReport {
            blocked_receives,
            lost_sends: pairing.unmatched_sends.clone(),
            unterminated,
        }
    }

    /// Whether the trace looks healthy: nothing blocked, nothing
    /// hanging.
    pub fn is_clean(&self) -> bool {
        self.blocked_receives.is_empty() && self.unterminated.is_empty()
    }
}

impl fmt::Display for DebugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() && self.lost_sends.is_empty() {
            return writeln!(
                f,
                "no anomalies: all receives completed, all processes terminated"
            );
        }
        for b in &self.blocked_receives {
            writeln!(
                f,
                "BLOCKED: {} receiving on socket {} since t={} ms (event #{})",
                b.proc, b.sock, b.since_ms, b.idx
            )?;
        }
        if !self.lost_sends.is_empty() {
            writeln!(f, "LOST: {} sends never received", self.lost_sends.len())?;
        }
        for u in &self.unterminated {
            writeln!(
                f,
                "UNTERMINATED: {} last seen at t={} ms (event #{})",
                u.proc, u.last_ms, u.last_idx
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    const HUNG: &str = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=3 msgLength=10 destName=inet:1:53
event=receivecall machine=1 cpuTime=5 procTime=0 traceType=2 pid=2 pc=1 sock=7
event=termproc machine=0 cpuTime=9 procTime=0 traceType=10 pid=1 pc=2 reason=0
";

    #[test]
    fn detects_the_classic_hang() {
        // The datagram was lost; process 2 blocks in receive forever.
        let t = Trace::parse(HUNG);
        let p = Pairing::analyze(&t);
        let r = DebugReport::analyze(&t, &p);
        assert_eq!(r.blocked_receives.len(), 1);
        assert_eq!(r.blocked_receives[0].proc, ProcKey { machine: 1, pid: 2 });
        assert_eq!(r.blocked_receives[0].sock, 7);
        assert_eq!(r.lost_sends, vec![0]);
        assert_eq!(r.unterminated.len(), 1, "process 2 never terminated");
        assert!(!r.is_clean());
        let shown = r.to_string();
        assert!(shown.contains("BLOCKED"));
        assert!(shown.contains("LOST"));
        assert!(shown.contains("UNTERMINATED"));
    }

    #[test]
    fn completed_receive_clears_the_call() {
        let log = "\
event=receivecall machine=0 cpuTime=1 procTime=0 traceType=2 pid=1 pc=1 sock=3
event=receive machine=0 cpuTime=2 procTime=0 traceType=3 pid=1 pc=1 sock=3 msgLength=4 sourceName=inet:1:9
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let r = DebugReport::analyze(&t, &p);
        assert!(r.blocked_receives.is_empty());
    }

    #[test]
    fn calls_complete_fifo_per_socket() {
        let log = "\
event=receivecall machine=0 cpuTime=1 procTime=0 traceType=2 pid=1 pc=1 sock=3
event=receivecall machine=0 cpuTime=2 procTime=0 traceType=2 pid=1 pc=2 sock=3
event=receive machine=0 cpuTime=3 procTime=0 traceType=3 pid=1 pc=1 sock=3 msgLength=4 sourceName=inet:1:9
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let r = DebugReport::analyze(&t, &p);
        assert_eq!(r.blocked_receives.len(), 1);
        assert_eq!(r.blocked_receives[0].idx, 1, "the second call is pending");
    }

    #[test]
    fn no_term_records_means_no_unterminated_verdicts() {
        let log = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=3 msgLength=1 destName=inet:1:9
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let r = DebugReport::analyze(&t, &p);
        assert!(r.unterminated.is_empty(), "termproc was not metered");
    }

    #[test]
    fn clean_trace_reports_clean() {
        let log = "\
event=receivecall machine=0 cpuTime=1 procTime=0 traceType=2 pid=1 pc=1 sock=3
event=receive machine=0 cpuTime=2 procTime=0 traceType=3 pid=1 pc=1 sock=3 msgLength=4 sourceName=inet:1:9
event=termproc machine=0 cpuTime=3 procTime=0 traceType=10 pid=1 pc=2 reason=0
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let r = DebugReport::analyze(&t, &p);
        assert!(r.is_clean());
        assert!(r.to_string().contains("no anomalies"));
    }
}
