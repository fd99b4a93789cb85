//! Partial global ordering of events — happens-before.
//!
//! "Statements regarding the global ordering of events can only be
//! made on the basis of evidence within the trace. For example, since
//! a message must be sent before it may be received, the times of
//! sending and receiving a message can always be ordered relative to
//! one another. Given these constraints, much of the global ordering
//! can be deduced." (§4.1)
//!
//! The construction is Lamport's (the paper cites [Lamport 78]): each
//! process's events are totally ordered by their position in its local
//! stream, and every matched message contributes a send→receive edge.
//! The result is a DAG whose reachability *is* the deducible global
//! order.

use crate::pairing::Pairing;
use crate::trace::{ProcKey, Trace};
use std::collections::HashMap;

/// The happens-before relation over a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HappensBefore {
    /// Successor lists: `succs[i]` are events directly after event `i`
    /// (same-process successor and message edges).
    succs: Vec<Vec<usize>>,
    /// Lamport clock per event.
    lamport: Vec<u64>,
    /// Vector-clock index per process.
    proc_index: HashMap<ProcKey, usize>,
    /// Vector clock per event: one row-major arena, row `i` (one
    /// component per process of `proc_index`) is event `i`'s clock.
    vclock: Vec<u64>,
    /// Whether the edge set contained a cycle — evidence of a wrong
    /// message matching (a receive paired with a send that it could
    /// not have been caused by), never of a real execution.
    has_cycle: bool,
}

impl HappensBefore {
    /// Builds the relation from a trace and its message pairing.
    ///
    /// Events are assumed to appear in each process's local order in
    /// the trace (true of any filter log: each meter connection is an
    /// ordered stream and records carry monotone local stamps).
    pub fn build(trace: &Trace, pairing: &Pairing) -> HappensBefore {
        let n = trace.events.len();
        let mut succs = vec![Vec::new(); n];
        // Program order.
        let mut last_of: HashMap<ProcKey, usize> = HashMap::new();
        for (i, e) in trace.events.iter().enumerate() {
            if let Some(&prev) = last_of.get(&e.proc) {
                succs[prev].push(i);
            }
            last_of.insert(e.proc, i);
        }
        // Message order.
        for m in &pairing.messages {
            if m.send_idx < n && m.recv_idx < n {
                succs[m.send_idx].push(m.recv_idx);
            }
        }
        // Lamport clocks and vector clocks in one forward pass over a
        // topological order. Trace order is already topological for
        // program edges; message edges can point backwards in trace
        // order (clock skew!), so do a proper Kahn pass.
        let procs = trace.processes();
        let proc_index: HashMap<ProcKey, usize> =
            procs.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut indeg = vec![0usize; n];
        for ss in &succs {
            for &s in ss {
                indeg[s] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut lamport = vec![0u64; n];
        let width = procs.len();
        let mut vclock = vec![0u64; n * width];
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            let pi = proc_index[&trace.events[i].proc];
            vclock[i * width + pi] += 1;
            for &s in &succs[i] {
                lamport[s] = lamport[s].max(lamport[i] + 1);
                let (a, b) = if i < s {
                    let (lo, hi) = vclock.split_at_mut(s * width);
                    (&lo[i * width..][..width], &mut hi[..width])
                } else {
                    let (lo, hi) = vclock.split_at_mut(i * width);
                    (&hi[..width], &mut lo[s * width..][..width])
                };
                for (bv, av) in b.iter_mut().zip(a.iter()) {
                    *bv = (*bv).max(*av);
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        // A cycle cannot arise from a real execution (messages flow
        // forward in real time); it means the pairing heuristics
        // matched a receive to a send it was not caused by. Degrade
        // gracefully: events on the cycle keep zeroed clocks (they
        // never left Kahn's queue) and the flag tells callers the
        // deduced order is incomplete.
        let has_cycle = seen != n;
        HappensBefore {
            succs,
            lamport,
            proc_index,
            vclock,
            has_cycle,
        }
    }

    /// Whether the graph contained a cycle (see [`HappensBefore`]
    /// field docs); when true, clock-based queries are incomplete for
    /// the events on the cycle.
    pub fn has_cycle(&self) -> bool {
        self.has_cycle
    }

    /// Whether event `a` happens before event `b` (strictly).
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        // Vector-clock comparison: a → b iff Va ≤ Vb and Va ≠ Vb …
        // but our per-event vector clocks count events per process, so
        // a → b iff Va ≤ Vb componentwise (a's knowledge is contained
        // in b's) and they differ.
        let (Some(va), Some(vb)) = (self.vector(a), self.vector(b)) else {
            return false;
        };
        va.iter().zip(vb).all(|(x, y)| x <= y) && va != vb
    }

    /// Whether two events are concurrent (neither precedes the other).
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.precedes(a, b) && !self.precedes(b, a)
    }

    /// The Lamport clock of an event.
    pub fn lamport(&self, idx: usize) -> u64 {
        self.lamport.get(idx).copied().unwrap_or(0)
    }

    /// The vector clock of an event (indexed per
    /// [`HappensBefore::process_index`]).
    pub fn vector(&self, idx: usize) -> Option<&[u64]> {
        let width = self.proc_index.len();
        (idx < self.lamport.len()).then(|| &self.vclock[idx * width..][..width])
    }

    /// The vector-clock component index of a process.
    pub fn process_index(&self, p: ProcKey) -> Option<usize> {
        self.proc_index.get(&p).copied()
    }

    /// Direct successors of an event.
    pub fn successors(&self, idx: usize) -> &[usize] {
        self.succs.get(idx).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The fraction of event pairs that are ordered by the relation,
    /// in `[0, 1]` — a measure of how much of the global ordering the
    /// trace lets us deduce. 1 means a total order (fully sequential
    /// computation); lower values mean more genuine concurrency.
    pub fn ordered_fraction(&self) -> f64 {
        let n = self.lamport.len();
        if n < 2 {
            return 1.0;
        }
        let mut ordered = 0u64;
        let mut total = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                total += 1;
                if self.precedes(a, b) || self.precedes(b, a) {
                    ordered += 1;
                }
            }
        }
        ordered as f64 / total as f64
    }

    /// Verifies that local timestamps respect the deduced order *per
    /// machine*: if `a → b` and both events are on the same machine,
    /// then `cpuTime(a) <= cpuTime(b)`. Cross-machine stamps carry no
    /// such guarantee (§4.1). Returns the violating pairs.
    pub fn clock_anomalies(&self, trace: &Trace) -> Vec<(usize, usize)> {
        let mut bad = Vec::new();
        for (i, e) in trace.events.iter().enumerate() {
            for &s in self.successors(i) {
                let e2 = &trace.events[s];
                if e.proc.machine == e2.proc.machine && e.cpu_time > e2.cpu_time {
                    bad.push((i, s));
                }
            }
        }
        bad
    }

    /// Send/receive pairs whose *cross-machine* timestamps run
    /// backwards (receive stamped before send) — direct evidence of
    /// clock skew, the phenomenon that makes happens-before necessary.
    pub fn skew_evidence(&self, trace: &Trace, pairing: &Pairing) -> Vec<(usize, usize)> {
        pairing
            .messages
            .iter()
            .filter(|m| {
                let s = &trace.events[m.send_idx];
                let r = &trace.events[m.recv_idx];
                s.proc.machine != r.proc.machine && r.cpu_time < s.cpu_time
            })
            .map(|m| (m.send_idx, m.recv_idx))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Pairing;
    use crate::trace::Trace;

    /// m0:p1 sends to m1:p2; receiver's clock is behind, so the
    /// receive is stamped *earlier* than the send.
    const SKEWED: &str = "\
event=send machine=0 cpuTime=1000 procTime=0 traceType=1 pid=1 pc=1 sock=3 msgLength=10 destName=inet:1:53
event=receive machine=1 cpuTime=400 procTime=0 traceType=3 pid=2 pc=1 sock=7 msgLength=10 sourceName=inet:0:1024
event=send machine=1 cpuTime=410 procTime=0 traceType=1 pid=2 pc=2 sock=7 msgLength=5 destName=inet:0:1024
event=receive machine=0 cpuTime=1050 procTime=0 traceType=3 pid=1 pc=2 sock=3 msgLength=5 sourceName=inet:1:53
";

    fn build(log: &str) -> (Trace, Pairing, HappensBefore) {
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let hb = HappensBefore::build(&t, &p);
        (t, p, hb)
    }

    #[test]
    fn send_precedes_receive_despite_clock_skew() {
        let (_t, p, hb) = build(SKEWED);
        assert_eq!(p.messages.len(), 2);
        assert!(hb.precedes(0, 1), "send → recv");
        assert!(hb.precedes(0, 3), "transitively through the reply");
        assert!(!hb.precedes(1, 0));
        assert!(hb.lamport(1) > hb.lamport(0));
    }

    #[test]
    fn skew_evidence_detects_backwards_stamps() {
        let (t, p, hb) = build(SKEWED);
        let ev = hb.skew_evidence(&t, &p);
        assert_eq!(ev, vec![(0, 1)], "first message's stamps run backwards");
        assert!(hb.clock_anomalies(&t).is_empty(), "per-machine order holds");
    }

    #[test]
    fn concurrent_events_are_detected() {
        let log = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=1 destName=inet:9:9
event=send machine=1 cpuTime=1 procTime=0 traceType=1 pid=2 pc=1 sock=1 msgLength=1 destName=inet:9:8
";
        let (_t, _p, hb) = build(log);
        assert!(hb.concurrent(0, 1));
        assert!(!hb.concurrent(0, 0));
        assert_eq!(hb.ordered_fraction(), 0.0);
    }

    #[test]
    fn fully_sequential_trace_is_totally_ordered() {
        let log = "\
event=socket machine=0 cpuTime=1 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=1 protocol=0
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=1 pc=2 sock=1 msgLength=1 destName=inet:0:9
event=termproc machine=0 cpuTime=3 procTime=0 traceType=10 pid=1 pc=3 reason=0
";
        let (_t, _p, hb) = build(log);
        assert_eq!(hb.ordered_fraction(), 1.0);
        assert_eq!(hb.lamport(0), 0);
        assert_eq!(hb.lamport(2), 2);
    }

    #[test]
    fn ordered_fraction_mixes_program_and_message_order() {
        let (_t, _p, hb) = build(SKEWED);
        // 4 events, all ordered through the request/reply chain.
        assert_eq!(hb.ordered_fraction(), 1.0);
    }

    #[test]
    fn wrong_matching_cycle_is_flagged_not_fatal() {
        use crate::pairing::MatchedMessage;
        use crate::trace::ProcKey;
        // Two events pointing at each other — impossible in a real
        // execution, so only a broken pairing produces it. The build
        // must survive and report the cycle.
        let log = "\
event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=9 destName=inet:1:5
event=send machine=1 cpuTime=1 procTime=0 traceType=1 pid=2 pc=1 sock=1 msgLength=9 destName=inet:0:5
";
        let t = Trace::parse(log);
        let a = ProcKey { machine: 0, pid: 1 };
        let b = ProcKey { machine: 1, pid: 2 };
        let mut p = Pairing::default();
        for (s, r, f, to) in [(0, 1, a, b), (1, 0, b, a)] {
            p.messages.push(MatchedMessage {
                send_idx: s,
                recv_idx: r,
                from: f,
                to,
                bytes: 9,
            });
        }
        let hb = HappensBefore::build(&t, &p);
        assert!(hb.has_cycle());
        // A sound build over the same trace reports no cycle.
        let sound = HappensBefore::build(&t, &Pairing::analyze(&t));
        assert!(!sound.has_cycle());
    }

    #[test]
    fn vector_clocks_are_componentwise_monotone_along_edges() {
        let (t, _p, hb) = build(SKEWED);
        for i in 0..t.len() {
            for &s in hb.successors(i) {
                let vi = hb.vector(i).unwrap();
                let vs = hb.vector(s).unwrap();
                assert!(
                    vi.iter().zip(vs).all(|(a, b)| a <= b),
                    "edge {i}->{s} not monotone"
                );
            }
        }
    }
}
