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

/// "No event": the program successor of a process's last event, and
/// the row of an event that will get one of its own.
const NONE: u32 = u32::MAX;

/// The happens-before relation over a trace.
///
/// Sized by the edges, not by events × processes: the successor lists
/// are one CSR pair (compressed sparse rows — `succ_off` offsets into
/// one flat `succ`), and a vector-clock row is stored only where the
/// clock learns something from another process, at an event with an
/// incoming message edge. Every other event shares its program
/// predecessor's row and adds only its own component.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HappensBefore {
    /// `succ[succ_off[i]..succ_off[i + 1]]` are the events directly
    /// after event `i`: its same-process successor first, then its
    /// message edges in pairing order.
    succ_off: Vec<usize>,
    succ: Vec<usize>,
    /// Lamport clock per event.
    lamport: Vec<u64>,
    /// Number of processes: the width of every vector clock.
    width: usize,
    /// Each event's process, as its index in first-appearance order.
    proc: Vec<u32>,
    /// Each event's own clock component: its 1-based position in its
    /// process, or 0 if the topological pass never reached it.
    local: Vec<u32>,
    /// Each event's clock row in `rows`; row 0 is all zeros.
    row: Vec<u32>,
    /// The row arena, `width` components (one per process) in each
    /// row. A row's component at the process of a reached event
    /// using it is stale: the event's `local` overrides it. An event
    /// the pass never reached reads its whole clock from its row.
    rows: Vec<u64>,
    /// The events the topological pass reached, in the order it took
    /// them. It misses some exactly when the edges contain a cycle.
    topo: Vec<u32>,
}

impl HappensBefore {
    /// Builds the relation from a trace and its message pairing.
    ///
    /// Events are assumed to appear in each process's local order in
    /// the trace (true of any filter log: each meter connection is an
    /// ordered stream and records carry monotone local stamps).
    pub fn build(trace: &Trace, pairing: &Pairing) -> HappensBefore {
        let n = trace.events.len();
        // Processes in first-appearance order (as `Trace::processes`),
        // each event's process and position in it, and program order.
        let mut proc_index: HashMap<ProcKey, usize> = HashMap::new();
        let mut proc = Vec::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        let mut last: Vec<(u32, u32)> = Vec::new();
        let mut next = vec![NONE; n];
        for (i, e) in trace.events.iter().enumerate() {
            let fresh = proc_index.len();
            let p = *proc_index.entry(e.proc).or_insert(fresh);
            if p == fresh {
                last.push((NONE, 0));
            }
            let (prev, count) = &mut last[p];
            if *prev != NONE {
                next[*prev as usize] = i as u32;
            }
            *prev = i as u32;
            *count += 1;
            proc.push(p as u32);
            local.push(*count);
        }
        let width = proc_index.len();
        let messages = || {
            pairing
                .messages
                .iter()
                .filter(|m| m.send_idx < n && m.recv_idx < n)
        };
        // Out-degrees, summed so `succ_off[i]` is the end of event
        // `i`'s range; filling backwards then leaves it at the start.
        let mut succ_off = vec![0usize; n + 1];
        let mut indeg = vec![0u32; n];
        for (i, &s) in next.iter().enumerate() {
            if s != NONE {
                succ_off[i] += 1;
                indeg[s as usize] += 1;
            }
        }
        for m in messages() {
            succ_off[m.send_idx] += 1;
            indeg[m.recv_idx] += 1;
        }
        for i in 1..=n {
            succ_off[i] += succ_off[i - 1];
        }
        let mut succ = vec![0usize; succ_off[n]];
        for m in messages().rev() {
            succ_off[m.send_idx] -= 1;
            succ[succ_off[m.send_idx]] = m.recv_idx;
        }
        for (i, &s) in next.iter().enumerate() {
            if s != NONE {
                succ_off[i] -= 1;
                succ[succ_off[i]] = s as usize;
            }
        }
        // An event with an incoming message edge will own a row (NONE
        // until its first predecessor is taken); any other event keeps
        // row 0 until its program predecessor hands over its own.
        let mut row = vec![0u32; n];
        let mut receives = 0;
        for i in 0..n {
            if indeg[i] > u32::from(local[i] > 1) {
                row[i] = NONE;
                receives += 1;
            }
        }
        let mut rows = Vec::with_capacity((receives + 1) * width);
        rows.resize(width, 0);

        // Lamport clocks and vector clocks in one forward pass over a
        // topological order. Trace order is already topological for
        // program edges; message edges can point backwards in trace
        // order (clock skew!), so do a proper Kahn pass.
        let mut lamport = vec![0u64; n];
        let mut topo = Vec::with_capacity(n);
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        while let Some(i) = queue.pop() {
            topo.push(i);
            let i = i as usize;
            let (ri, pi) = (row[i] as usize, proc[i] as usize);
            for &s in &succ[succ_off[i]..succ_off[i + 1]] {
                lamport[s] = lamport[s].max(lamport[i] + 1);
                let rs = match row[s] {
                    0 => {
                        row[s] = ri as u32;
                        None
                    }
                    NONE => {
                        row[s] = (rows.len() / width) as u32;
                        rows.extend_from_within(ri * width..(ri + 1) * width);
                        Some(row[s] as usize)
                    }
                    rs => {
                        let rs = rs as usize;
                        let (src, dst) = if ri < rs {
                            let (lo, hi) = rows.split_at_mut(rs * width);
                            (&lo[ri * width..][..width], &mut hi[..width])
                        } else {
                            let (lo, hi) = rows.split_at_mut(ri * width);
                            (&hi[..width], &mut lo[rs * width..][..width])
                        };
                        for (d, v) in dst.iter_mut().zip(src) {
                            *d = (*d).max(*v);
                        }
                        Some(rs)
                    }
                };
                if let Some(rs) = rs {
                    let own = &mut rows[rs * width + pi];
                    *own = (*own).max(u64::from(local[i]));
                }
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s as u32);
                }
            }
        }
        // A cycle cannot arise from a real execution (messages flow
        // forward in real time); it means the pairing heuristics
        // matched a receive to a send it was not caused by. Degrade
        // gracefully: events on or after the cycle never left Kahn's
        // queue, so their clocks hold only what reached predecessors
        // merged into them, without a tick of their own, and
        // `has_cycle` tells callers the deduced order is incomplete.
        if topo.len() != n {
            for i in (0..n).filter(|&i| indeg[i] != 0) {
                local[i] = 0;
                if row[i] == NONE {
                    row[i] = 0;
                }
            }
        }
        HappensBefore {
            succ_off,
            succ,
            lamport,
            width,
            proc,
            local,
            row,
            rows,
            topo,
        }
    }

    /// Whether the graph contained a cycle — evidence of a wrong
    /// message matching (a receive paired with a send that it could
    /// not have been caused by), never of a real execution. When true,
    /// clock-based queries are incomplete for the events the cycle
    /// blocks.
    pub fn has_cycle(&self) -> bool {
        self.topo.len() != self.lamport.len()
    }

    /// The events in the topological order the build took them, each
    /// before all its successors; the events a cycle blocks are
    /// missing.
    pub(crate) fn topological_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.topo.iter().map(|&i| i as usize)
    }

    /// Component `q` of event `b`'s vector clock.
    fn component(&self, b: usize, q: usize) -> u64 {
        if q == self.proc[b] as usize && self.local[b] != 0 {
            u64::from(self.local[b])
        } else {
            self.rows[self.row[b] as usize * self.width + q]
        }
    }

    /// Whether event `a` happens before event `b` (strictly).
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        let n = self.lamport.len();
        if a == b || a >= n || b >= n {
            return false;
        }
        if self.local[a] != 0 && self.local[b] != 0 {
            // a → b iff b's clock counts a: its component at a's
            // process reaches a's position there.
            return u64::from(self.local[a]) <= self.component(b, self.proc[a] as usize);
        }
        // A cycle blocked one of them, so its clock lacks its own tick
        // and only the whole clocks compare: Va ≤ Vb and Va ≠ Vb.
        let mut differ = false;
        for q in 0..self.width {
            let (x, y) = (self.component(a, q), self.component(b, q));
            if x > y {
                return false;
            }
            differ |= x != y;
        }
        differ
    }

    /// The Lamport clock of an event.
    pub fn lamport(&self, idx: usize) -> u64 {
        self.lamport.get(idx).copied().unwrap_or(0)
    }

    /// The vector clock of an event (one component per process of the
    /// trace).
    pub fn vector(&self, idx: usize) -> Option<Vec<u64>> {
        (idx < self.lamport.len())
            .then(|| (0..self.width).map(|q| self.component(idx, q)).collect())
    }

    /// Direct successors of an event.
    pub fn successors(&self, idx: usize) -> &[usize] {
        if idx >= self.lamport.len() {
            return &[];
        }
        &self.succ[self.succ_off[idx]..self.succ_off[idx + 1]]
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
        assert!(
            !hb.precedes(0, 1) && !hb.precedes(1, 0),
            "0 and 1 are concurrent"
        );
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
                    vi.iter().zip(&vs).all(|(a, b)| a <= b),
                    "edge {i}->{s} not monotone"
                );
            }
        }
    }

    #[test]
    fn out_of_range_indices_answer_nothing() {
        let (t, _p, hb) = build(SKEWED);
        for idx in [t.len(), t.len() + 1, usize::MAX] {
            assert!(!hb.precedes(idx, 0) && !hb.precedes(0, idx));
            assert_eq!(hb.lamport(idx), 0);
            assert_eq!(hb.vector(idx), None);
            assert_eq!(hb.successors(idx), &[] as &[usize]);
        }
    }

    #[test]
    fn empty_trace_has_no_events_and_no_cycle() {
        let (_t, _p, hb) = build("");
        assert!(!hb.has_cycle());
        assert_eq!(hb.ordered_fraction(), 1.0);
        assert_eq!(hb.vector(0), None);
        assert_eq!(hb.successors(0), &[] as &[usize]);
        assert_eq!(hb.topological_order().count(), 0);
    }

    #[test]
    fn one_process_clocks_count_its_events() {
        let log = "\
event=socket machine=0 cpuTime=1 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=1 protocol=0
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=1 pc=2 sock=1 msgLength=1 destName=inet:0:9
event=termproc machine=0 cpuTime=3 procTime=0 traceType=10 pid=1 pc=3 reason=0
";
        let (_t, _p, hb) = build(log);
        for i in 0..3 {
            assert_eq!(hb.vector(i), Some(vec![i as u64 + 1]));
            for j in 0..3 {
                assert_eq!(hb.precedes(i, j), i < j, "{i} {j}");
            }
        }
        assert_eq!(hb.successors(0), &[1]);
        assert_eq!(hb.successors(2), &[] as &[usize]);
    }

    #[test]
    fn a_receive_merges_every_incoming_message() {
        // Two 5-byte writes on one connection, read as one 10-byte
        // receive: two message edges into one event.
        let log = "\
event=connect machine=0 cpuTime=1 procTime=0 traceType=9 pid=1 pc=0 sock=5 sockName=inet:0:2000 peerName=inet:1:80
event=accept machine=1 cpuTime=1 procTime=0 traceType=8 pid=2 pc=0 sock=4 newSock=9 sockName=inet:1:80 peerName=inet:0:2000
event=send machine=0 cpuTime=2 procTime=0 traceType=1 pid=1 pc=0 sock=5 msgLength=5 destName=-
event=send machine=0 cpuTime=3 procTime=0 traceType=1 pid=1 pc=0 sock=5 msgLength=5 destName=-
event=receive machine=1 cpuTime=2 procTime=0 traceType=3 pid=2 pc=0 sock=9 msgLength=10 sourceName=-
";
        let (_t, p, hb) = build(log);
        let edges: Vec<(usize, usize)> = p
            .messages
            .iter()
            .map(|m| (m.send_idx, m.recv_idx))
            .collect();
        assert_eq!(edges, [(2, 4), (3, 4)]);
        assert_eq!(hb.successors(2), &[3, 4], "program successor first");
        assert_eq!(hb.successors(3), &[4]);
        assert_eq!(hb.vector(4), Some(vec![3, 2]));
        assert_eq!(hb.vector(1), Some(vec![0, 1]));
        assert_eq!(hb.lamport(4), 3);
        assert!(hb.precedes(2, 4) && hb.precedes(3, 4) && hb.precedes(0, 4));
        assert!(
            !hb.precedes(1, 3) && !hb.precedes(3, 1),
            "1 and 3 are concurrent"
        );
    }
}
