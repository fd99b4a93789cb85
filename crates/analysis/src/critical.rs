//! Critical-path analysis — the extension the paper's lineage points
//! at.
//!
//! Miller's follow-up to this monitor (IPS, 1988) turned its traces
//! into *critical paths*: the longest chain of work through the
//! happens-before graph, which bounds the computation's elapsed time
//! and names the processes worth optimizing. This module implements
//! that analysis over the same traces.
//!
//! Edge weights use only information that is sound without
//! synchronized clocks: a program-order edge between two events of one
//! process weighs its `procTime` delta (CPU actually charged between
//! them); message edges weigh zero (their true latency is not
//! deducible from skewed stamps). The critical path is therefore the
//! heaviest *work* chain, a lower bound on elapsed time.

use crate::hb::HappensBefore;
use crate::trace::{ProcKey, Trace};
use std::collections::HashMap;
use std::fmt;

/// One step of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// Trace index of the event ending this step.
    pub idx: usize,
    /// The process that did the work.
    pub proc: ProcKey,
    /// CPU ms charged on the incoming program-order edge (0 for the
    /// first event of a process or a message hop).
    pub work_ms: u32,
}

/// The critical path of a computation.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// The path, source to sink.
    pub steps: Vec<PathStep>,
    /// Total CPU ms along the path.
    pub total_work_ms: u64,
    /// CPU ms along the path attributed to each process.
    pub work_per_proc: HashMap<ProcKey, u64>,
}

impl CriticalPath {
    /// Computes the heaviest work chain through the happens-before
    /// graph.
    pub fn analyze(trace: &Trace, hb: &HappensBefore) -> CriticalPath {
        let n = trace.events.len();
        if n == 0 {
            return CriticalPath::default();
        }
        // Weight of the program-order edge *into* each event: the
        // procTime delta from its process predecessor.
        let mut prev_proc_time: HashMap<ProcKey, u32> = HashMap::new();
        let mut in_work = vec![0u32; n];
        for (i, e) in trace.events.iter().enumerate() {
            let prev = prev_proc_time.get(&e.proc).copied().unwrap_or(0);
            in_work[i] = e.proc_time.saturating_sub(prev);
            prev_proc_time.insert(e.proc, e.proc_time.max(prev));
        }

        // Longest path over the DAG, in the topological order the
        // happens-before build already took (trace order is not one:
        // message edges may point backwards in it).
        let mut dist = vec![0u64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for i in hb.topological_order() {
            for &s in hb.successors(i) {
                let cand = dist[i] + in_work[s] as u64;
                if cand > dist[s] || (cand == dist[s] && pred[s].is_none()) {
                    dist[s] = cand;
                    pred[s] = Some(i);
                }
            }
        }
        // Also count each source's own first-edge work (in_work of a
        // source is its procTime at first event; usually 0).
        let sink = (0..n).max_by_key(|&i| dist[i]).expect("nonempty");
        let mut chain = Vec::new();
        let mut cur = Some(sink);
        while let Some(i) = cur {
            chain.push(i);
            cur = pred[i];
        }
        chain.reverse();
        let mut steps = Vec::with_capacity(chain.len());
        let mut work_per_proc: HashMap<ProcKey, u64> = HashMap::new();
        let mut total = 0u64;
        for (pos, &i) in chain.iter().enumerate() {
            let e = &trace.events[i];
            // Work counts only along program-order edges of the chain.
            let work = if pos > 0 && trace.events[chain[pos - 1]].proc == e.proc {
                in_work[i]
            } else {
                0
            };
            total += work as u64;
            *work_per_proc.entry(e.proc).or_default() += work as u64;
            steps.push(PathStep {
                idx: i,
                proc: e.proc,
                work_ms: work,
            });
        }
        CriticalPath {
            steps,
            total_work_ms: total,
            work_per_proc,
        }
    }

    /// The process carrying the most critical-path work — the first
    /// place to optimize.
    pub(crate) fn dominant_process(&self) -> Option<(ProcKey, u64)> {
        self.work_per_proc
            .iter()
            .max_by_key(|(p, w)| (**w, std::cmp::Reverse(*p)))
            .map(|(p, w)| (*p, *w))
    }

    /// Number of cross-process hops on the path.
    pub(crate) fn hops(&self) -> usize {
        self.steps
            .windows(2)
            .filter(|w| w[0].proc != w[1].proc)
            .count()
    }
}

impl fmt::Display for CriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path: {} ms of work over {} events, {} cross-process hops",
            self.total_work_ms,
            self.steps.len(),
            self.hops()
        )?;
        if let Some((p, w)) = self.dominant_process() {
            writeln!(f, "dominant process: {p} with {w} ms on the path")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Pairing;
    use crate::trace::Trace;

    /// p1 does 30 ms then sends; p2 receives then does 50 ms. The
    /// critical path is the 80 ms chain through both.
    const CHAIN: &str = "\
event=socket machine=0 cpuTime=0 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=2 protocol=0
event=send machine=0 cpuTime=30 procTime=30 traceType=1 pid=1 pc=2 sock=1 msgLength=8 destName=inet:1:9
event=receive machine=1 cpuTime=5 procTime=0 traceType=3 pid=2 pc=1 sock=2 msgLength=8 sourceName=inet:0:1024
event=termproc machine=1 cpuTime=55 procTime=50 traceType=10 pid=2 pc=2 reason=0
";

    /// Two independent processes: 30 ms and 50 ms. The critical path
    /// is the heavier one alone.
    const INDEP: &str = "\
event=socket machine=0 cpuTime=0 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=2 protocol=0
event=termproc machine=0 cpuTime=30 procTime=30 traceType=10 pid=1 pc=2 reason=0
event=socket machine=1 cpuTime=0 procTime=0 traceType=4 pid=2 pc=1 sock=1 domain=2 type=2 protocol=0
event=termproc machine=1 cpuTime=50 procTime=50 traceType=10 pid=2 pc=2 reason=0
";

    fn build(log: &str) -> (Trace, CriticalPath) {
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let hb = HappensBefore::build(&t, &p);
        let cp = CriticalPath::analyze(&t, &hb);
        (t, cp)
    }

    #[test]
    fn chain_accumulates_both_processes() {
        let (_t, cp) = build(CHAIN);
        assert_eq!(cp.total_work_ms, 80, "30 + 50 along the causal chain");
        assert_eq!(cp.hops(), 1, "one message hop");
        assert_eq!(cp.work_per_proc[&ProcKey { machine: 0, pid: 1 }], 30);
        assert_eq!(cp.work_per_proc[&ProcKey { machine: 1, pid: 2 }], 50);
        let (dom, w) = cp.dominant_process().unwrap();
        assert_eq!((dom.pid, w), (2, 50));
    }

    #[test]
    fn independent_work_takes_the_heavier_branch() {
        let (_t, cp) = build(INDEP);
        assert_eq!(cp.total_work_ms, 50, "only the heavier process");
        assert_eq!(cp.hops(), 0);
        assert_eq!(cp.dominant_process().unwrap().0.pid, 2);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let (_t, cp) = build("");
        assert!(cp.steps.is_empty());
        assert_eq!(cp.total_work_ms, 0);
        assert!(cp.dominant_process().is_none());
    }

    #[test]
    fn display_summarizes() {
        let (_t, cp) = build(CHAIN);
        let s = cp.to_string();
        assert!(s.contains("80 ms of work"), "{s}");
        assert!(s.contains("dominant process"), "{s}");
    }
}
