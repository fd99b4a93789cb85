//! Measurement of parallelism.
//!
//! The paper lists "measurement of parallelism" among the analyses
//! performed with the tools (§3.3). With only event records to go on,
//! the measure is built from the `procTime` deltas between successive
//! events of each process: the CPU time a process accumulated between
//! two of its events is work it did in that interval.
//!
//! "The process time allows the estimation of the amount of work
//! necessary between two events. The granularity of this measure is
//! large, however. CPU use is updated in increments of 10ms. Estimates
//! based on the reported values must recognize this limitation."
//! (§4.1) — the docs of [`ParallelismReport`] restate this caveat.

use crate::trace::{ProcKey, Trace};
use std::collections::HashMap;
use std::fmt;

/// A per-process busy interval on its machine's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySlice {
    /// The process.
    pub proc: ProcKey,
    /// Interval start (machine-local ms).
    pub start_ms: u32,
    /// Interval end.
    pub end_ms: u32,
    /// CPU ms charged within the interval (10 ms granularity).
    pub busy_ms: u32,
}

/// The parallelism profile of a computation.
///
/// All clock arithmetic is per machine; the cross-machine aggregate
/// (`speedup`) divides total busy time by the longest per-machine
/// span, which is exactly the bound an observer without synchronized
/// clocks can justify. Remember the 10 ms `procTime` granularity when
/// reading small numbers.
#[derive(Debug, Clone, Default)]
pub struct ParallelismReport {
    /// Busy slices per process, in trace order.
    pub slices: Vec<BusySlice>,
    /// Total CPU ms per process.
    pub busy_per_proc: HashMap<ProcKey, u32>,
    /// Total busy ms across all processes.
    pub total_busy_ms: u64,
    /// The longest machine span, ms.
    pub max_span_ms: u32,
}

impl ParallelismReport {
    /// Builds the profile from a trace.
    pub fn analyze(trace: &Trace) -> ParallelismReport {
        let mut slices = Vec::new();
        let mut busy_per_proc: HashMap<ProcKey, u32> = HashMap::new();
        let mut last: HashMap<ProcKey, (u32, u32)> = HashMap::new(); // (cpu_time, proc_time)
        let mut span: HashMap<u32, (u32, u32)> = HashMap::new(); // machine → (min, max)

        for e in &trace.events {
            let s = span
                .entry(e.proc.machine)
                .or_insert((e.cpu_time, e.cpu_time));
            s.0 = s.0.min(e.cpu_time);
            s.1 = s.1.max(e.cpu_time);
            if let Some((t0, p0)) = last.get(&e.proc).copied() {
                let busy = e.proc_time.saturating_sub(p0);
                if busy > 0 {
                    slices.push(BusySlice {
                        proc: e.proc,
                        start_ms: t0,
                        end_ms: e.cpu_time.max(t0),
                        busy_ms: busy,
                    });
                }
            }
            let entry = busy_per_proc.entry(e.proc).or_insert(0);
            *entry = (*entry).max(e.proc_time);
            last.insert(e.proc, (e.cpu_time, e.proc_time));
        }

        let total_busy_ms = busy_per_proc.values().map(|&v| v as u64).sum();
        // A machine's span is its max stamp − min stamp.
        let max_span_ms = span.values().map(|&(lo, hi)| hi - lo).max().unwrap_or(0);
        ParallelismReport {
            slices,
            busy_per_proc,
            total_busy_ms,
            max_span_ms,
        }
    }

    /// Busy time divided by the longest machine span: the effective
    /// number of concurrently busy processors. 0 when the trace spans
    /// no time.
    pub fn speedup(&self) -> f64 {
        if self.max_span_ms == 0 {
            0.0
        } else {
            self.total_busy_ms as f64 / self.max_span_ms as f64
        }
    }
}

impl fmt::Display for ParallelismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total busy {} ms over a span of {} ms → parallelism {:.2}",
            self.total_busy_ms,
            self.max_span_ms,
            self.speedup()
        )?;
        let mut procs: Vec<&ProcKey> = self.busy_per_proc.keys().collect();
        procs.sort();
        for p in procs {
            writeln!(
                f,
                "  {:<10} busy {} ms",
                p.to_string(),
                self.busy_per_proc[p]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// Two processes on two machines, each busy 100 ms over a 100 ms
    /// span: parallelism 2.
    const PARALLEL: &str = "\
event=socket machine=0 cpuTime=0 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=1 protocol=0
event=termproc machine=0 cpuTime=100 procTime=100 traceType=10 pid=1 pc=2 reason=0
event=socket machine=1 cpuTime=0 procTime=0 traceType=4 pid=2 pc=1 sock=1 domain=2 type=1 protocol=0
event=termproc machine=1 cpuTime=100 procTime=100 traceType=10 pid=2 pc=2 reason=0
";

    /// Two processes alternating on one timeline: parallelism ~1.
    const SEQUENTIAL: &str = "\
event=socket machine=0 cpuTime=0 procTime=0 traceType=4 pid=1 pc=1 sock=1 domain=2 type=1 protocol=0
event=termproc machine=0 cpuTime=100 procTime=50 traceType=10 pid=1 pc=2 reason=0
event=socket machine=0 cpuTime=100 procTime=0 traceType=4 pid=2 pc=1 sock=1 domain=2 type=1 protocol=0
event=termproc machine=0 cpuTime=200 procTime=50 traceType=10 pid=2 pc=2 reason=0
";

    #[test]
    fn parallel_computation_shows_speedup_two() {
        let r = ParallelismReport::analyze(&Trace::parse(PARALLEL));
        assert_eq!(r.total_busy_ms, 200);
        assert_eq!(r.max_span_ms, 100);
        assert!((r.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_computation_shows_speedup_half() {
        let r = ParallelismReport::analyze(&Trace::parse(SEQUENTIAL));
        assert_eq!(r.total_busy_ms, 100);
        assert_eq!(r.max_span_ms, 200);
        assert!((r.speedup() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_slices_between_events() {
        let r = ParallelismReport::analyze(&Trace::parse(PARALLEL));
        assert_eq!(r.slices.len(), 2);
        assert_eq!(r.slices[0].busy_ms, 100);
        assert_eq!(r.slices[0].start_ms, 0);
        assert_eq!(r.slices[0].end_ms, 100);
    }

    #[test]
    fn empty_trace_reports_zero() {
        let r = ParallelismReport::analyze(&Trace::default());
        assert_eq!(r.speedup(), 0.0);
        assert_eq!(r.total_busy_ms, 0);
    }

    #[test]
    fn display_renders() {
        let r = ParallelismReport::analyze(&Trace::parse(PARALLEL));
        let s = r.to_string();
        assert!(s.contains("parallelism 2.00"));
        assert!(s.contains("m0:p1"));
    }
}
