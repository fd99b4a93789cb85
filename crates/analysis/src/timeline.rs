//! Activity timelines: event and traffic rates over (machine-local)
//! time.
//!
//! A companion to the parallelism measure: bucket each machine's
//! events by its own clock — cross-machine clocks are not comparable
//! (§4.1), so every machine gets its own timeline — and report event
//! counts and bytes per bucket. This is the figure one draws first
//! when looking for phases, stalls, and hot spots in a computation.

use crate::trace::{EventKind, Trace};
use std::collections::BTreeMap;
use std::fmt;

/// One bucket of one machine's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bucket {
    /// Events stamped inside the bucket.
    pub events: u32,
    /// Bytes sent by processes of this machine in the bucket.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_recv: u64,
}

/// Per-machine activity timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Bucket width in machine-local milliseconds.
    pub bucket_ms: u32,
    /// `machine → (bucket start ms → bucket)`, sparsely populated.
    pub machines: BTreeMap<u32, BTreeMap<u32, Bucket>>,
}

impl Timeline {
    /// Buckets a trace with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_ms` is zero.
    pub fn analyze(trace: &Trace, bucket_ms: u32) -> Timeline {
        assert!(bucket_ms > 0, "bucket width must be positive");
        let mut machines: BTreeMap<u32, BTreeMap<u32, Bucket>> = BTreeMap::new();
        for e in &trace.events {
            let start = (e.cpu_time / bucket_ms) * bucket_ms;
            let b = machines
                .entry(e.proc.machine)
                .or_default()
                .entry(start)
                .or_default();
            b.events += 1;
            match &e.kind {
                EventKind::Send { len, .. } => b.bytes_sent += *len as u64,
                EventKind::Recv { len, .. } => b.bytes_recv += *len as u64,
                _ => {}
            }
        }
        Timeline {
            bucket_ms,
            machines,
        }
    }
}

impl fmt::Display for Timeline {
    /// A terminal-friendly sparkline per machine: one `#`-bar per
    /// bucket, scaled to the global peak.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self
            .machines
            .values()
            .flat_map(|tl| tl.values())
            .map(|b| b.events)
            .max()
            .unwrap_or(1)
            .max(1);
        for (m, tl) in &self.machines {
            writeln!(
                f,
                "machine {m} ({} buckets of {} ms):",
                tl.len(),
                self.bucket_ms
            )?;
            for (t, b) in tl {
                let width = (b.events * 40).div_ceil(peak) as usize;
                writeln!(
                    f,
                    "  {:>8} ms |{:<40}| {:>4} ev {:>7}B out {:>7}B in",
                    t,
                    "#".repeat(width),
                    b.events,
                    b.bytes_sent,
                    b.bytes_recv
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    const LOG: &str = "\
event=send machine=0 cpuTime=5 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=100 destName=inet:1:9
event=send machine=0 cpuTime=8 procTime=0 traceType=1 pid=1 pc=2 sock=1 msgLength=50 destName=inet:1:9
event=send machine=0 cpuTime=35 procTime=0 traceType=1 pid=1 pc=3 sock=1 msgLength=25 destName=inet:1:9
event=receive machine=1 cpuTime=12 procTime=0 traceType=3 pid=2 pc=1 sock=2 msgLength=100 sourceName=inet:0:7
";

    #[test]
    fn buckets_count_events_and_bytes() {
        let t = Timeline::analyze(&Trace::parse(LOG), 10);
        let m0 = &t.machines[&0];
        assert_eq!(m0[&0].events, 2);
        assert_eq!(m0[&0].bytes_sent, 150);
        assert_eq!(m0[&30].events, 1);
        let m1 = &t.machines[&1];
        assert_eq!(m1[&10].bytes_recv, 100);
    }

    #[test]
    fn display_draws_bars() {
        let t = Timeline::analyze(&Trace::parse(LOG), 10);
        let s = t.to_string();
        assert!(s.contains("machine 0"));
        assert!(s.contains('#'));
        assert!(s.contains("150B out") || s.contains("150"), "{s}");
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let _ = Timeline::analyze(&Trace::default(), 0);
    }

    #[test]
    fn empty_trace_is_empty_timeline() {
        let t = Timeline::analyze(&Trace::default(), 10);
        assert!(t.machines.is_empty());
    }
}
