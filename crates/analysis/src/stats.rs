//! Communication statistics.
//!
//! One of the analyses the paper reports using the tools for
//! ("communications statistics", §3.3): message and byte counts per
//! process and per process pair, plus clock-offset estimates between
//! machine pairs derived from matched messages — the trace-only
//! equivalent of what TEMPO (cited in §1.1) measures on the wire.

use crate::pairing::Pairing;
use crate::trace::{EventKind, ProcKey, Trace};
use std::collections::HashMap;
use std::fmt;

/// A power-of-two histogram of message sizes — the classic first
/// figure of any communication study. Bucket 0 counts messages of 0
/// or 1 bytes; bucket `i > 0` counts `2^(i-1) < len <= 2^i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SizeHistogram {
    /// Counts per power-of-two bucket.
    pub buckets: Vec<u64>,
    /// Total messages counted.
    pub total: u64,
}

impl SizeHistogram {
    /// Builds the histogram over all send events of a trace.
    pub(crate) fn of_sends(trace: &Trace) -> SizeHistogram {
        let mut h = SizeHistogram::default();
        for e in &trace.events {
            if let EventKind::Send { len, .. } = e.kind {
                h.add(len);
            }
        }
        h
    }

    /// Adds one message of `len` bytes.
    pub fn add(&mut self, len: u32) {
        let bucket = if len <= 1 {
            0
        } else {
            (32 - (len - 1).leading_zeros()) as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.total += 1;
    }

    /// The bucket's inclusive byte range, for labelling.
    pub(crate) fn range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1 + 1)
        }
    }
}

impl fmt::Display for SizeHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = SizeHistogram::range(i);
            let width = ((n * 30).div_ceil(peak)) as usize;
            writeln!(f, "{:>7}-{:<7} |{:<30}| {}", lo, hi, "#".repeat(width), n)?;
        }
        writeln!(f, "{} messages", self.total)
    }
}

/// Per-process communication counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStats {
    /// Send events.
    pub sends: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Receive events (completed).
    pub recvs: u64,
    /// Bytes received.
    pub bytes_recv: u64,
    /// Receive calls (including those that blocked).
    pub recv_calls: u64,
    /// Sockets created.
    pub sockets: u64,
    /// Connections initiated.
    pub connects: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Final CPU time charged (ms, 10 ms granularity).
    pub cpu_ms: u32,
}

impl ProcStats {
    /// Folds one event of this process into the counters — the
    /// per-event primitive both the batch sweep in
    /// [`CommStats::analyze`] and live incremental consumers use.
    pub fn record(&mut self, e: &crate::trace::Event) {
        self.cpu_ms = self.cpu_ms.max(e.proc_time);
        match &e.kind {
            EventKind::Send { len, .. } => {
                self.sends += 1;
                self.bytes_sent += *len as u64;
            }
            EventKind::Recv { len, .. } => {
                self.recvs += 1;
                self.bytes_recv += *len as u64;
            }
            EventKind::RecvCall => self.recv_calls += 1,
            EventKind::Socket { .. } => self.sockets += 1,
            EventKind::Connect { .. } => self.connects += 1,
            EventKind::Accept { .. } => self.accepts += 1,
            _ => {}
        }
    }
}

/// Whole-trace communication statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Counters per process.
    pub per_proc: HashMap<ProcKey, ProcStats>,
    /// Messages and bytes per ordered (from, to) pair, recovered by
    /// the pairing analysis.
    pub per_pair: HashMap<(ProcKey, ProcKey), (u64, u64)>,
    /// Matched messages.
    pub matched: u64,
    /// Sends never matched to a receive (lost datagrams or unread
    /// bytes).
    pub unmatched_sends: u64,
    /// Estimated clock offset of machine B relative to machine A for
    /// each machine pair (ms): midpoint of the interval allowed by the
    /// two message directions, `None` when only one direction was
    /// observed.
    pub clock_offsets: HashMap<(u32, u32), OffsetEstimate>,
    /// Histogram of sent message sizes.
    pub sizes: SizeHistogram,
}

/// Clock-offset estimate between two machines, from message stamps.
///
/// For a message A→B, `recv_stamp - send_stamp = offset(B−A) +
/// latency`, so `offset ≤ recv−send`. Messages B→A bound it from the
/// other side. With both directions the true offset lies in
/// `[lo, hi]`; the midpoint is the classical symmetric estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetEstimate {
    /// Lower bound on `clock(B) - clock(A)` in ms (from B→A traffic);
    /// `None` if no B→A message was seen.
    pub lo_ms: Option<i64>,
    /// Upper bound (from A→B traffic); `None` if unseen.
    pub hi_ms: Option<i64>,
}

impl OffsetEstimate {
    /// Midpoint estimate when both bounds exist.
    pub fn midpoint_ms(&self) -> Option<f64> {
        match (self.lo_ms, self.hi_ms) {
            (Some(lo), Some(hi)) => Some((lo + hi) as f64 / 2.0),
            _ => None,
        }
    }
}

impl CommStats {
    /// Computes statistics over a trace and its pairing.
    pub fn analyze(trace: &Trace, pairing: &Pairing) -> CommStats {
        let mut per_proc: HashMap<ProcKey, ProcStats> = HashMap::new();
        for e in &trace.events {
            per_proc.entry(e.proc).or_default().record(e);
        }
        CommStats::with_proc_stats(per_proc, SizeHistogram::of_sends(trace), trace, pairing)
    }

    /// Assembles statistics from already-accumulated per-process
    /// counters and size histogram (grown incrementally via
    /// [`ProcStats::record`] / [`SizeHistogram::add`]) plus the
    /// pairing-derived parts, which are recomputed here. This is the
    /// same code path [`CommStats::analyze`] takes, so incremental and
    /// batch accumulation agree exactly.
    pub fn with_proc_stats(
        per_proc: HashMap<ProcKey, ProcStats>,
        sizes: SizeHistogram,
        trace: &Trace,
        pairing: &Pairing,
    ) -> CommStats {
        let mut per_pair: HashMap<(ProcKey, ProcKey), (u64, u64)> = HashMap::new();
        for m in &pairing.messages {
            let e = per_pair.entry((m.from, m.to)).or_default();
            e.0 += 1;
            e.1 += m.bytes as u64;
        }
        let clock_offsets = estimate_offsets(trace, pairing);
        CommStats {
            per_proc,
            per_pair,
            matched: pairing.messages.len() as u64,
            unmatched_sends: pairing.unmatched_sends.len() as u64,
            clock_offsets,
            sizes,
        }
    }

    /// Renders the classic per-process table.
    pub(crate) fn table(&self) -> String {
        let mut procs: Vec<&ProcKey> = self.per_proc.keys().collect();
        procs.sort();
        let mut out = String::from(
            "process      sends  bytes_out  recvs  bytes_in  sockets  conn  acc  cpu_ms\n",
        );
        for p in procs {
            let s = &self.per_proc[p];
            out.push_str(&format!(
                "{:<12} {:>5} {:>10} {:>6} {:>9} {:>8} {:>5} {:>4} {:>7}\n",
                p.to_string(),
                s.sends,
                s.bytes_sent,
                s.recvs,
                s.bytes_recv,
                s.sockets,
                s.connects,
                s.accepts,
                s.cpu_ms
            ));
        }
        out
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table())?;
        writeln!(
            f,
            "matched messages: {}   unmatched sends: {}",
            self.matched, self.unmatched_sends
        )
    }
}

fn estimate_offsets(trace: &Trace, pairing: &Pairing) -> HashMap<(u32, u32), OffsetEstimate> {
    // For ordered machine pair (a, b) with a < b, collect the minimum
    // apparent delay in each direction.
    let mut min_ab: HashMap<(u32, u32), i64> = HashMap::new(); // a→b: recv−send
    let mut min_ba: HashMap<(u32, u32), i64> = HashMap::new(); // b→a: recv−send
    for m in &pairing.messages {
        let s = &trace.events[m.send_idx];
        let r = &trace.events[m.recv_idx];
        let (ma, mb) = (s.proc.machine, r.proc.machine);
        if ma == mb {
            continue;
        }
        let diff = r.cpu_time as i64 - s.cpu_time as i64;
        if ma < mb {
            let e = min_ab.entry((ma, mb)).or_insert(i64::MAX);
            *e = (*e).min(diff);
        } else {
            let e = min_ba.entry((mb, ma)).or_insert(i64::MAX);
            *e = (*e).min(diff);
        }
    }
    let mut out = HashMap::new();
    let keys: Vec<(u32, u32)> = min_ab.keys().chain(min_ba.keys()).copied().collect();
    for k in keys {
        if out.contains_key(&k) {
            continue;
        }
        // offset(b−a) ≤ min over a→b of (recv−send)
        // offset(b−a) ≥ −min over b→a of (recv−send)
        let hi = min_ab.get(&k).copied();
        let lo = min_ba.get(&k).copied().map(|v| -v);
        out.insert(
            k,
            OffsetEstimate {
                lo_ms: lo,
                hi_ms: hi,
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Pairing;
    use crate::trace::Trace;

    /// Machine 1's clock is ~500 ms ahead of machine 0's; latency is
    /// ~10 ms each way.
    const LOG: &str = "\
event=send machine=0 cpuTime=1000 procTime=10 traceType=1 pid=1 pc=1 sock=3 msgLength=100 destName=inet:1:53
event=receive machine=1 cpuTime=1510 procTime=0 traceType=3 pid=2 pc=1 sock=7 msgLength=100 sourceName=inet:0:1024
event=send machine=1 cpuTime=1520 procTime=10 traceType=1 pid=2 pc=2 sock=7 msgLength=40 destName=inet:0:1024
event=receive machine=0 cpuTime=1030 procTime=20 traceType=3 pid=1 pc=2 sock=3 msgLength=40 sourceName=inet:1:53
";

    fn build() -> CommStats {
        let t = Trace::parse(LOG);
        let p = Pairing::analyze(&t);
        CommStats::analyze(&t, &p)
    }

    #[test]
    fn per_process_counters() {
        let s = build();
        let p1 = s.per_proc[&ProcKey { machine: 0, pid: 1 }];
        assert_eq!(p1.sends, 1);
        assert_eq!(p1.bytes_sent, 100);
        assert_eq!(p1.recvs, 1);
        assert_eq!(p1.bytes_recv, 40);
        assert_eq!(p1.cpu_ms, 20);
    }

    #[test]
    fn per_pair_traffic() {
        let s = build();
        let a = ProcKey { machine: 0, pid: 1 };
        let b = ProcKey { machine: 1, pid: 2 };
        assert_eq!(s.per_pair[&(a, b)], (1, 100));
        assert_eq!(s.per_pair[&(b, a)], (1, 40));
        assert_eq!(s.matched, 2);
        assert_eq!(s.unmatched_sends, 0);
    }

    #[test]
    fn clock_offset_bracket_contains_truth() {
        let s = build();
        let est = s.clock_offsets[&(0, 1)];
        // True offset: +500 ms. A→B diff: 510 (upper bound).
        // B→A diff: −490 → lower bound 490.
        assert_eq!(est.hi_ms, Some(510));
        assert_eq!(est.lo_ms, Some(490));
        let mid = est.midpoint_ms().unwrap();
        assert!((mid - 500.0).abs() < 11.0, "midpoint {mid} far from 500");
    }

    #[test]
    fn table_renders_all_processes() {
        let s = build();
        let t = s.table();
        assert!(t.contains("m0:p1"));
        assert!(t.contains("m1:p2"));
        assert!(s.to_string().contains("matched messages: 2"));
    }

    #[test]
    fn one_directional_traffic_gives_half_bracket() {
        let log = "\
event=send machine=0 cpuTime=100 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=10 destName=inet:1:5
event=receive machine=1 cpuTime=130 procTime=0 traceType=3 pid=2 pc=1 sock=2 msgLength=10 sourceName=inet:0:1024
";
        let t = Trace::parse(log);
        let p = Pairing::analyze(&t);
        let s = CommStats::analyze(&t, &p);
        let est = s.clock_offsets[&(0, 1)];
        assert_eq!(est.hi_ms, Some(30));
        assert_eq!(est.lo_ms, None);
        assert_eq!(est.midpoint_ms(), None);
    }

    #[test]
    fn size_histogram_buckets_powers_of_two() {
        let mut h = SizeHistogram::default();
        for len in [0, 1, 2, 3, 4, 5, 8, 9, 1024] {
            h.add(len);
        }
        assert_eq!(h.total, 9);
        assert_eq!(h.buckets[0], 2, "0 and 1");
        assert_eq!(h.buckets[1], 1, "2");
        assert_eq!(h.buckets[2], 2, "3 and 4");
        assert_eq!(h.buckets[3], 2, "5 and 8");
        assert_eq!(h.buckets[4], 1, "9");
        assert_eq!(h.buckets[10], 1, "1024");
        assert_eq!(SizeHistogram::range(3), (4, 8));
        let shown = h.to_string();
        assert!(shown.contains("9 messages"), "{shown}");
        assert!(shown.contains('#'), "{shown}");
    }

    #[test]
    fn stats_include_the_histogram() {
        let s = build();
        assert_eq!(s.sizes.total, 2, "two sends in the fixture");
    }
}
