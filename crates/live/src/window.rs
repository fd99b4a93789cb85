//! Watch windows over a live trace.
//!
//! A [`LiveWatch`] owns a [`LiveTrace`] plus an [`AnomalyScorer`] and
//! carves the applied event stream into consecutive windows: each
//! [`LiveWatch::close_window`] summarizes everything applied since the
//! previous close — new records, active processes, pairing lag, the
//! lag's per-link distribution, and the anomaly scores — as one
//! [`WindowSnapshot`]. Window boundaries are wherever the consumer
//! closes them (the controller's `watch` closes one per poll
//! interval), so window semantics are: *events by application order,
//! not wall time*; a window is simply the delta between two asks.

use crate::anomaly::{kind_bucket, AnomalyScore, AnomalyScorer, KIND_BUCKETS};
use crate::engine::LiveTrace;
use dpm_analysis::{host_of, EventKind, Pairing, ProcKey, Trace};
use dpm_filter::Descriptions;
use dpm_logstore::OwnedFrame;
use std::collections::HashMap;

/// Summary of one closed watch window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window ordinal, from 0.
    pub window: u64,
    /// Events applied in total, through this window's close.
    pub records: u64,
    /// Events applied within this window.
    pub new_records: u64,
    /// Cumulative frames dropped by the meter-seq dedup.
    pub duplicates: u64,
    /// Distinct processes observed so far.
    pub procs: usize,
    /// Processes with at least one event in this window, sorted.
    pub active: Vec<ProcKey>,
    /// Matched messages, cumulative.
    pub matched: u64,
    /// Currently-unmatched sends — the message-pairing lag: sends the
    /// monitor saw leave but has not (yet) seen arrive.
    pub unmatched_sends: u64,
    /// Currently-unmatched datagram receives.
    pub unmatched_recvs: u64,
    /// Unmatched datagram sends per undirected machine link, sorted
    /// by descending count: where the pairing lag concentrates.
    pub link_lag: Vec<(u32, u32, u64)>,
    /// Anomaly scores, sorted descending.
    pub anomalies: Vec<AnomalyScore>,
}

impl WindowSnapshot {
    /// One-line rendering for the controller transcript.
    pub fn summary(&self) -> String {
        format!(
            "w{}: records={} (+{}) procs={} active={} matched={} lag={} dups={}",
            self.window,
            self.records,
            self.new_records,
            self.procs,
            self.active.len(),
            self.matched,
            self.unmatched_sends,
            self.duplicates
        )
    }
}

/// Distribution of the pairing lag over machine links: every
/// currently-unmatched *datagram* send whose destination names a
/// machine counts against the undirected link between the sender's
/// machine and that destination machine. Sorted by descending count
/// (ties by link, for determinism). This is the live localizer for
/// partition-like faults — the cut link's count runs away from every
/// healthy link's transient in-flight lag.
pub fn link_lag(trace: &Trace, pairing: &Pairing) -> Vec<(u32, u32, u64)> {
    let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
    for &idx in &pairing.unmatched_sends {
        let ev = &trace.events[idx];
        let EventKind::Send {
            dest: Some(name), ..
        } = &ev.kind
        else {
            continue;
        };
        let Some(dest_machine) = host_of(name) else {
            continue;
        };
        let a = ev.proc.machine.min(dest_machine);
        let b = ev.proc.machine.max(dest_machine);
        *counts.entry((a, b)).or_default() += 1;
    }
    let mut out: Vec<(u32, u32, u64)> = counts.into_iter().map(|((a, b), n)| (a, b, n)).collect();
    out.sort_by(|x, y| y.2.cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
    out
}

/// A live trace plus windowing state and an online anomaly scorer.
#[derive(Debug)]
pub struct LiveWatch {
    lt: LiveTrace,
    scorer: AnomalyScorer,
    /// Trace length at the previous window close.
    mark: usize,
    window_no: u64,
}

impl LiveWatch {
    /// A watch over an empty live trace.
    pub fn new(desc: Descriptions) -> LiveWatch {
        LiveWatch {
            lt: LiveTrace::new(desc),
            scorer: AnomalyScorer::new(),
            mark: 0,
            window_no: 0,
        }
    }

    /// Ingests a batch of frames (see [`LiveTrace::ingest_batch`]).
    pub fn ingest_batch<I: IntoIterator<Item = OwnedFrame>>(&mut self, frames: I) {
        self.lt.ingest_batch(frames);
    }

    /// The underlying live trace.
    pub fn live(&self) -> &LiveTrace {
        &self.lt
    }

    /// The underlying live trace, mutably (for on-demand analyses).
    pub fn live_mut(&mut self) -> &mut LiveTrace {
        &mut self.lt
    }

    /// Closes the current window: summarizes everything applied since
    /// the previous close, scores it, and starts the next window.
    pub fn close_window(&mut self) -> WindowSnapshot {
        let close_began = dpm_telemetry::now_us();
        // Per-process count vectors over this window's events.
        let mut counts: HashMap<ProcKey, [f64; KIND_BUCKETS]> = HashMap::new();
        let events = &self.lt.trace().events[self.mark..];
        for ev in events {
            counts.entry(ev.proc).or_insert([0.0; KIND_BUCKETS])[kind_bucket(&ev.kind)] += 1.0;
        }
        let mut active: Vec<ProcKey> = counts.keys().copied().collect();
        active.sort();
        let new_records = events.len() as u64;

        // Pairing-derived parts (memoized inside the live trace).
        let (trace, pairing) = self.lt.trace_and_pairing();
        let mut unmatched_by_proc: HashMap<ProcKey, u64> = HashMap::new();
        for &idx in &pairing.unmatched_sends {
            *unmatched_by_proc.entry(trace.events[idx].proc).or_default() += 1;
        }
        let links = link_lag(trace, pairing);
        let matched = pairing.messages.len() as u64;
        let unmatched_sends = pairing.unmatched_sends.len() as u64;
        let unmatched_recvs = pairing.unmatched_recvs.len() as u64;

        let anomalies = self.scorer.score_window(&counts, &unmatched_by_proc);

        let snap = WindowSnapshot {
            window: self.window_no,
            records: self.lt.len() as u64,
            new_records,
            duplicates: self.lt.duplicates(),
            procs: self.lt.procs().len(),
            active,
            matched,
            unmatched_sends,
            unmatched_recvs,
            link_lag: links,
            anomalies,
        };
        self.mark = self.lt.len();
        self.window_no += 1;
        let r = dpm_telemetry::registry();
        r.histogram("live", "window_close_us", "")
            .record(dpm_telemetry::now_us().saturating_sub(close_began));
        // Age of the newest applied frame at window close: the end of
        // the append→window leg of the end-to-end staleness chain.
        if self.lt.last_ts_us() > 0 {
            r.histogram("e2e", "append_to_window_us", "")
                .record(dpm_telemetry::now_us().saturating_sub(self.lt.last_ts_us()));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_logstore::ProcId;

    fn send_frame(
        seq: u64,
        machine: u16,
        pid: u32,
        meter_seq: u32,
        len: u32,
        dest: u32,
    ) -> OwnedFrame {
        use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
        let body = MeterBody::Send(MeterSendMsg {
            pid,
            pc: 1,
            sock: 3,
            msg_length: len,
            dest_name: Some(SockName::inet(dest, 53)),
        });
        let raw = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: seq as u32,
                seq: meter_seq,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode();
        OwnedFrame {
            seq,
            ts_us: seq,
            shard: 0,
            proc: ProcId { machine, pid },
            raw,
        }
    }

    fn recv_frame(
        seq: u64,
        machine: u16,
        pid: u32,
        meter_seq: u32,
        len: u32,
        src: u32,
    ) -> OwnedFrame {
        use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterRecvMsg, SockName};
        let body = MeterBody::Recv(MeterRecvMsg {
            pid,
            pc: 1,
            sock: 7,
            msg_length: len,
            source_name: Some(SockName::inet(src, 1024)),
        });
        let raw = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: seq as u32,
                seq: meter_seq,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode();
        OwnedFrame {
            seq,
            ts_us: seq,
            shard: 0,
            proc: ProcId { machine, pid },
            raw,
        }
    }

    #[test]
    fn windows_summarize_deltas() {
        let mut w = LiveWatch::new(Descriptions::standard());
        w.ingest_batch([
            send_frame(0, 0, 10, 1, 20, 1),
            recv_frame(1, 1, 20, 1, 20, 0),
        ]);
        let s0 = w.close_window();
        assert_eq!(s0.window, 0);
        assert_eq!(s0.new_records, 2);
        assert_eq!(s0.records, 2);
        assert_eq!(s0.active.len(), 2);
        assert_eq!(s0.matched, 1);
        assert_eq!(s0.unmatched_sends, 0);
        // Nothing new: the next window is empty but cumulative fields
        // persist.
        let s1 = w.close_window();
        assert_eq!(s1.window, 1);
        assert_eq!(s1.new_records, 0);
        assert_eq!(s1.records, 2);
        assert!(s1.active.is_empty());
        assert!(s1.summary().contains("records=2 (+0)"));
    }

    #[test]
    fn link_lag_concentrates_on_the_faulted_link() {
        let mut w = LiveWatch::new(Descriptions::standard());
        // m0:p10 sends 5 datagrams to machine 2 that never arrive, and
        // one to machine 1 that does.
        let mut frames = Vec::new();
        for i in 0..5u64 {
            frames.push(send_frame(i, 0, 10, 1 + i as u32, 30 + i as u32, 2));
        }
        frames.push(send_frame(5, 0, 10, 6, 20, 1));
        frames.push(recv_frame(6, 1, 20, 1, 20, 0));
        w.ingest_batch(frames);
        let snap = w.close_window();
        assert_eq!(snap.unmatched_sends, 5);
        assert_eq!(snap.link_lag.first(), Some(&(0, 2, 5)));
        // The lagging proc tops the anomaly ranking.
        assert_eq!(
            snap.anomalies[0].proc,
            ProcKey {
                machine: 0,
                pid: 10
            }
        );
        assert!(snap.anomalies[0].lag_share > 0.99);
    }
}
