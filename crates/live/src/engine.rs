//! The incremental trace engine.
//!
//! [`LiveTrace`] is the streaming counterpart of the batch pipeline
//! `Trace::from_store` → `Pairing::analyze` → `HappensBefore::build` →
//! `CommStats::analyze`. It accepts stored frames as they appear (from
//! a [`StoreTail`](dpm_logstore::StoreTail) poll, in any interleaving
//! across segments) and maintains, incrementally:
//!
//! * the typed event list (each frame is decoded and appended once,
//!   O(1) amortized per frame);
//! * the pairing pass-1 queues ([`PairQueues`], O(1) per event);
//! * per-process counters and the send-size histogram (O(1) per
//!   event).
//!
//! The expensive constructions — message matching, the happens-before
//! relation, assembled statistics — are *memoized by version*: asking
//! for them re-derives only when events arrived since the last ask,
//! and the derivation goes through exactly the code paths the batch
//! analyses use ([`Pairing::from_queues`],
//! [`CommStats::with_proc_stats`]). That, plus the ordering discipline
//! below, yields the subsystem's central invariant:
//!
//! > **At quiescence (all frames of a store ingested), a `LiveTrace`'s
//! > trace, pairing, happens-before relation, and statistics are equal
//! > to the batch results over the same store.**
//!
//! Two ordering/dedup mechanisms make that hold:
//!
//! * **Seq reordering.** The store's arrival seq is dense (every shard
//!   writer draws from one shared counter), and the batch reader scans
//!   in ascending seq order. `LiveTrace` applies frames in exactly
//!   that order by holding early arrivals in a reorder buffer until
//!   the gap fills; a seq seen twice (a segment re-offered after a
//!   fetch hiccup) is dropped as a replay.
//! * **Meter-seq dedup.** Before decoding, each frame passes the same
//!   per-process [`SeqWindow`] the filter engine and the tree's
//!   aggregate merge ask, so a `LiveTrace` can consume any level of a
//!   filter tree — records duplicated across children are accepted
//!   exactly once, in bounded memory. (Meter seq 0 — records predating
//!   the seq layer — is always accepted, as in the tree merge.)
//!
//! Why matching is re-derived rather than maintained per event: exact
//! datagram matching is *non-monotone* under growth. Receive groups
//! draw on overlapping candidate send pools through a shared
//! matched-set, so one new arrival can change which send an *earlier*
//! receive pairs with. Maintaining edges incrementally would have to
//! re-run matching anyway to stay exact; memoizing the full (cheap,
//! in-memory) pass keeps equality with the batch result by
//! construction. See DESIGN §13 for the worked counter-example.

use dpm_analysis::{CommStats, HappensBefore, PairQueues, Pairing, ProcKey, ProcStats, Trace};
use dpm_analysis::{EventKind, FrameDecoder, SizeHistogram};
use dpm_filter::{Descriptions, RecordView, SeqWindow};
use dpm_logstore::OwnedFrame;
use dpm_telemetry::{Gauge, Histogram};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Memoized derived analyses, valid for one trace version.
struct Cached {
    version: u64,
    pairing: Pairing,
    hb: HappensBefore,
    stats: CommStats,
}

/// An incrementally-grown trace with memoized derived analyses. See
/// the module docs for the invariant and the ordering discipline.
pub struct LiveTrace {
    decoder: FrameDecoder,
    /// The filter-tree dedup discipline: `(machine, pid, meter seq)`.
    window: SeqWindow,
    trace: Trace,
    queues: PairQueues,
    per_proc: HashMap<ProcKey, ProcStats>,
    sizes: SizeHistogram,
    /// Next store seq to apply; frames ahead of it wait in `reorder`.
    next_seq: u64,
    reorder: BTreeMap<u64, OwnedFrame>,
    /// Frames the meter-seq window refused.
    duplicates: u64,
    /// Frames dropped because their store seq was already applied.
    replays: u64,
    /// Frames whose raw bytes no description decoded.
    undecodable: u64,
    /// Bumped per applied event; keys the memo cache.
    version: u64,
    cache: Option<Cached>,
    /// Store timestamp (`ts_us`) of the newest applied frame.
    last_ts_us: u64,
    /// Self-telemetry: reorder-buffer occupancy (live/reorder_pending)
    /// and append→apply staleness (e2e/append_to_apply_us).
    tm_pending: Arc<Gauge>,
    tm_apply_lag: Arc<Histogram>,
}

impl std::fmt::Debug for LiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveTrace")
            .field("events", &self.trace.len())
            .field("next_seq", &self.next_seq)
            .field("reorder_pending", &self.reorder.len())
            .field("duplicates", &self.duplicates)
            .finish()
    }
}

impl LiveTrace {
    /// An empty live trace decoding records with `desc`.
    pub fn new(desc: Descriptions) -> LiveTrace {
        LiveTrace {
            decoder: FrameDecoder::new(&desc),
            window: SeqWindow::default(),
            trace: Trace::default(),
            queues: PairQueues::default(),
            per_proc: HashMap::new(),
            sizes: SizeHistogram::default(),
            next_seq: 0,
            reorder: BTreeMap::new(),
            duplicates: 0,
            replays: 0,
            undecodable: 0,
            version: 0,
            cache: None,
            last_ts_us: 0,
            tm_pending: dpm_telemetry::registry().gauge("live", "reorder_pending", ""),
            tm_apply_lag: dpm_telemetry::registry().histogram("e2e", "append_to_apply_us", ""),
        }
    }

    /// Ingests one frame. Frames may arrive in any order; application
    /// happens in ascending store-seq order (see the module docs).
    pub fn ingest(&mut self, frame: OwnedFrame) {
        use std::cmp::Ordering;
        match frame.seq.cmp(&self.next_seq) {
            Ordering::Less => self.replays += 1,
            Ordering::Greater => {
                if self.reorder.insert(frame.seq, frame).is_some() {
                    self.replays += 1;
                }
            }
            Ordering::Equal => {
                self.apply(frame);
                self.next_seq += 1;
                while let Some(f) = self.reorder.remove(&self.next_seq) {
                    self.apply(f);
                    self.next_seq += 1;
                }
            }
        }
        self.tm_pending.set(self.reorder.len() as i64);
    }

    /// Ingests a batch of frames.
    pub fn ingest_batch<I: IntoIterator<Item = OwnedFrame>>(&mut self, frames: I) {
        for f in frames {
            self.ingest(f);
        }
    }

    /// Applies one frame in order: dedup, decode, append, fold into
    /// the incremental accumulators.
    fn apply(&mut self, frame: OwnedFrame) {
        // `ts_us` and `now_us()` share the telemetry epoch when the
        // store runs in-process, so the difference is the frame's age
        // at apply time: how far the live view trails the appended log.
        self.tm_apply_lag
            .record(dpm_telemetry::now_us().saturating_sub(frame.ts_us));
        self.last_ts_us = self.last_ts_us.max(frame.ts_us);
        if frame.raw.len() < dpm_filter::desc::HEADER_LEN {
            self.undecodable += 1;
            return;
        }
        let view = RecordView::new(&frame.raw);
        let pid = view.pid().unwrap_or(0);
        if !self.window.admit(view.machine(), pid, view.seq()) {
            self.duplicates += 1;
            return;
        }
        if !self.decoder.describes(&frame.raw) {
            self.undecodable += 1;
            return;
        }
        if self.trace.push_frame(&self.decoder, &frame.raw) {
            let ev = self.trace.events.last().expect("just pushed");
            self.queues.add(ev);
            self.per_proc.entry(ev.proc).or_default().record(ev);
            if let EventKind::Send { len, .. } = ev.kind {
                self.sizes.add(len);
            }
            self.version += 1;
        }
    }

    /// The typed events applied so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Events applied so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no event has been applied.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The next store seq the engine is waiting for.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames buffered ahead of a seq gap.
    pub fn reorder_pending(&self) -> usize {
        self.reorder.len()
    }

    /// Store timestamp (`ts_us`, telemetry-epoch microseconds) of the
    /// newest applied frame — 0 before anything applies.
    pub fn last_ts_us(&self) -> u64 {
        self.last_ts_us
    }

    /// Frames the `(machine, pid, meter seq)` window refused, stale
    /// ones included.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames dropped because their store seq was already applied.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Frames whose raw bytes no description decoded.
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// The distinct processes observed, sorted.
    pub fn procs(&self) -> Vec<ProcKey> {
        let mut v: Vec<ProcKey> = self.per_proc.keys().copied().collect();
        v.sort();
        v
    }

    /// Monotone version counter: bumps once per applied event.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Re-derives the memoized analyses if events arrived since the
    /// last derivation.
    fn ensure(&mut self) {
        if self
            .cache
            .as_ref()
            .is_some_and(|c| c.version == self.version)
        {
            return;
        }
        // The stale memo goes first: old and new clock arenas never
        // coexist.
        self.cache = None;
        let pairing = Pairing::from_queues(&self.trace, &self.queues);
        let hb = HappensBefore::build(&self.trace, &pairing);
        let stats = CommStats::with_proc_stats(
            self.per_proc.clone(),
            self.sizes.clone(),
            &self.trace,
            &pairing,
        );
        self.cache = Some(Cached {
            version: self.version,
            pairing,
            hb,
            stats,
        });
    }

    /// The pairing over everything applied so far (memoized).
    pub fn pairing(&mut self) -> &Pairing {
        self.ensure();
        &self.cache.as_ref().expect("ensured").pairing
    }

    /// The happens-before relation over everything applied so far
    /// (memoized).
    pub fn hb(&mut self) -> &HappensBefore {
        self.ensure();
        &self.cache.as_ref().expect("ensured").hb
    }

    /// Communication statistics over everything applied so far
    /// (memoized).
    pub fn stats(&mut self) -> &CommStats {
        self.ensure();
        &self.cache.as_ref().expect("ensured").stats
    }

    /// The trace and its pairing together (memoized) — for analyses
    /// that need to walk both without cloning.
    pub fn trace_and_pairing(&mut self) -> (&Trace, &Pairing) {
        self.ensure();
        (&self.trace, &self.cache.as_ref().expect("ensured").pairing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real encoded meter record (a termproc event).
    fn raw(machine: u16, pid: u32, meter_seq: u32) -> Vec<u8> {
        use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterTermProc, TermReason};
        let body = MeterBody::TermProc(MeterTermProc {
            pid,
            pc: 1,
            reason: TermReason::Normal,
        });
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: 1,
                seq: meter_seq,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode()
    }

    fn frame(seq: u64, raw: Vec<u8>) -> OwnedFrame {
        OwnedFrame {
            seq,
            ts_us: seq,
            shard: 0,
            proc: dpm_logstore::ProcId { machine: 0, pid: 0 },
            raw,
        }
    }

    #[test]
    fn out_of_order_frames_apply_in_seq_order() {
        let mut lt = LiveTrace::new(Descriptions::standard());
        lt.ingest(frame(2, raw(1, 100, 3)));
        lt.ingest(frame(1, raw(1, 100, 2)));
        assert_eq!(lt.len(), 0, "gap at seq 0 holds everything back");
        assert_eq!(lt.reorder_pending(), 2);
        lt.ingest(frame(0, raw(1, 100, 1)));
        assert_eq!(lt.len(), 3, "gap filled, reorder buffer drained");
        assert_eq!(lt.reorder_pending(), 0);
        assert_eq!(lt.next_seq(), 3);
    }

    #[test]
    fn replayed_store_seqs_are_dropped() {
        let mut lt = LiveTrace::new(Descriptions::standard());
        lt.ingest(frame(0, raw(1, 100, 1)));
        lt.ingest(frame(0, raw(1, 100, 1)));
        assert_eq!(lt.len(), 1);
        assert_eq!(lt.replays(), 1);
    }

    #[test]
    fn meter_seq_dedup_matches_tree_discipline() {
        let mut lt = LiveTrace::new(Descriptions::standard());
        // Same (machine, pid, meter seq) under two different store
        // seqs — e.g. a record that reached the root via two children.
        lt.ingest(frame(0, raw(1, 100, 7)));
        lt.ingest(frame(1, raw(1, 100, 7)));
        assert_eq!(lt.len(), 1, "duplicate meter record accepted once");
        assert_eq!(lt.duplicates(), 1);
        // Meter seq 0 is always accepted.
        let mut lt = LiveTrace::new(Descriptions::standard());
        lt.ingest(frame(0, raw(1, 100, 0)));
        lt.ingest(frame(1, raw(1, 100, 0)));
        assert_eq!(lt.len(), 2);
        assert_eq!(lt.duplicates(), 0);
    }

    #[test]
    fn memoized_analyses_recompute_only_on_growth() {
        let mut lt = LiveTrace::new(Descriptions::standard());
        lt.ingest(frame(0, raw(1, 100, 1)));
        let v = lt.version();
        assert_eq!(lt.stats().per_proc.len(), 1);
        assert_eq!(lt.version(), v, "asking for analyses applies nothing");
        lt.ingest(frame(1, raw(2, 200, 1)));
        assert_eq!(lt.stats().per_proc.len(), 2);
    }

    #[test]
    fn undecodable_frames_are_counted_not_fatal() {
        let mut lt = LiveTrace::new(Descriptions::standard());
        lt.ingest(frame(0, vec![0u8; 5]));
        assert_eq!(lt.len(), 0);
        assert_eq!(lt.undecodable(), 1);
        lt.ingest(frame(1, raw(1, 100, 1)));
        assert_eq!(lt.len(), 1, "stream continues past junk");
    }
}
