//! The layer pass: each layer's public functions fed the workload's
//! own input in isolation, one number per function (`ns_per_rec` =
//! busy nanoseconds ÷ records through that call).

use crate::gen::{selective_rules, Input};
use crate::metrics::Report;
use crate::phases::{ingest, pipeline, rules_of, Inline, StoreBytes, CHUNK, DIR};
use dpm_analysis::Trace;
use dpm_filter::{
    Descriptions, FilterEngine, MergedRecord, RecordView, Rules, ShardLog, ShardedFilter,
    TreeMerge, DEFAULT_BATCH_BYTES,
};
use dpm_live::LiveTrace;
use dpm_logstore::{LogStore, MemBackend, OwnedFrame, StoreConfig, StoreReader};
use dpm_meter::{MeterDecoder, MeterMsg, MeterRecord};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times a layer call is repeated; the least-disturbed run is
/// reported (the sandbox's disturbances only ever add time).
const REPS: usize = 5;

/// Least wall nanoseconds of `REPS` runs of `f`.
fn time_ns(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Runs every replay-side layer over `input` and the inline run's
/// final store, recording the per-layer metrics.
pub fn layer_pass(input: &Input, inline: &Inline, report: &mut Report) {
    let n = input.records().max(1) as f64;
    meter(input, n, report);
    logstore(input, inline, report);
    filter(input, n, report);
    live(inline, report);
    let kept = inline.answer.reader.n_records().max(1) as f64;
    report.set(
        "analysis.parse_text_ns_per_rec",
        time_ns(|| {
            black_box(Trace::parse(&inline.text));
        }) / kept,
    );
    let sends = inline.answer.pairing.messages.len() + inline.answer.pairing.unmatched_sends.len();
    report.set(
        "analysis.matched_ratio",
        1.0 - inline.answer.pairing.unmatched_sends.len() as f64 / sends.max(1) as f64,
    );
}

fn meter(input: &Input, n: f64, report: &mut Report) {
    let decode = time_ns(|| {
        for rec in MeterDecoder::new(&input.bytes) {
            black_box(rec.expect("generated records frame"));
        }
    });
    let records: Vec<MeterRecord<'_>> = MeterDecoder::new(&input.bytes)
        .map(|r| r.expect("generated records frame"))
        .collect();
    let to_msg = time_ns(|| {
        for rec in &records {
            black_box(rec.to_msg().expect("generated records decode"));
        }
    });
    let msgs: Vec<MeterMsg> = records
        .iter()
        .map(|r| r.to_msg().expect("generated records decode"))
        .collect();
    let mut wire = Vec::with_capacity(input.bytes.len());
    let encode = time_ns(|| {
        wire.clear();
        for m in &msgs {
            m.encode_into(&mut wire);
        }
        black_box(wire.len());
    });
    assert_eq!(wire, input.bytes, "encode(decode(bytes)) == bytes");
    report.set("meter.decode_ns_per_rec", decode / n);
    report.set("meter.to_msg_ns_per_rec", to_msg / n);
    report.set("meter.encode_ns_per_rec", encode / n);
    report.set("meter.wire_bytes_per_rec", input.bytes.len() as f64 / n);
}

fn filter(input: &Input, n: f64, report: &mut Report) {
    let desc = Descriptions::standard();
    let engine_run = |render: bool| {
        let mut engine = FilterEngine::new(desc.clone(), rules_of(input));
        for chunk in input.bytes.chunks(CHUNK) {
            if render {
                black_box(engine.feed(chunk));
            } else {
                engine.feed_records(chunk, &mut |view, rec| {
                    black_box((view.len(), rec));
                });
            }
        }
        engine.stats()
    };
    let engine = time_ns(|| {
        black_box(engine_run(false));
    });
    let rendered = time_ns(|| {
        black_box(engine_run(true));
    });
    let stats = engine_run(false);
    report.set("filter.engine_ns_per_rec", engine / n);
    report.set("filter.render_ns_per_rec", (rendered - engine).max(0.0) / n);
    report.set(
        "filter.kept_ratio",
        stats.kept as f64 / stats.seen.max(1) as f64,
    );
    report.set("filter.dup_dropped", stats.duplicates as f64);

    // Rule evaluation alone, at 0, 4 and 16 templates and under the
    // workload's own rule set.
    let rule_sets = [
        ("filter.rules_ns_per_rec_t0", Rules::default()),
        (
            "filter.rules_ns_per_rec_t4",
            Rules::parse(&selective_rules(4)).expect("rules parse"),
        ),
        (
            "filter.rules_ns_per_rec_t16",
            Rules::parse(&selective_rules(16)).expect("rules parse"),
        ),
        ("filter.rules_ns_per_rec", rules_of(input)),
    ];
    let mut own_rules = 0.0;
    for (name, rules) in rule_sets {
        let ns = time_ns(|| {
            for i in 0..input.records() {
                black_box(rules.verdict(&desc, input.record(i)));
            }
        }) / n;
        report.set(name, ns);
        own_rules = ns;
    }

    // The same stream through the sharded pipeline with a null text
    // sink: what the channel hand-off and the worker thread add to
    // engine + render on the feeder's own thread.
    let handoff = time_ns(|| {
        let f = ShardedFilter::with_logs(
            1,
            desc.clone(),
            rules_of(input),
            DEFAULT_BATCH_BYTES,
            |_| ShardLog::Text(Box::new(|_batch: &[u8]| {})),
        );
        let conn = f.open_conn();
        for chunk in input.bytes.chunks(CHUNK) {
            conn.feed(chunk.to_vec());
        }
        conn.close();
        f.flush();
    });
    report.set(
        "filter.shard_handoff_ns_per_rec",
        (handoff - rendered).max(0.0) / n,
    );

    // Resynchronization: a run of bytes that frame as nothing (every
    // size word reads 0), so each byte is one step of the resync scan.
    let garbage = vec![0u8; 4 << 20];
    let resync = time_ns(|| {
        let mut engine = FilterEngine::new(desc.clone(), rules_of(input));
        for chunk in garbage.chunks(CHUNK) {
            engine.feed_records(chunk, &mut |view, _rec| {
                black_box(view.len());
            });
        }
        assert!(engine.stats().garbage_bytes as usize + engine.pending_bytes() == garbage.len());
    });
    report.set(
        "filter.resync_ns_per_garbage_byte",
        resync / garbage.len() as f64,
    );

    // The aggregate filter's merge: insert every record keyed by
    // (machine, pid, seq), draining at the store's batch threshold.
    let mut peak = 0usize;
    let merge = time_ns(|| {
        let mut merge = TreeMerge::new();
        for i in 0..input.records() {
            let view = RecordView::new(input.record(i));
            merge.insert(
                view.machine(),
                view.pid().unwrap_or(0),
                view.seq(),
                MergedRecord {
                    raw: view.bytes().to_vec(),
                    line: String::new(),
                },
            );
            if merge.pending_bytes() >= 256 * 1024 {
                peak = peak.max(merge.pending_bytes());
                black_box(merge.drain());
            }
        }
        peak = peak.max(merge.pending_bytes());
        black_box(merge.drain());
    });
    report.set("filter.tree_merge_ns_per_rec", merge / n);
    report.set("filter.tree_pending_peak_bytes", peak as f64);

    // Share of the ingest-side per-record cost that is rule
    // evaluation: the number the keepall/selective separation is
    // judged on (append cost counts once per *kept* record).
    let append = report.get("logstore.append_ns_per_rec").unwrap_or(0.0);
    let ingest_side = engine / n + append * stats.kept as f64 / stats.seen.max(1) as f64;
    report.set(
        "filter.rules_share_pct",
        100.0 * own_rules / ingest_side.max(1e-9),
    );
}

fn logstore(input: &Input, inline: &Inline, report: &mut Report) {
    let kept = input.kept.len().max(1) as f64;
    let append = time_ns(|| {
        let store = LogStore::open(Arc::new(MemBackend::new()), DIR, StoreConfig::default());
        let mut w = store.writer(0);
        for &i in &input.kept {
            w.append(input.record(i as usize));
        }
        w.flush();
    });
    report.set("logstore.append_ns_per_rec", append / kept);

    let backend = &inline.backend;
    let bytes = StoreBytes::of(backend.as_ref(), DIR);
    report.set(
        "logstore.segments",
        inline.answer.reader.n_segments() as f64,
    );
    report.set("logstore.store_bytes_per_rec", bytes.total() as f64 / kept);
    report.set("logstore.index_bytes_per_rec", bytes.index as f64 / kept);
    report.set(
        "logstore.recover_ms",
        time_ns(|| {
            let store = LogStore::open(backend.clone(), DIR, StoreConfig::default());
            black_box(store.writer(0).appended());
        }) / 1e6,
    );
    report.set(
        "logstore.load_ms",
        time_ns(|| {
            black_box(StoreReader::load(backend.as_ref(), DIR).n_records());
        }) / 1e6,
    );
    report.set(
        "logstore.scan_ns_per_rec",
        time_ns(|| {
            for f in inline.answer.reader.scan() {
                black_box(f.raw.len());
            }
        }) / kept,
    );
    report.set(
        "logstore.tail_read_amplification",
        (inline.tail_reoffered + bytes.segments) as f64 / bytes.segments.max(1) as f64,
    );
}

fn live(inline: &Inline, report: &mut Report) {
    let frames: Vec<OwnedFrame> = inline
        .answer
        .reader
        .scan()
        .map(|f| OwnedFrame::of(&f))
        .collect();
    let n = frames.len().max(1) as f64;
    let desc = Descriptions::standard();
    let apply = time_ns(|| {
        let mut lt = LiveTrace::new(desc.clone());
        lt.ingest_batch(frames.iter().cloned());
        black_box(lt.len());
    });
    report.set("live.apply_ns_per_rec", apply / n);

    // Two interleaved halves (even and odd store seqs, as two shards
    // would produce) with the odd half running a fixed 256 frames
    // ahead: the reorder buffer holds the skew.
    const SKEW: usize = 256;
    let (even, odd): (Vec<&OwnedFrame>, Vec<&OwnedFrame>) =
        frames.iter().partition(|f| f.seq % 2 == 0);
    let mut order: Vec<&OwnedFrame> = Vec::with_capacity(frames.len());
    for t in 0..even.len().max(odd.len()) + SKEW {
        order.extend(odd.get(t));
        if t >= SKEW {
            order.extend(even.get(t - SKEW));
        }
    }
    let mut peak = 0usize;
    let skewed = time_ns(|| {
        let mut lt = LiveTrace::new(desc.clone());
        for (k, f) in order.iter().enumerate() {
            lt.ingest((*f).clone());
            if k % 64 == 0 {
                peak = peak.max(lt.reorder_pending());
            }
        }
        assert_eq!(lt.reorder_pending(), 0, "skewed halves drain completely");
        black_box(lt.len());
    });
    report.set("live.apply_skewed_ns_per_rec", skewed / n);
    report.set("live.reorder_peak", peak as f64);
    report.set("live.dup_dropped", inline.live_dups as f64);
}

/// Interleaved kill-switch A/B of phase A: the same ingest with the
/// process-global telemetry switch on and off, `pairs` times each,
/// the least-disturbed of each compared. Returns the overhead of "on"
/// over "off" in percent of "off".
pub fn telemetry_overhead_pct(input: &Input, pairs: usize) -> f64 {
    let (mut on, mut off) = (f64::MAX, f64::MAX);
    for _ in 0..pairs {
        for (enabled, best) in [(true, &mut on), (false, &mut off)] {
            dpm_telemetry::set_enabled(enabled);
            let p = pipeline(input);
            *best = best.min(ingest(&p, &input.bytes).as_secs_f64());
        }
    }
    dpm_telemetry::set_enabled(true);
    100.0 * (on - off) / off.max(1e-9)
}
