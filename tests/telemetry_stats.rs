//! End-to-end for the self-telemetry subsystem: a metered job runs
//! through the full pipeline (meter → meterdaemon → store filter →
//! live watch) and the controller's `stats` command must show, *while
//! the job is still in flight*, populated per-stage counters and the
//! end-to-end staleness histograms that stitch the stages together.
//! A second test exercises the store's seal-latency leg with a
//! segment size small enough to roll.

use dpm::crates::logstore::{LogStore, MemBackend, StoreConfig};
use dpm::crates::meter::{MeterBody, MeterHeader, MeterMsg, MeterTermProc, TermReason};
use dpm::crates::telemetry as tel;
use dpm::{JobRecord, NetConfig, Simulation};
use std::sync::Arc;

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];

#[test]
fn stats_shows_per_stage_counters_and_staleness_mid_job() {
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(101)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue log=store");
    assert!(control.transcript().contains("created"));

    control.exec("newjob mx f1");
    for (i, m) in HOSTS.iter().enumerate() {
        control.exec(&format!(
            "addprocess mx {m} /bin/lmutex {i} {} 12 {}",
            HOSTS.len(),
            HOSTS.join(" ")
        ));
    }
    control.exec("setflags mx send receive");
    control.exec("startjob mx");

    // Watch (to drive the live legs of the staleness chain) and poll
    // `stats` while the job is in flight. The assertions are on the
    // *last* mid-job readout that saw records, so a fast run that
    // finishes between polls still passes as long as one poll caught
    // the pipeline mid-stream.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(110);
    let mut mid_job_stats = String::new();
    while !control.job("mx").is_none_or(JobRecord::finished) {
        control.exec("watch f1");
        let out = control.exec("stats");
        if control.job("mx").is_none_or(JobRecord::finished) {
            break;
        }
        if out.contains("e2e/emit_to_ingest_ms") {
            mid_job_stats = out;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never converged while polling stats"
        );
    }
    assert!(control.wait_job("mx", 120_000), "mutex job completed");

    // Mid-job: the staleness histogram and the per-stage counters were
    // already populated while processes were still running.
    assert!(
        mid_job_stats.contains("e2e/emit_to_ingest_ms"),
        "no mid-job stats readout captured the staleness histogram:\n{mid_job_stats}"
    );
    for needle in [
        "meterd/rpc_served",       // RPC stage saw traffic
        "meter/flush_bytes",       // kernel flush batching
        "filter/queue_depth",      // shard pipeline registered
        "store/flush_batch_bytes", // group commit ran
    ] {
        assert!(
            mid_job_stats.contains(needle),
            "mid-job stats missing {needle}:\n{mid_job_stats}"
        );
    }

    // Quiesce the pipeline, then check the registry end-state: every
    // leg of the staleness chain that this topology exercises must
    // hold samples. (Assertions go through the same global registry
    // the stats command renders.)
    let text = sim.getlog(&mut control, "f1");
    assert!(!text.is_empty(), "store filter logged records");
    control.exec("watch f1"); // one more window after quiescence

    let r = tel::registry();
    // Leaf filters label the emit→ingest histogram per shard (s0...).
    let ingest = r.histogram("e2e", "emit_to_ingest_ms", "s0").snapshot();
    assert!(ingest.count > 0, "emit→ingest staleness recorded");
    let apply = r.histogram("e2e", "append_to_apply_us", "").snapshot();
    assert!(apply.count > 0, "append→apply staleness recorded");
    let window = r.histogram("e2e", "append_to_window_us", "").snapshot();
    assert!(window.count > 0, "append→window staleness recorded");
    assert!(
        window.quantile(0.99) <= window.max,
        "quantile readout is clamped by the observed max"
    );
    assert!(
        r.counter("meterd", "rpc_served", "blue").get() > 0,
        "the filter machine's meterdaemon served RPCs"
    );
    let flush = r.histogram("store", "flush_batch_bytes", "s0").snapshot();
    assert!(flush.count > 0 && flush.sum > 0, "group commits recorded");
    let close = r.histogram("live", "window_close_us", "").snapshot();
    assert!(close.count > 0, "window close latency recorded");

    // The `stats <component>` filter narrows the readout.
    let e2e_only = control.exec("stats e2e");
    assert!(e2e_only.contains("e2e/emit_to_ingest_ms"));
    assert!(!e2e_only.contains("meterd/"), "filtered out:\n{e2e_only}");
    let none = control.exec("stats nosuchcomponent");
    assert!(none.contains("no telemetry for component 'nosuchcomponent'"));

    control.exec("bye");
    sim.shutdown();
}

/// The store's seal leg of the staleness chain: with a segment size
/// small enough that appends roll segments, `store/seals` counts up
/// and `e2e/append_to_seal_us` accumulates one sample per seal.
#[test]
fn segment_seals_record_seal_age() {
    let record = |seq: u32| -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                machine: 7,
                seq,
                cpu_time: 1,
                ..MeterHeader::default()
            },
            body: MeterBody::TermProc(MeterTermProc {
                pid: 40,
                pc: 0,
                reason: TermReason::Normal,
            }),
        }
        .encode()
    };
    let r = tel::registry();
    let seals_before = r.counter("store", "seals", "s3").get();
    let age_before = r.histogram("e2e", "append_to_seal_us", "s3").snapshot();

    let backend = Arc::new(MemBackend::new());
    let store = LogStore::open(
        backend,
        "seal-tm",
        StoreConfig {
            segment_bytes: 256, // a few frames per segment
            batch_bytes: 64,
            ..StoreConfig::default()
        },
    );
    let mut w = store.writer(3);
    for seq in 1..=64u32 {
        w.append(&record(seq));
    }
    w.sync();
    drop(w);

    let sealed = r.counter("store", "seals", "s3").get();
    assert!(
        sealed > seals_before,
        "small segments must seal: {sealed} seals"
    );
    let age = r.histogram("e2e", "append_to_seal_us", "s3").snapshot();
    assert!(
        age.count > age_before.count,
        "each seal records the age of the segment's first record"
    );
}
