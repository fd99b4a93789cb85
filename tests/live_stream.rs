//! End-to-end for the live streaming subsystem (E10): a metered
//! Lamport-mutex job runs while the controller `watch`es its
//! `log=store` filter. The watch must stream non-empty windows *while
//! the job is still running* (live, not post-hoc), and at quiescence
//! the incrementally-built live trace must equal — field for field —
//! the batch analyses over the same store segments. Everything the
//! controller reads of that store it reads through blue's meterdaemon;
//! every such read (`watch`, `tail`, `getlog`, `check`) is compared
//! with a `StoreReader` loaded straight off blue's file system.

use dpm::crates::analysis::{CommStats, HappensBefore, MutexReport, Pairing, Trace};
use dpm::crates::filter::SimFsBackend;
use dpm::crates::live::LiveTrace;
use dpm::crates::logstore::{OwnedFrame, StoreReader};
use dpm::{Descriptions, JobRecord, LogRecord, NetConfig, Simulation};
use std::sync::Arc;

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
/// Enough rounds that the job spans many real-time filter flushes —
/// simulated sleeps are virtual (instant), so only protocol volume
/// stretches the run.
const ROUNDS: usize = 12;

/// The §3.4 line of every frame of `reader`, in seq order — what
/// `getlog` and `tail` show of a filter that has no templates.
fn render_store(reader: &StoreReader, desc: &Descriptions) -> Vec<String> {
    reader
        .scan()
        .filter_map(|f| LogRecord::from_raw(desc, f.raw, &[]))
        .map(|rec| rec.to_string())
        .collect()
}

#[test]
fn watch_streams_live_windows_and_equals_batch_at_quiescence() {
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(93)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue log=store");
    assert!(
        control.transcript().contains("created"),
        "{}",
        control.transcript()
    );

    control.exec("newjob mx f1");
    for (i, m) in HOSTS.iter().enumerate() {
        control.exec(&format!(
            "addprocess mx {m} /bin/lmutex {i} {} {ROUNDS} {}",
            HOSTS.len(),
            HOSTS.join(" ")
        ));
    }
    control.exec("setflags mx send receive");
    control.exec("startjob mx");

    // Stream windows while the job runs, polling continuously: the
    // workload's sleeps are virtual, so the wall-clock run is short. A
    // window only counts as "live" if the job was still non-terminal
    // after it closed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(110);
    let mut live_windows = 0u32;
    let mut live_nonempty = 0u32;
    while !control.job("mx").is_none_or(JobRecord::finished) {
        control.exec("watch f1 anomalies");
        if control.job("mx").is_none_or(JobRecord::finished) {
            break;
        }
        live_windows += 1;
        let snap = control.last_window("f1").expect("watch closed a window");
        if snap.new_records > 0 {
            live_nonempty += 1;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job never converged while watching"
        );
        // `tail` shares the watch cursors: what it shows mid-job it
        // also feeds the live trace, once.
        control.exec("tail f1 n=1");
    }
    assert!(control.wait_job("mx", 120_000), "mutex job completed");
    assert!(
        live_nonempty >= 2,
        "watch must stream data during the run: {live_nonempty} non-empty of {live_windows} live windows"
    );
    let t = control.transcript();
    assert!(t.contains("watch f1 w0:"), "windows rendered: {t}");
    assert!(t.contains("anomaly:"), "anomaly lines rendered: {t}");

    // Drain the pipeline; one more watch then consumes everything the
    // store holds.
    let text = sim.getlog(&mut control, "f1");
    assert!(!text.is_empty(), "store filter logged records");
    let blue = sim.cluster().machine("blue").expect("blue exists");
    let desc = Descriptions::standard();
    control.exec("watch f1");
    let reader = StoreReader::load(&SimFsBackend::new(Arc::clone(&blue)), "/usr/tmp/log.f1");
    {
        let live = control.watch_live_mut("f1").expect("state").live_mut();
        assert_eq!(
            live.len() as u64,
            reader.n_records(),
            "watch caught up with the store"
        );
        assert_eq!(live.reorder_pending(), 0, "no seq gaps after the drain");
    }
    let batch_trace = Trace::from_store(&reader, &desc);
    let batch_pairing = Pairing::analyze(&batch_trace);
    let batch_hb = HappensBefore::build(&batch_trace, &batch_pairing);
    let batch_stats = CommStats::analyze(&batch_trace, &batch_pairing);
    // Remote == local: `getlog` and `check` loaded the store through
    // blue's daemon, `reader` straight off blue's file system.
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        render_store(&reader, &desc),
        "getlog renders the local reader's frames, one for one"
    );
    assert_eq!(
        control.exec("check f1 mutex").trim_end(),
        MutexReport::check(&batch_trace).to_string().trim_end(),
        "check reads the same trace"
    );

    // The tentpole invariant: at quiescence, the incrementally-grown
    // live state equals the batch analyses, field for field.
    let live = control
        .watch_live_mut("f1")
        .expect("watch state exists")
        .live_mut();
    assert_eq!(live.reorder_pending(), 0, "no seq gaps at quiescence");
    assert_eq!(live.trace(), &batch_trace, "live trace == batch trace");
    assert_eq!(live.pairing(), &batch_pairing, "live pairing == batch");
    assert_eq!(live.hb(), &batch_hb, "live happens-before == batch");
    assert_eq!(live.stats(), &batch_stats, "live stats == batch");

    // A fresh engine fed the whole store in one batch sees the same
    // trace.
    let frames: Vec<OwnedFrame> = reader.scan().map(|f| OwnedFrame::of(&f)).collect();
    assert_eq!(frames.len() as u64, reader.n_records());
    let mut lt = LiveTrace::new(desc.clone());
    lt.ingest_batch(frames);
    assert_eq!(lt.len(), batch_trace.len());

    control.exec("bye");
    sim.shutdown();
}

/// `tail` renders newly arrived records as text and shares the watch
/// cursors: a `tail` between `watch`es neither loses nor double-counts
/// frames for the live trace.
#[test]
fn tail_renders_new_records_and_shares_watch_cursors() {
    let sim = Simulation::builder()
        .machines(["yellow", "red"])
        .net(NetConfig::ideal())
        .seed(17)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 red log=store");
    assert!(control.transcript().contains("created"));

    control.exec("newjob pp f1");
    for (i, m) in ["yellow", "red"].iter().enumerate() {
        control.exec(&format!("addprocess pp {m} /bin/lmutex {i} 2 1 yellow red"));
    }
    control.exec("setflags pp send receive");
    control.exec("startjob pp");
    assert!(control.wait_job("pp", 60_000), "mutex pair completed");

    let text = sim.getlog(&mut control, "f1");
    assert!(!text.is_empty());

    let shown = control.exec("tail f1 n=5");
    assert!(
        shown.contains("event=send"),
        "tail rendered records: {shown}"
    );
    let mut shown = shown.lines();
    let new: usize = shown
        .next()
        .and_then(|l| l.strip_prefix("tail f1: "))
        .and_then(|l| l.strip_suffix(" new record(s)"))
        .and_then(|n| n.parse().ok())
        .expect("tail's count line");
    let shown: Vec<&str> = shown.map(str::trim_start).collect();

    // A follow-up watch window shares the tail's cursors: it reaches
    // exactly the store's record count, with no frame replayed or
    // double-counted.
    let red = sim.cluster().machine("red").expect("red exists");
    control.exec("watch f1");
    let reader = StoreReader::load(&SimFsBackend::new(Arc::clone(&red)), "/usr/tmp/log.f1");
    let live = control.watch_live_mut("f1").expect("state").live_mut();
    assert_eq!(
        live.len() as u64,
        reader.n_records(),
        "tail/watch cursors reached the store contents"
    );
    assert_eq!(live.reorder_pending(), 0, "no seq gaps after the drain");
    assert_eq!(live.replays(), 0, "no frame offered twice past a cursor");
    assert_eq!(live.duplicates(), 0, "no (machine,pid,seq) double-count");
    // Remote == local: the frames `tail` and `watch` polled through
    // red's daemon are the local reader's, and the records `tail`
    // showed are the last of the `new` it read (one shard: a poll's
    // frames are a prefix of the store).
    let desc = Descriptions::standard();
    assert_eq!(live.trace(), &Trace::from_store(&reader, &desc));
    let local = render_store(&reader, &desc);
    assert_eq!(shown, local[new - shown.len()..new]);

    control.exec("bye");
    sim.shutdown();
}
