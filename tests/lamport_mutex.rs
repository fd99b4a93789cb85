//! End-to-end: Lamport's distributed mutual exclusion runs under full
//! metering (meterd → filter → binary store), and every property is
//! verified from the monitor's own log — the workload's internal
//! state is never inspected. Mutual exclusion comes out of
//! happens-before over the CS-enter/exit marker beacons, the total
//! request order out of the Lamport-timestamped request keys, and the
//! message complexity out of counting protocol beacons, all against a
//! trace rebuilt from store segments.

use dpm::crates::analysis::{MutexReport, Trace};
use dpm::crates::filter::SimFsBackend;
use dpm::crates::logstore::StoreReader;
use dpm::{Descriptions, LogRecord, NetConfig, Simulation};
use std::sync::Arc;

const HOSTS: [&str; 4] = ["yellow", "red", "green", "blue"];
const ROUNDS: usize = 2;

/// Loads the store under `dir` on `m` through the directory-listing
/// API — discovery by listing, not by probing dense segment names.
fn load_store(m: &Arc<dpm::crates::simos::Machine>, dir: &str) -> StoreReader {
    StoreReader::load(&SimFsBackend::new(Arc::clone(m)), dir)
}

/// Renders stored frames the way a text filter logs records.
fn render_store(reader: &StoreReader, desc: &Descriptions) -> String {
    let mut out = String::new();
    for f in reader.scan() {
        if let Some(rec) = LogRecord::from_raw(desc, f.raw, &[]) {
            out.push_str(&rec.to_string());
            out.push('\n');
        }
    }
    out
}

#[test]
fn mutual_exclusion_is_verified_from_the_store_log() {
    let sim = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(61)
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
    assert!(control.wait_job("mx", 120_000), "mutex job completed");

    // Drain the pipeline, then rebuild the trace from the raw store
    // segments — the only evidence the checker gets.
    let text = sim.stable_log(&mut control, "f1");
    assert!(!text.is_empty(), "store filter logged records");
    let blue = sim.cluster().machine("blue").expect("blue exists");
    let desc = Descriptions::standard();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let reader = loop {
        let reader = load_store(&blue, "/usr/tmp/log.f1");
        if render_store(&reader, &desc) == text {
            break reader;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "segment render never matched the stabilized getlog text"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let trace = Trace::from_store(&reader, &desc);
    assert_eq!(trace, Trace::parse(&text), "store and text traces agree");

    let report = MutexReport::check(&trace);

    // Safety, order, liveness and complexity — all from the trace.
    assert_eq!(report.n, HOSTS.len(), "{report}");
    assert!(report.mutual_exclusion_ok(), "{report}");
    assert!(!report.has_cycle, "{report}");
    assert!(report.order_ok, "{report}");
    assert_eq!(report.requests, HOSTS.len() * ROUNDS, "{report}");
    assert_eq!(report.intervals.len(), HOSTS.len() * ROUNDS, "{report}");
    for iv in &report.intervals {
        assert!(iv.exit_idx.is_some(), "interval {iv:?} closed");
    }
    // On an ideal network the protocol hits its 3(n-1) messages per
    // request exactly — nothing lost, nothing retried.
    assert_eq!(report.protocol_sends, report.bound, "{report}");
    assert!(report.faults.is_clean(), "{report}");

    // The controller exposes the same verdict as a session command.
    control.exec("check f1 mutex");
    let t = control.transcript();
    assert!(t.contains("mutual exclusion: OK"), "{t}");
    assert!(t.contains("total request order: OK"), "{t}");
    assert!(t.contains("within bound"), "{t}");
    assert!(t.contains("link faults: none"), "{t}");

    control.exec("bye");
    sim.shutdown();
}
