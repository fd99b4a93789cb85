//! End-to-end checks of the binary log store against its text view.
//!
//! Part 1 rotates a store through many tiny segments and asserts the
//! trace comes out identical by every read path, the rendered text
//! included. (That the rendered text *is* what a text sink would have
//! logged is a library identity: `crates/filter/tests/shard_pipeline.rs`.)
//!
//! Part 2 drives the whole control plane: a session with
//! `filter f1 blue`, a metered job, `getlog` (which loads the store
//! through blue's meterdaemon and renders locally), and the analysis
//! built straight from the store — then grows that store to many
//! segments and asserts `getlog` is still the render of the segments.

use dpm::crates::analysis::{Analysis, Trace};
use dpm::crates::logstore::StoreReader;
use dpm::crates::meter::{
    MeterBody, MeterHeader, MeterMsg, MeterSendMsg, MeterTermProc, SockName, TermReason,
};
use dpm::{Descriptions, LogRecord, Simulation};

fn msg(machine: u16, cpu: u32, body: MeterBody) -> Vec<u8> {
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine,
            cpu_time: cpu,
            seq: 0,
            proc_time: 0,
            trace_type: body.trace_type(),
        },
        body,
    }
    .encode()
}

/// Loads the store under `dir` on `m` through the directory-listing
/// API — discovery by listing, not by probing dense segment names
/// (and so shard-count agnostic).
fn load_store(m: &std::sync::Arc<dpm::crates::simos::Machine>, dir: &str) -> StoreReader {
    StoreReader::load(
        &dpm::crates::filter::SimFsBackend::new(std::sync::Arc::clone(m)),
        dir,
    )
}

/// Renders stored frames as §3.4 text through the owned-record path:
/// decode the raw wire bytes with the descriptions, one line each.
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
fn multi_segment_store_reassembles_identically_by_every_path() {
    use dpm::crates::logstore::{LogStore, MemBackend, StoreConfig};
    use std::sync::Arc;

    // Tiny segments force many rotations; the trace must come out
    // identical whether it is rebuilt from the reader, from the raw
    // frame iterator, or from the rendered text — segment boundaries
    // may not show through at any layer.
    let backend = Arc::new(MemBackend::new());
    let store = LogStore::open(
        backend.clone(),
        "multi",
        StoreConfig {
            segment_bytes: 512,
            batch_bytes: 64,
            index_every: 8,
        },
    );
    let mut w = store.writer(0);
    let mut appended = 0usize;
    for conn in 1..=3u16 {
        for i in 0..40u32 {
            w.append(&msg(
                conn,
                1_000 * u32::from(conn) + i,
                MeterBody::Send(MeterSendMsg {
                    pid: 500 + u32::from(conn),
                    pc: 7,
                    sock: 3,
                    msg_length: 32 + i,
                    dest_name: Some(SockName::inet(2, 99)),
                }),
            ));
            appended += 1;
        }
        w.append(&msg(
            conn,
            90_000,
            MeterBody::TermProc(MeterTermProc {
                pid: 500 + u32::from(conn),
                pc: 9,
                reason: TermReason::Normal,
            }),
        ));
        appended += 1;
    }
    w.sync();

    let reader = StoreReader::load(backend.as_ref(), "multi");
    assert!(
        reader.n_segments() > 3,
        "only {} segments — rotation never happened",
        reader.n_segments()
    );
    assert_eq!(reader.n_records(), appended as u64);

    let desc = Descriptions::standard();
    let from_store = Trace::from_store(&reader, &desc);
    let from_frames = Trace::from_frames(reader.scan(), &desc);
    let from_text = Trace::parse(&render_store(&reader, &desc));
    assert_eq!(from_store.len(), appended);
    assert_eq!(from_store, from_frames);
    assert_eq!(from_store, from_text);
}

#[test]
fn controller_session_with_store_filter() {
    use dpm::crates::filter::SimFsBackend;
    use dpm::crates::logstore::{LogStore, StoreConfig};
    use std::sync::Arc;

    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue");
    assert!(
        control.transcript().contains("filter 'f1' ... created"),
        "{}",
        control.transcript()
    );
    // Every filter keeps a store: the listing has no sink to mark.
    let listing = control.exec("filter");
    assert!(listing.starts_with("f1  pid "), "{listing}");
    assert!(!listing.contains("log="), "{listing}");

    control.exec("newjob foo");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job foo completed");
    control.exec("removejob foo");

    // `getlog` fetches the segments and renders the §3.4 text.
    let text = sim.stable_log(&mut control, "f1");
    assert!(!text.is_empty(), "getlog produced a trace");

    // Reading the segments straight off blue and rendering locally
    // must agree with what getlog produced (poll: flushes are async).
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
            "direct segment render never matched getlog output"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // The analysis built from the store equals the analysis of the
    // rendered text, and has the Appendix-B structure.
    let from_store = Trace::from_store(&reader, &desc);
    assert_eq!(from_store, Trace::parse(&text));
    let analysis = Analysis::of_log(&text);
    assert!(!analysis.trace.is_empty(), "trace has events");
    assert_eq!(analysis.pairing.connections.len(), 1, "one A→B connection");
    assert!(
        analysis.stats.matched >= 10,
        "request/reply traffic matched"
    );

    // Many segments: with the filter idle, rotate more records through
    // tiny segments of a second shard straight onto blue's disk. What
    // `getlog` loads through the daemon — listing, segments, sidecars —
    // must still be what a local reader loads.
    let on_blue = Arc::new(SimFsBackend::new(Arc::clone(&blue)));
    let tiny = StoreConfig {
        segment_bytes: 512,
        batch_bytes: 64,
        index_every: 8,
    };
    let store = LogStore::open(on_blue, "/usr/tmp/log.f1", tiny);
    let mut w = store.writer(1);
    for i in 0..120u32 {
        let body = MeterBody::Send(MeterSendMsg {
            pid: 777,
            pc: 7,
            sock: 3,
            msg_length: 32 + i,
            dest_name: Some(SockName::inet(2, 99)),
        });
        w.append(&msg(9, 1_000 + i, body));
    }
    drop(w);
    let grown = load_store(&blue, "/usr/tmp/log.f1");
    assert!(grown.n_segments() > 10, "{} segments", grown.n_segments());
    assert_eq!(grown.n_records(), reader.n_records() + 120);
    control.exec("getlog f1 /tmp/many");
    let many = sim.local_file(&control, "/tmp/many").expect("getlog wrote");
    assert_eq!(String::from_utf8_lossy(&many), render_store(&grown, &desc));

    control.exec("bye");
    assert!(control.is_done());
    sim.shutdown();
}
