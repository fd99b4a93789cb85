//! End-to-end checks of the binary log store against the text log.
//!
//! Part 1 feeds two standard filter processes — one `text`, one
//! `store` — byte-identical meter streams inside the simulated OS and
//! asserts the store path reproduces the text path exactly: rendering
//! the stored raw records gives the same log bytes, and
//! `Trace::from_store` gives the same typed events as parsing the
//! text log.
//!
//! Part 2 drives the whole control plane: a session with
//! `filter f1 blue log=store`, a metered job, `getlog` (which fetches
//! segments and renders locally), and the analysis built straight from
//! the store.

use dpm::crates::analysis::{Analysis, Trace};
use dpm::crates::filter::{filter_main, FilterEngine};
use dpm::crates::logstore::StoreReader;
use dpm::crates::meter::{
    MeterBody, MeterFork, MeterHeader, MeterMsg, MeterSendMsg, MeterTermProc, SockName, TermReason,
};
use dpm::{
    Cluster, Descriptions, LogRecord, NetConfig, Proc, Simulation, SysError, SysResult, Uid,
};

const TEXT_PORT: u16 = 4600;
const STORE_PORT: u16 = 4601;
const TEXT_LOG: &str = "/usr/tmp/log.text";
const STORE_LOG: &str = "/usr/tmp/log.store";

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

/// One metered process's stream: sends, a fork, and a termination,
/// with zero-filled garbage runs to exercise resynchronization. The
/// same bytes go to both filters.
fn stream_for(conn: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..20u32 {
        if i % 4 == conn % 4 {
            wire.extend(std::iter::repeat_n(0u8, 3 + (i as usize % 5)));
        }
        wire.extend_from_slice(&msg(
            conn as u16,
            100 * conn + i,
            MeterBody::Send(MeterSendMsg {
                pid: 1000 + conn,
                pc: 7,
                sock: 3,
                msg_length: 64 + i,
                dest_name: Some(SockName::inet(2, 99)),
            }),
        ));
    }
    wire.extend_from_slice(&msg(
        conn as u16,
        9_000,
        MeterBody::Fork(MeterFork {
            pid: 1000 + conn,
            pc: 8,
            new_pid: 2000 + conn,
        }),
    ));
    wire.extend_from_slice(&msg(
        conn as u16,
        9_500,
        MeterBody::TermProc(MeterTermProc {
            pid: 1000 + conn,
            pc: 9,
            reason: TermReason::Normal,
        }),
    ));
    wire
}

fn connect_with_retry(p: &Proc, host: &str, port: u16) -> SysResult<dpm::crates::simos::Fd> {
    let mut tries = 0;
    loop {
        let s = p.socket(
            dpm::crates::simos::Domain::Inet,
            dpm::crates::simos::SockType::Stream,
        )?;
        match p.connect_host(s, host, port) {
            Ok(()) => return Ok(s),
            Err(SysError::Econnrefused) if tries < 500 => {
                let _ = p.close(s);
                tries += 1;
                p.sleep_ms(2)?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => {
                let _ = p.close(s);
                return Err(e);
            }
        }
    }
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

/// Renders stored frames exactly the way a text filter logs records:
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
fn store_filter_matches_text_filter_on_identical_streams() {
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(31)
        .machine("mill")
        .build();

    // Two standard filter processes, identical except for the sink.
    for (port, log, mode) in [
        (TEXT_PORT, TEXT_LOG, "text"),
        (STORE_PORT, STORE_LOG, "store"),
    ] {
        c.spawn_user("mill", &format!("filter-{mode}"), Uid::ROOT, move |p| {
            filter_main(
                p,
                vec![
                    format!("port={port}"),
                    format!("log={log}"),
                    "desc=descriptions".to_owned(),
                    "templates=templates".to_owned(),
                    "shards=1".to_owned(),
                    format!("mode={mode}"),
                ],
            )
        })
        .expect("spawn filter");
    }

    // Each source sends the same bytes to both filters; sources run
    // sequentially so both logs see one deterministic total order.
    let mill = c.machine("mill").expect("mill exists");
    for conn in 0..3u32 {
        let pid = c
            .spawn_user("mill", &format!("src{conn}"), Uid(7), move |p| {
                let wire = stream_for(conn);
                for port in [TEXT_PORT, STORE_PORT] {
                    let s = connect_with_retry(&p, "mill", port)?;
                    for chunk in wire.chunks(13) {
                        p.write(s, chunk)?;
                    }
                    p.close(s)?;
                }
                Ok(())
            })
            .expect("spawn source");
        mill.wait_exit(pid);
    }

    // The reference: what a lone engine keeps from those streams.
    let mut expected_lines = 0usize;
    for conn in 0..3u32 {
        let mut engine = FilterEngine::standard();
        engine.feed_into(&stream_for(conn), &mut |_rec| expected_lines += 1);
    }
    assert!(expected_lines > 0, "reference kept something");

    // Wait for both sinks to drain (filters flush on idle).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let (text_log, reader) = loop {
        let text = mill.fs().read_string(TEXT_LOG).unwrap_or_default();
        let reader = load_store(&mill, STORE_LOG);
        if text.lines().count() == expected_lines && reader.n_records() == expected_lines as u64 {
            break (text, reader);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sinks never drained: text {} / store {} of {expected_lines}",
            text.lines().count(),
            reader.n_records(),
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };

    // Byte identity: rendering the stored raw records reproduces the
    // text log exactly.
    let desc = Descriptions::standard();
    assert_eq!(render_store(&reader, &desc), text_log);

    // And the analysis layer agrees: events from the store equal
    // events parsed from the text log.
    let from_store = Trace::from_frames(reader.scan(), &desc);
    let from_text = Trace::parse(&text_log);
    assert_eq!(from_store.len(), expected_lines);
    assert_eq!(from_store, from_text);

    // Every stored frame carries the process key lifted from the wire
    // (machine = conn, pid = 1000 + conn in the synthetic streams).
    for f in reader.scan() {
        assert_eq!(f.proc.pid, 1000 + u32::from(f.proc.machine));
    }

    c.shutdown();
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
    let sim = Simulation::builder()
        .machines(["yellow", "red", "green", "blue"])
        .seed(42)
        .build();
    let mut control = sim.controller("yellow").expect("controller");
    control.exec("filter f1 blue log=store");
    assert!(
        control.transcript().contains("filter 'f1' ... created"),
        "{}",
        control.transcript()
    );
    control.exec("filter");
    assert!(
        control.transcript().contains("log=store"),
        "listing marks the store sink: {}",
        control.transcript()
    );

    control.exec("newjob foo");
    control.exec("addprocess foo red /bin/A green");
    control.exec("addprocess foo green /bin/B");
    control.exec("setflags foo send receive fork accept connect");
    control.exec("startjob foo");
    assert!(control.wait_job("foo", 60_000), "job foo completed");
    control.exec("removejob foo");

    // `getlog` on a store filter fetches the segments and renders the
    // same text a text filter would have logged.
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

    control.exec("bye");
    assert!(control.is_done());
    sim.shutdown();
}
