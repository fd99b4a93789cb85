//! End-to-end test of the standard filter process running the sharded
//! pipeline inside the simulated OS.
//!
//! Four "metered processes" (plain user processes here — the meter
//! connection protocol is just a byte stream) connect to the filter's
//! meter port and dribble their streams out in small chunks, garbage
//! included. The filter fans the connections across worker shards and
//! appends accepted records to its log store in batches. Rendered, the
//! store must hold exactly the lines a lone [`FilterEngine`] produces
//! for the same per-connection streams: shard interleaving may reorder
//! whole records, but must never split or drop one.
//!
//! The last test is the library identity behind "the §3.4 text is a
//! view": the same stream into [`ShardLog::Text`] and into
//! [`ShardLog::Store`] gives text bytes equal to the [`KeptRecord`]
//! render of the stored frames, `#` reduction included.

use dpm_filter::{
    filter_main, Descriptions, FilterEngine, KeptRecord, Rules, ShardLog, ShardedFilter,
    SimFsBackend, Verdict, DEFAULT_BATCH_BYTES,
};
use dpm_logstore::{Backend, LogStore, MemBackend, StoreConfig, StoreReader};
use dpm_meter::{trace_type, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use dpm_simnet::NetConfig;
use dpm_simos::{Cluster, Domain, Machine, Proc, SockType, SysError, SysResult, Uid};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const FILTER_PORT: u16 = 4300;
const LOGFILE: &str = "/usr/tmp/log.sharded";

fn send_record(machine: u16, cpu: u32, pid: u32) -> Vec<u8> {
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine,
            cpu_time: cpu,
            seq: 0,
            proc_time: 0,
            trace_type: trace_type::SEND,
        },
        body: MeterBody::Send(MeterSendMsg {
            pid,
            pc: 7,
            sock: 3,
            msg_length: 64,
            dest_name: Some(SockName::inet(2, 99)),
        }),
    }
    .encode()
}

/// One metered process's stream: records with zero-filled garbage runs
/// in between (unambiguous for resynchronization — any misaligned size
/// read falls outside the valid range).
fn stream_for(conn: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..25u32 {
        if i % 5 == conn % 5 {
            wire.extend(std::iter::repeat_n(0u8, 3 + (i as usize % 7)));
        }
        wire.extend_from_slice(&send_record(conn as u16, 100 * conn + i, 1000 + i));
    }
    wire
}

fn connect_with_retry(p: &Proc, host: &str, port: u16) -> SysResult<dpm_simos::Fd> {
    let mut tries = 0;
    loop {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
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

/// The §3.4 text of stored frames, the way `getlog` derives it: each
/// raw record through the rules' verdict for its discard list, then
/// [`KeptRecord`]'s `Display`.
fn render(reader: &StoreReader, desc: &Descriptions, rules: &Rules) -> String {
    let mut out = String::new();
    for f in reader.scan() {
        let Verdict::Keep { discard_fields } = rules.verdict(desc, f.raw) else {
            panic!("a stored record is one the rules kept");
        };
        let rec = KeptRecord::new(desc, f.raw, &discard_fields).expect("known type");
        writeln!(out, "{rec}").unwrap();
    }
    out
}

/// Polls the store a filter process keeps under `dir` on `m` until it
/// holds `want` records (the filter's readers flush after each EOF;
/// the real threads need a moment to drain), and renders it.
fn rendered_log(m: &Arc<Machine>, dir: &str, want: usize) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let reader = StoreReader::load(&SimFsBackend::new(Arc::clone(m)), dir);
        if reader.n_records() == want as u64 {
            return render(&reader, &Descriptions::standard(), &Rules::default());
        }
        assert!(
            std::time::Instant::now() < deadline,
            "filter store never reached {want} records; got {}",
            reader.n_records()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn sharded_filter_log_matches_single_engine_reference() {
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(23)
        .machine("blue") // filter
        .machine("red") // metered processes
        .build();

    // The filter process itself, running the 4-shard pipeline. The
    // descriptions/templates files are absent on blue, so the filter
    // falls back to the standard descriptions and keep-everything
    // rules — the same configuration as `FilterEngine::standard()`.
    c.spawn_user("blue", "filter", Uid::ROOT, |p| {
        filter_main(
            p,
            vec![
                format!("port={FILTER_PORT}"),
                format!("log={LOGFILE}"),
                "desc=descriptions".to_owned(),
                "templates=templates".to_owned(),
                "shards=4".to_owned(),
            ],
        )
    })
    .expect("spawn filter");

    // Four metered processes on red, each dribbling its stream in
    // 13-byte chunks so records straddle read boundaries.
    let red = c.machine("red").expect("red exists");
    let mut pids = Vec::new();
    for conn in 0..4u32 {
        let pid = c
            .spawn_user("red", &format!("metersrc{conn}"), Uid(7), move |p| {
                let wire = stream_for(conn);
                let s = connect_with_retry(&p, "blue", FILTER_PORT)?;
                for chunk in wire.chunks(13) {
                    p.write(s, chunk)?;
                }
                p.close(s)
            })
            .expect("spawn meter source");
        pids.push(pid);
    }
    for pid in pids {
        red.wait_exit(pid);
    }

    // What a lone engine says each stream contains.
    let mut expected: HashMap<String, usize> = HashMap::new();
    let mut expected_lines = 0usize;
    for conn in 0..4u32 {
        let mut engine = FilterEngine::standard();
        engine.feed_records(&stream_for(conn), &mut |_, rec| {
            *expected.entry(rec.to_string()).or_insert(0) += 1;
            expected_lines += 1;
        });
        assert_eq!(engine.pending_bytes(), 0, "test stream ends on a record");
    }
    assert!(expected_lines > 0, "the reference pipeline kept something");

    let blue = c.machine("blue").expect("blue exists");
    let log = rendered_log(&blue, LOGFILE, expected_lines);

    // Whole records only, and exactly the expected multiset.
    let mut got: HashMap<String, usize> = HashMap::new();
    for line in log.lines() {
        *got.entry(line.to_owned()).or_insert(0) += 1;
    }
    assert_eq!(got, expected, "sharded log is the single-engine multiset");

    c.shutdown();
}

/// The compatibility path: no shard argument means one shard, and the
/// classic single-connection session still works end to end.
#[test]
fn default_single_shard_filter_still_logs() {
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(24)
        .machine("solo")
        .build();

    c.spawn_user("solo", "filter", Uid::ROOT, |p| {
        filter_main(
            p,
            vec![
                format!("port={}", FILTER_PORT + 1),
                "log=/usr/tmp/log.solo".to_owned(),
            ],
        )
    })
    .expect("spawn filter");

    let solo = c.machine("solo").expect("solo exists");
    let pid = c
        .spawn_user("solo", "metersrc", Uid(7), |p| {
            let s = connect_with_retry(&p, "solo", FILTER_PORT + 1)?;
            p.write(s, &send_record(1, 42, 77))?;
            p.close(s)
        })
        .expect("spawn meter source");
    solo.wait_exit(pid);

    let text = rendered_log(&solo, "/usr/tmp/log.solo", 1);
    let lines = FilterEngine::standard().feed(&send_record(1, 42, 77));
    assert_eq!(text.lines().next(), lines.first().map(String::as_str));

    c.shutdown();
}

/// The sharded filter must not deadlock or lose data when a fifth and
/// sixth connection reuse shards that already served earlier
/// connections (round-robin wraps at `shards`).
#[test]
fn more_connections_than_shards_round_robin() {
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(25)
        .machine("wrap")
        .build();

    c.spawn_user("wrap", "filter", Uid::ROOT, |p| {
        filter_main(
            p,
            vec![
                format!("port={}", FILTER_PORT + 2),
                "log=/usr/tmp/log.wrap".to_owned(),
                "desc=descriptions".to_owned(),
                "templates=templates".to_owned(),
                "shards=2".to_owned(),
            ],
        )
    })
    .expect("spawn filter");

    let wrap = c.machine("wrap").expect("wrap exists");
    let mut expected_lines = 0usize;
    for conn in 0..6u32 {
        let mut engine = FilterEngine::standard();
        engine.feed_records(&stream_for(conn), &mut |_, _| expected_lines += 1);
        // Connections run sequentially here; correctness under
        // concurrency is covered by the first test.
        let pid = c
            .spawn_user("wrap", &format!("src{conn}"), Uid(7), move |p| {
                let s = connect_with_retry(&p, "wrap", FILTER_PORT + 2)?;
                p.write(s, &stream_for(conn))?;
                p.close(s)
            })
            .expect("spawn source");
        wrap.wait_exit(pid);
    }

    rendered_log(&wrap, "/usr/tmp/log.wrap", expected_lines);

    c.shutdown();
}

/// One text: the same stream into the library's text sink and into a
/// store gives text bytes equal to the render of the stored frames —
/// with keep-everything rules and with a `#` template, whose reduction
/// the view must apply exactly as the sink does.
#[test]
fn text_sink_bytes_equal_the_render_of_the_stored_frames() {
    let desc = Descriptions::standard();
    for templates in ["", "type=1, pc=#*, machine<=1\n"] {
        let rules = Rules::parse(templates).expect("templates parse");

        let text = Arc::new(Mutex::new(Vec::new()));
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let store = LogStore::open(Arc::clone(&backend), "log", StoreConfig::default());
        let sinks = [
            ShardLog::Text(Box::new({
                let text = Arc::clone(&text);
                move |batch: &[u8]| text.lock().unwrap().extend_from_slice(batch)
            })),
            ShardLog::Store(Box::new(store.writer(0))),
        ];
        for log in sinks {
            let mut log = Some(log);
            let filter = ShardedFilter::with_logs(
                1,
                desc.clone(),
                rules.clone(),
                DEFAULT_BATCH_BYTES,
                |_| log.take().expect("one shard"),
            );
            // Connections in sequence, so both sinks see one order.
            for conn in 0..3u32 {
                let handle = filter.open_conn();
                for chunk in stream_for(conn).chunks(13) {
                    handle.feed(chunk.to_vec());
                }
                handle.close();
                filter.flush();
            }
        }

        let text = String::from_utf8(text.lock().unwrap().clone()).expect("utf-8 log");
        let reader = StoreReader::load(backend.as_ref(), "log");
        assert!(reader.n_records() > 0, "{templates:?}: something was kept");
        assert_eq!(text, render(&reader, &desc, &rules), "{templates:?}");
        assert_eq!(
            text.contains(" pc="),
            templates.is_empty(),
            "{templates:?}: `#` strips pc from every line"
        );
    }
}
