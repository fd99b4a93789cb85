//! End-to-end test of the standard filter process running the sharded
//! pipeline inside the simulated OS.
//!
//! Four "metered processes" (plain user processes here — the meter
//! connection protocol is just a byte stream) connect to the filter's
//! meter port and dribble their streams out in small chunks, garbage
//! included. The filter fans the connections across worker shards and
//! appends accepted records to its log file in batches. The log must
//! contain exactly the lines a lone [`FilterEngine`] produces for the
//! same per-connection streams: shard interleaving may reorder whole
//! lines, but must never split or drop one.

use dpm_filter::{filter_main, FilterEngine};
use dpm_meter::{trace_type, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use dpm_simnet::NetConfig;
use dpm_simos::{Cluster, Domain, Proc, SockType, SysError, SysResult, Uid};
use std::collections::HashMap;

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
        engine.feed_into(&stream_for(conn), &mut |rec| {
            *expected.entry(rec.to_string()).or_insert(0) += 1;
            expected_lines += 1;
        });
        assert_eq!(engine.pending_bytes(), 0, "test stream ends on a record");
    }
    assert!(expected_lines > 0, "the reference pipeline kept something");

    // The filter's readers flush after each EOF; give the real threads
    // a moment to drain, polling the log until it stabilizes.
    let blue = c.machine("blue").expect("blue exists");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let log = loop {
        let text = blue.fs().read_string(LOGFILE).unwrap_or_default();
        if text.lines().count() == expected_lines {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "filter log never reached {expected_lines} lines; got:\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };

    // Whole lines only, and exactly the expected multiset.
    let mut got: HashMap<String, usize> = HashMap::new();
    for line in log.lines() {
        assert!(!line.is_empty(), "no blank lines from batch seams");
        *got.entry(line.to_owned()).or_insert(0) += 1;
    }
    assert_eq!(got, expected, "sharded log is the single-engine multiset");
    assert!(log.ends_with('\n'), "batches end on line boundaries");

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

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Some(text) = solo.fs().read_string("/usr/tmp/log.solo") {
            if text.lines().count() == 1 {
                let mut reference = FilterEngine::standard();
                let lines = reference.feed(&send_record(1, 42, 77));
                assert_eq!(text.lines().next(), lines.first().map(String::as_str));
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "single-shard filter never logged the record"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

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
        engine.feed_into(&stream_for(conn), &mut |_rec| expected_lines += 1);
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

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let text = wrap
            .fs()
            .read_string("/usr/tmp/log.wrap")
            .unwrap_or_default();
        if text.lines().count() == expected_lines {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected {expected_lines} lines, got {}",
            text.lines().count()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    c.shutdown();
}
