//! The evaluation harness: regenerates every experiment of
//! `DESIGN.md`'s table (E1–E7) plus the Appendix-A record-size table.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin experiments
//! ```
//!
//! All monitored-system numbers are in deterministic virtual time;
//! `EXPERIMENTS.md` records a reference run next to the corresponding
//! claim in the paper.

use dpm_bench::{run_metered, synthetic_log, two_machine_cluster, U};
use dpm_filter::{Descriptions, FilterEngine, Rules};
use dpm_meter::{trace_type, MeterBody, MeterFlags, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use dpm_meterd::{read_frame, rpc_call, start_meterdaemons, Reply, Request, RpcStatus};
use dpm_simnet::NetConfig;
use dpm_simos::{BindTo, Cluster, Domain, SockType, SysResult};
use std::time::Instant;

fn main() {
    appendix_a_table();
    e1_metering_overhead();
    e2_buffering();
    e3_filter_throughput();
    e4_daemon_rpc();
    e5_ipc();
    e6_analysis_scaling();
    e7_trace_volume();
}

fn banner(s: &str) {
    println!("\n==== {s} {}", "=".repeat(66usize.saturating_sub(s.len())));
}

/// Appendix A as a table: encoded size of every meter record type.
fn appendix_a_table() {
    banner("Appendix A: meter message formats (encoded sizes)");
    use dpm_meter::*;
    let name = Some(SockName::inet(1, 2));
    let msgs: Vec<(&str, MeterBody)> = vec![
        (
            "send",
            MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 1,
                sock: 1,
                msg_length: 1,
                dest_name: name.clone(),
            }),
        ),
        (
            "receivecall",
            MeterBody::RecvCall(MeterRecvCall {
                pid: 1,
                pc: 1,
                sock: 1,
            }),
        ),
        (
            "receive",
            MeterBody::Recv(MeterRecvMsg {
                pid: 1,
                pc: 1,
                sock: 1,
                msg_length: 1,
                source_name: name.clone(),
            }),
        ),
        (
            "socket",
            MeterBody::SockCrt(MeterSockCrt {
                pid: 1,
                pc: 1,
                sock: 1,
                domain: 2,
                sock_type: 1,
                protocol: 0,
            }),
        ),
        (
            "dup",
            MeterBody::Dup(MeterDup {
                pid: 1,
                pc: 1,
                sock: 1,
                new_sock: 1,
            }),
        ),
        (
            "destsocket",
            MeterBody::DestSock(MeterDestSock {
                pid: 1,
                pc: 1,
                sock: 1,
            }),
        ),
        (
            "fork",
            MeterBody::Fork(MeterFork {
                pid: 1,
                pc: 1,
                new_pid: 2,
            }),
        ),
        (
            "accept",
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 1,
                sock: 1,
                new_sock: 2,
                sock_name: name.clone(),
                peer_name: name.clone(),
            }),
        ),
        (
            "connect",
            MeterBody::Connect(MeterConnect {
                pid: 1,
                pc: 1,
                sock: 1,
                sock_name: name.clone(),
                peer_name: name,
            }),
        ),
        (
            "termproc",
            MeterBody::TermProc(MeterTermProc {
                pid: 1,
                pc: 1,
                reason: TermReason::Normal,
            }),
        ),
    ];
    println!(
        "{:<14} {:>6} {:>6} {:>6}",
        "event", "type", "header", "total"
    );
    for (n, body) in msgs {
        let msg = MeterMsg {
            header: MeterHeader::default(),
            body,
        };
        let bytes = msg.encode();
        println!(
            "{:<14} {:>6} {:>6} {:>6}",
            n,
            msg.body.trace_type(),
            dpm_meter::HEADER_LEN,
            bytes.len()
        );
    }
}

/// E1 (§2.2): the degradation metering causes should be small.
fn e1_metering_overhead() {
    banner("E1: metering overhead (virtual CPU of the metered process)");
    let rounds = 300;
    let base = run_metered(MeterFlags::NONE, 8, rounds, 64);
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>12}",
        "flags", "cpu_us", "wall_us", "overhead", "meter_bytes"
    );
    let pct = |cpu: u64| 100.0 * (cpu as f64 - base.cpu_us as f64) / base.cpu_us as f64;
    println!(
        "{:<26} {:>12} {:>12} {:>9.1}% {:>12}",
        "none", base.cpu_us, base.wall_us, 0.0, base.meter_bytes
    );
    for (label, flags) in [
        ("send only", MeterFlags::SEND),
        (
            "send+receive",
            MeterFlags::SEND | MeterFlags::RECEIVE | MeterFlags::RECEIVECALL,
        ),
        ("all", MeterFlags::ALL),
        ("all + immediate", MeterFlags::ALL | MeterFlags::IMMEDIATE),
    ] {
        let r = run_metered(flags, 8, rounds, 64);
        println!(
            "{:<26} {:>12} {:>12} {:>9.1}% {:>12}",
            label,
            r.cpu_us,
            r.wall_us,
            pct(r.cpu_us),
            r.meter_bytes
        );
    }
}

/// E2 (§4.1): buffering makes the number of meter messages
/// "considerably smaller" than the number of events.
fn e2_buffering() {
    banner("E2: kernel meter-buffer sweep (all flags, 300 rounds)");
    println!(
        "{:<10} {:>13} {:>12} {:>12} {:>12}",
        "buffer", "meter_frames", "meter_bytes", "events", "cpu_us"
    );
    for buffer in [1u32, 2, 4, 8, 16, 32] {
        let r = run_metered(MeterFlags::ALL, buffer, 300, 64);
        println!(
            "{:<10} {:>13} {:>12} {:>12} {:>12}",
            buffer,
            r.meter_frames,
            r.meter_bytes,
            r.messages.len(),
            r.cpu_us
        );
    }
}

/// E3 (§3.4): filter selection throughput vs. rule-set size.
fn e3_filter_throughput() {
    banner("E3: filter selection throughput (real time, 100k records)");
    let record = MeterMsg {
        header: MeterHeader {
            size: 0,
            machine: 3,
            cpu_time: 5_000,
            seq: 0,
            proc_time: 20,
            trace_type: trace_type::SEND,
        },
        body: MeterBody::Send(MeterSendMsg {
            pid: 1234,
            pc: 9,
            sock: 4,
            msg_length: 612,
            dest_name: Some(SockName::inet(1, 53)),
        }),
    }
    .encode();
    let n = 100_000;
    let mut wire = Vec::with_capacity(record.len() * 64);
    for _ in 0..64 {
        wire.extend_from_slice(&record);
    }
    let rule_sets: Vec<(&str, String)> = vec![
        ("no rules", String::new()),
        ("1 simple", "machine=3, cpuTime<10000\n".into()),
        (
            "4 rules",
            "machine=9\nmachine=8\ntype=2\nmachine=3, type=1, pid=1*, size>=512\n".into(),
        ),
        (
            "16 rules",
            (0..15)
                .map(|i| format!("machine={}\n", 100 + i))
                .collect::<String>()
                + "machine=3, pid=#*, size>=512\n",
        ),
    ];
    println!(
        "{:<12} {:>10} {:>12} {:>10}",
        "rules", "kept", "records/s", "ms total"
    );
    for (label, rules) in rule_sets {
        let mut engine = FilterEngine::new(
            Descriptions::standard(),
            Rules::parse(&rules).expect("rules parse"),
        );
        let start = Instant::now();
        let mut kept = 0usize;
        let mut fed = 0usize;
        while fed < n {
            kept += engine.feed(&wire).len();
            fed += 64;
        }
        let dt = start.elapsed();
        println!(
            "{:<12} {:>10} {:>12.0} {:>10.1}",
            label,
            kept,
            fed as f64 / dt.as_secs_f64(),
            dt.as_secs_f64() * 1000.0
        );
    }
}

/// E4 (§3.5.1): temporary controller↔daemon connections do not add
/// significant overhead compared with a long-lived connection.
fn e4_daemon_rpc() {
    banner("E4: controller/daemon RPC — temporary vs persistent connection");
    let cluster = Cluster::builder()
        .net(NetConfig::lan())
        .seed(9)
        .machine("ctl")
        .machine("remote")
        .build();
    start_meterdaemons(&cluster);
    // A persistent-connection echo peer for the baseline.
    cluster
        .spawn_user("remote", "echo-server", U, |p| {
            let l = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(l, BindTo::Port(7000))?;
            p.listen(l, 4)?;
            let (conn, _) = p.accept(l)?;
            while let Some(frame) = read_frame(&p, conn)? {
                let req = Request::decode(&frame).map_err(|_| dpm_simos::SysError::Einval)?;
                let _ = req;
                p.write(
                    conn,
                    &Reply::Ack {
                        status: RpcStatus::Ok,
                    }
                    .encode(),
                )?;
            }
            Ok(())
        })
        .expect("echo server");

    let exchanges = 100u32;
    let results = std::sync::Arc::new(parking_lot::Mutex::new(Vec::<(String, u64)>::new()));
    let out = results.clone();
    let driver = cluster
        .spawn_user("ctl", "driver", U, move |p| -> SysResult<()> {
            // Temporary connection per exchange (the daemon protocol).
            let t0 = p.time_ms();
            for _ in 0..exchanges {
                let _ = rpc_call(
                    &p,
                    "remote",
                    &Request::GetFile {
                        path: "/none".into(),
                    },
                )?;
            }
            let temp_ms = (p.time_ms() - t0) as u64;
            out.lock()
                .push(("temporary (per exchange)".into(), temp_ms));

            // Persistent connection baseline.
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.connect_host(s, "remote", 7000)?;
            let t0 = p.time_ms();
            for _ in 0..exchanges {
                p.write(
                    s,
                    &Request::GetFile {
                        path: "/none".into(),
                    }
                    .encode(),
                )?;
                let _ = read_frame(&p, s)?;
            }
            let pers_ms = (p.time_ms() - t0) as u64;
            out.lock().push(("persistent (one stream)".into(), pers_ms));
            p.close(s)?;
            Ok(())
        })
        .expect("driver");
    cluster.machine("ctl").unwrap().wait_exit(driver);
    println!("{:<26} {:>14} {:>14}", "mode", "total_ms", "ms/exchange");
    for (label, ms) in results.lock().iter() {
        println!(
            "{:<26} {:>14} {:>14.2}",
            label,
            ms,
            *ms as f64 / exchanges as f64
        );
    }
    cluster.shutdown();
}

/// E5 (§3.1): datagram vs stream IPC across machines.
fn e5_ipc() {
    banner("E5: datagram vs stream IPC (virtual time, LAN profile)");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>14} {:>8}",
        "kind", "size", "msgs", "wall_ms", "KB/s(virtual)", "lost"
    );
    for &size in &[16usize, 256, 4096] {
        for kind in ["stream", "datagram"] {
            let cluster = two_machine_cluster(NetConfig::lan(), 13, 8);
            let msgs = 200u32;
            let t0 = cluster.global_time().now_us();
            let w0 = cluster.wire_stats().snapshot();
            let rx = cluster
                .spawn_user("mon", "rx", U, move |p| match kind {
                    "stream" => {
                        let l = p.socket(Domain::Inet, SockType::Stream)?;
                        p.bind(l, BindTo::Port(7100))?;
                        p.listen(l, 1)?;
                        let (conn, _) = p.accept(l)?;
                        let mut got = 0usize;
                        let want = size * msgs as usize;
                        while got < want {
                            let d = p.read(conn, 65536)?;
                            if d.is_empty() {
                                break;
                            }
                            got += d.len();
                        }
                        Ok(())
                    }
                    _ => {
                        let s = p.socket(Domain::Inet, SockType::Datagram)?;
                        p.bind(s, BindTo::Port(7100))?;
                        // Stop when the sender's "done" marker arrives.
                        loop {
                            let (d, _) = p.recvfrom(s, 65536)?;
                            if d.len() == 1 {
                                break;
                            }
                        }
                        Ok(())
                    }
                })
                .expect("rx");
            let tx = cluster
                .spawn_user("work", "tx", U, move |p| match kind {
                    "stream" => {
                        let s = dpm_workloads::util::connect_retry(&p, "mon", 7100, 300)?;
                        let payload = vec![1u8; size];
                        for _ in 0..msgs {
                            p.write(s, &payload)?;
                        }
                        p.close(s)?;
                        Ok(())
                    }
                    _ => {
                        let s = p.socket(Domain::Inet, SockType::Datagram)?;
                        let host = p.cluster().resolve_host("mon")?;
                        let dest = SockName::Inet {
                            host: host.0,
                            port: 7100,
                        };
                        let payload = vec![1u8; size];
                        for _ in 0..msgs {
                            p.sendto(s, &payload, &dest)?;
                        }
                        // A burst of tiny end markers; at least one
                        // will survive the loss model.
                        for _ in 0..50 {
                            p.sendto(s, &[0u8], &dest)?;
                        }
                        Ok(())
                    }
                })
                .expect("tx");
            cluster.machine("work").unwrap().wait_exit(tx);
            cluster.machine("mon").unwrap().wait_exit(rx);
            let wall_us = cluster.global_time().now_us() - t0;
            let lost = cluster.wire_stats().snapshot().since(&w0).datagrams_lost;
            let kb = (size as f64 * msgs as f64) / 1024.0;
            println!(
                "{:<10} {:>8} {:>10} {:>12.1} {:>14.0} {:>8}",
                kind,
                size,
                msgs,
                wall_us as f64 / 1000.0,
                kb / (wall_us as f64 / 1_000_000.0),
                lost
            );
            cluster.shutdown();
        }
    }
}

/// E6 (§3.3): analysis construction cost vs trace size (real time).
fn e6_analysis_scaling() {
    banner("E6: analysis scaling (real time)");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12}",
        "events", "matched", "parse_ms", "pair_ms", "hb_ms"
    );
    for pairs in [500usize, 5_000, 25_000] {
        let log = synthetic_log(pairs);
        let t0 = Instant::now();
        let trace = dpm_analysis::Trace::parse(&log);
        let parse_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t0 = Instant::now();
        let pairing = dpm_analysis::Pairing::analyze(&trace);
        let pair_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t0 = Instant::now();
        let hb = dpm_analysis::HappensBefore::build(&trace, &pairing);
        let hb_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let _ = hb.lamport(0);
        println!(
            "{:<10} {:>10} {:>12.2} {:>12.2} {:>12.2}",
            trace.len(),
            pairing.messages.len(),
            parse_ms,
            pair_ms,
            hb_ms
        );
    }
}

/// E7 (§3.4): trace reduction by selection rules and `#` discards.
fn e7_trace_volume() {
    banner("E7: trace volume under selection and reduction");
    // Capture one raw meter stream from the standard workload.
    let r = run_metered(MeterFlags::ALL, 8, 200, 64);
    let mut wire = Vec::new();
    for m in &r.messages {
        m.encode_into(&mut wire);
    }
    println!(
        "raw meter stream: {} records, {} bytes",
        r.messages.len(),
        wire.len()
    );
    println!("{:<34} {:>8} {:>12}", "template", "kept", "log_bytes");
    for (label, rules) in [
        ("keep everything", ""),
        ("sends only (type=1)", "type=1\n"),
        ("sends, discard pc+procTime", "type=1, pc=#*, procTime=#*\n"),
        ("large sends only (size>=64)", "type=1, size>=64\n"),
    ] {
        let mut engine = FilterEngine::new(
            Descriptions::standard(),
            Rules::parse(rules).expect("parse"),
        );
        let lines = engine.feed(&wire);
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        println!("{:<34} {:>8} {:>12}", label, lines.len(), bytes);
    }
}
