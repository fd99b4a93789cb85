//! Socket-layer edge cases: backlog, non-blocking variants,
//! descriptor sharing, rebinding, datagram truncation, and domain
//! routing rules.

use dpm_meter::{SockName, TermReason};
use dpm_simnet::NetConfig;
use dpm_simos::{connect_backoff, Backoff, BindTo, Cluster, Domain, SockType, SysError, Uid};
use std::sync::Arc;

const U: Uid = Uid(100);

fn cluster() -> Arc<Cluster> {
    Cluster::builder()
        .net(NetConfig::ideal())
        .seed(3)
        .machine("a")
        .machine("b")
        .build()
}

#[test]
fn backlog_overflow_refuses_excess_connectors() {
    use std::sync::mpsc;
    let c = cluster();
    let a = c.machine("a").unwrap();
    // A listener with backlog 2 that never accepts: it blocks reading
    // its (never-fed) console until killed.
    let (listening, wait_listening) = mpsc::channel();
    let lazy = c
        .spawn_user("b", "lazy", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(3000))?;
            p.listen(s, 2)?;
            listening.send(()).ok();
            let _ = p.read(0, 1)?; // parks forever
            Ok(())
        })
        .unwrap();
    // A connect that beats the `listen` is refused whatever the
    // backlog: start the connectors only once the listener is up.
    wait_listening.recv().unwrap();
    // Three connectors race for the two backlog slots (a parked
    // connect blocks, so each is a child of its own). Whatever the
    // order, two park — never accepted, until killed — and exactly one
    // returns, refused; no timing decides which.
    let (returned, wait_returned) = mpsc::channel();
    let client = c
        .spawn_user("a", "clients", U, move |p| {
            for _ in 0..3 {
                let returned = returned.clone();
                p.fork_with(move |cp| {
                    let s = cp.socket(Domain::Inet, SockType::Stream)?;
                    returned.send(cp.connect_host(s, "b", 3000)).ok();
                    Ok(())
                })?;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(client), Some(TermReason::Normal));
    assert_eq!(
        wait_returned.recv_timeout(std::time::Duration::from_secs(30)),
        Ok(Err(SysError::Econnrefused)),
        "one of three connections exceeds the backlog of two"
    );
    assert!(
        wait_returned.try_recv().is_err(),
        "the other two are parked in the backlog"
    );
    let b = c.machine("b").unwrap();
    b.signal(None, lazy, dpm_simos::Sig::Kill).unwrap();
    b.wait_exit(lazy);
    c.shutdown();
}

#[test]
fn nonblocking_accept_and_read() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "nb", U, |p| {
            let l = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(l, BindTo::Port(3100))?;
            p.listen(l, 2)?;
            assert_eq!(p.accept_nb(l)?, None, "no pending connection yet");
            // Connect to ourselves from a child.
            p.fork_with(|cp| {
                let s = cp.socket(Domain::Inet, SockType::Stream)?;
                cp.connect_host(s, "a", 3100)?;
                cp.write(s, b"ping")?;
                cp.sleep_ms(200)?;
                Ok(())
            })?;
            // Poll until the connection shows up.
            let conn = loop {
                if let Some((conn, _)) = p.accept_nb(l)? {
                    break conn;
                }
                p.sleep_ms(1)?;
                std::thread::sleep(std::time::Duration::from_micros(200));
            };
            // Non-blocking read polls until data lands.
            let data = loop {
                if let Some(d) = p.read_nb(conn, 64)? {
                    break d;
                }
                p.sleep_ms(1)?;
                std::thread::sleep(std::time::Duration::from_micros(200));
            };
            assert_eq!(data, b"ping");
            let _ = p.wait_child()?;
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn dup_shares_the_socket_and_survives_closing_the_original() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "dup", U, |p| {
            let (x, y) = p.socketpair()?;
            let x2 = p.dup(x)?;
            p.close(x)?;
            // The duplicate still reaches the peer.
            p.write(x2, b"via dup")?;
            assert_eq!(p.read(y, 64)?, b"via dup");
            // And the peer still reaches the duplicate.
            p.write(y, b"back")?;
            assert_eq!(p.read(x2, 64)?, b"back");
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn port_is_reusable_after_the_socket_dies() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "rebind", U, |p| {
            let s1 = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(s1, BindTo::Port(3200))?;
            let s2 = p.socket(Domain::Inet, SockType::Datagram)?;
            assert_eq!(p.bind(s2, BindTo::Port(3200)), Err(SysError::Eaddrinuse));
            p.close(s1)?;
            p.bind(s2, BindTo::Port(3200))?; // now free
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn datagram_reads_truncate_to_the_buffer() {
    // "A datagram is read as a complete message. Each new read will
    // obtain bytes from a new message." (§3.1)
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "trunc", U, |p| {
            let rx = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(rx, BindTo::Port(3300))?;
            let tx = p.socket(Domain::Inet, SockType::Datagram)?;
            let me = p.cluster().resolve_host("a")?;
            let dest = SockName::Inet {
                host: me.0,
                port: 3300,
            };
            p.sendto(tx, b"0123456789", &dest)?;
            p.sendto(tx, b"second", &dest)?;
            let (d1, _) = p.recvfrom(rx, 4)?;
            assert_eq!(d1, b"0123", "truncated to the buffer");
            let (d2, _) = p.recvfrom(rx, 64)?;
            assert_eq!(d2, b"second", "the rest of message one is gone");
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn unix_domain_names_do_not_cross_machines() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    // Bind a unix datagram path on machine b; the local sender waits
    // for the bind (a datagram that beats it is lost for good).
    let (bound, wait_bound) = std::sync::mpsc::channel::<()>();
    let server = c
        .spawn_user("b", "unixd", U, move |p| {
            let s = p.socket(Domain::Unix, SockType::Datagram)?;
            p.bind(s, BindTo::Path("/tmp/svc".into()))?;
            bound.send(()).ok();
            // Expect exactly one message — the local one.
            let (d, _) = p.recvfrom(s, 64)?;
            assert_eq!(d, b"local");
            Ok(())
        })
        .unwrap();
    // A sender on machine a using the same path reaches nothing on b.
    let remote = c
        .spawn_user("a", "remote", U, |p| {
            let s = p.socket(Domain::Unix, SockType::Datagram)?;
            // Routed to machine a's own (empty) binding table: dropped.
            p.sendto(s, b"from-a", &SockName::UnixPath("/tmp/svc".into()))?;
            Ok(())
        })
        .unwrap();
    a.wait_exit(remote);
    // The local sender gets through.
    let local = c
        .spawn_user("b", "local", U, move |p| {
            wait_bound.recv().ok();
            let s = p.socket(Domain::Unix, SockType::Datagram)?;
            p.sendto(s, b"local", &SockName::UnixPath("/tmp/svc".into()))?;
            Ok(())
        })
        .unwrap();
    let b = c.machine("b").unwrap();
    assert_eq!(b.wait_exit(local), Some(TermReason::Normal));
    assert_eq!(b.wait_exit(server), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn oversized_datagrams_are_rejected() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "big", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let dest = SockName::Inet { host: 1, port: 9 };
            let big = vec![0u8; 70_000];
            assert_eq!(p.sendto(s, &big, &dest), Err(SysError::Emsgsize));
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn stream_sendto_and_datagram_listen_are_rejected() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "misuse", U, |p| {
            let st = p.socket(Domain::Inet, SockType::Stream)?;
            assert_eq!(
                p.sendto(st, b"x", &SockName::Inet { host: 0, port: 1 }),
                Err(SysError::Eopnotsupp)
            );
            let dg = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(dg, BindTo::Port(3400))?;
            assert_eq!(p.listen(dg, 1), Err(SysError::Eopnotsupp));
            // Listening requires a bound name.
            let unbound = p.socket(Domain::Inet, SockType::Stream)?;
            assert_eq!(p.listen(unbound, 1), Err(SysError::Einval));
            // Reading an unconnected stream is ENOTCONN.
            assert_eq!(p.read(unbound, 4), Err(SysError::Enotconn));
            // Writing it too.
            assert_eq!(p.write(unbound, b"x"), Err(SysError::Enotconn));
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn double_connect_is_eisconn() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let server = c
        .spawn_user("b", "srv", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(3500))?;
            p.listen(s, 2)?;
            let (conn, _) = p.accept(s)?;
            let _ = p.read(conn, 64)?;
            Ok(())
        })
        .unwrap();
    let client = c
        .spawn_user("a", "cli", U, |p| {
            let s = connect_backoff(&p, "b", 3500, Backoff::standard())?;
            assert_eq!(
                p.connect_host(s, "b", 3500),
                Err(SysError::Eisconn),
                "second connect on a connected socket"
            );
            p.write(s, b"x")?;
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(client), Some(TermReason::Normal));
    c.machine("b").unwrap().wait_exit(server);
    c.shutdown();
}

#[test]
fn wire_stats_count_frames_and_bytes() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let before = c.wire_stats().snapshot();
    let server = c
        .spawn_user("b", "srv", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(3600))?;
            p.listen(s, 1)?;
            let (conn, _) = p.accept(s)?;
            let mut got = 0;
            while got < 300 {
                let d = p.read(conn, 512)?;
                if d.is_empty() {
                    break;
                }
                got += d.len();
            }
            Ok(())
        })
        .unwrap();
    let client = c
        .spawn_user("a", "cli", U, |p| {
            // A refused attempt puts no frame on the wire.
            let s = connect_backoff(&p, "b", 3600, Backoff::standard())?;
            for _ in 0..3 {
                p.write(s, &[9u8; 100])?;
            }
            Ok(())
        })
        .unwrap();
    a.wait_exit(client);
    c.machine("b").unwrap().wait_exit(server);
    let after = c.wire_stats().snapshot().since(&before);
    assert_eq!(after.frames, 3, "three stream writes");
    assert_eq!(after.bytes, 300);
    assert_eq!(after.meter_frames, 0, "nothing metered here");
    assert_eq!(after.meter_byte_fraction(), 0.0);
    c.shutdown();
}

#[test]
fn select_multiplexes_datagram_stream_and_listener() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "selector", U, |p| {
            // Three very different descriptors in one read set.
            let dg = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(dg, BindTo::Port(3700))?;
            let listener = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(listener, BindTo::Port(3701))?;
            p.listen(listener, 2)?;
            let (sa, sb) = p.socketpair()?;

            // 1. Datagram readiness.
            let me = p.cluster().resolve_host("a")?;
            let tx = p.socket(Domain::Inet, SockType::Datagram)?;
            p.sendto(
                tx,
                b"dgram",
                &SockName::Inet {
                    host: me.0,
                    port: 3700,
                },
            )?;
            let ready = p.select(&[dg, listener, sa])?;
            assert_eq!(ready, vec![dg]);
            let (d, _) = p.recvfrom(dg, 64)?;
            assert_eq!(d, b"dgram");

            // 2. Stream data readiness.
            p.write(sb, b"stream")?;
            let ready = p.select(&[dg, listener, sa])?;
            assert_eq!(ready, vec![sa]);
            assert_eq!(p.read(sa, 64)?, b"stream");

            // 3. Listener readiness via a connecting child.
            p.fork_with(|cp| {
                let s = cp.socket(Domain::Inet, SockType::Stream)?;
                cp.connect_host(s, "a", 3701)?;
                Ok(())
            })?;
            let ready = p.select(&[dg, listener, sa])?;
            assert_eq!(ready, vec![listener]);
            let (_conn, _) = p.accept(listener)?;
            let _ = p.wait_child()?;

            // 4. EOF counts as readable.
            p.close(sb)?;
            let ready = p.select(&[dg, sa])?;
            assert_eq!(ready, vec![sa]);
            assert_eq!(p.read(sa, 64)?, b"", "EOF");

            // 5. Argument validation.
            assert_eq!(p.select(&[]), Err(SysError::Einval));
            assert_eq!(p.select(&[99]), Err(SysError::Ebadf));
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}

#[test]
fn select_blocks_until_something_arrives_and_kill_unblocks_it() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "selector", U, |p| {
            let dg = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(dg, BindTo::Port(3800))?;
            let _ = p.select(&[dg])?; // nothing ever arrives
            unreachable!("select returned without data");
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    a.signal(None, pid, dpm_simos::Sig::Kill).unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Killed));
    c.shutdown();
}

#[test]
fn shutdown_write_gives_half_close_semantics() {
    let c = cluster();
    let a = c.machine("a").unwrap();
    let pid = c
        .spawn_user("a", "halfclose", U, |p| {
            let (x, y) = p.socketpair()?;
            p.write(x, b"request")?;
            p.shutdown_write(x)?;
            // Our write side is closed…
            assert_eq!(p.write(x, b"more"), Err(SysError::Epipe));
            // …the peer drains the data, then sees end-of-file…
            assert_eq!(p.read(y, 64)?, b"request");
            assert_eq!(p.read(y, 64)?, b"", "EOF after shutdown");
            // …but the peer can still answer on the other direction.
            p.write(y, b"reply")?;
            assert_eq!(p.read(x, 64)?, b"reply");
            // Misuse errors.
            let dg = p.socket(Domain::Inet, SockType::Datagram)?;
            assert_eq!(p.shutdown_write(dg), Err(SysError::Eopnotsupp));
            let idle = p.socket(Domain::Inet, SockType::Stream)?;
            assert_eq!(p.shutdown_write(idle), Err(SysError::Enotconn));
            Ok(())
        })
        .unwrap();
    assert_eq!(a.wait_exit(pid), Some(TermReason::Normal));
    c.shutdown();
}
