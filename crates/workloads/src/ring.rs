//! A datagram token ring.
//!
//! Each process binds a port and forwards a token datagram to its
//! successor for a number of laps. Because "the delivery of the
//! messages is not guaranteed" (§3.1), the holder retransmits the
//! token until its successor acknowledges; duplicates are suppressed
//! by the token's strictly decreasing hop count. A trace of this
//! workload exhibits exactly the lost-send records the analysis
//! crate's unmatched-send detector is for.

use crate::util::read_timeout;
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockName, SockType, SysError, SysResult};
use std::sync::Arc;

/// Base port; node `i` listens on `RING_PORT + i`.
pub(crate) const RING_PORT: u16 = 1900;

/// Retransmission timeout, virtual milliseconds.
const RETRANS_MS: u64 = 30;
/// How long a finished node lingers to re-acknowledge duplicates.
const LINGER_MS: u64 = 120;
/// Retransmissions of a *final* token (its holder has all its laps)
/// before concluding the successor acked, lingered out, and exited.
/// A successor cannot exit without having seen every token, so the
/// token is undelivered only if every one of these copies dropped.
const FINAL_RETRANS: u32 = 64;
/// Hard virtual-time deadline: a fault schedule that defeats the
/// protocol must surface as a visible failure, never a hung test.
const DEADLINE_MS: u64 = 60_000;

/// Ring node: args `[index, n_nodes, next_host, laps, starter]`.
///
/// The token carries the remaining hop count; each node decrements and
/// forwards it until the count reaches zero. The starter injects a
/// token worth `laps * n` hops.
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on bad arguments.
pub fn ring_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let index: u16 = arg(&args, 0).ok_or(SysError::Einval)?;
    let n: u16 = arg(&args, 1).ok_or(SysError::Einval)?;
    let next_host: String = args.get(2).cloned().ok_or(SysError::Einval)?;
    let laps: u32 = arg(&args, 3).unwrap_or(3);
    let starter = args.get(4).map(String::as_str) == Some("start");
    if n == 0 {
        return Err(SysError::Einval);
    }

    let sock = p.socket(Domain::Inet, SockType::Datagram)?;
    p.bind(sock, BindTo::Port(RING_PORT + index))?;
    let next_port = RING_PORT + (index + 1) % n;
    let next_hid = p.cluster().resolve_host(&next_host)?;
    let next = SockName::Inet {
        host: next_hid.0,
        port: next_port,
    };

    let total_hops = laps * n as u32;
    let deadline = u64::from(p.time_ms()) + DEADLINE_MS;
    let mut tokens_seen = 0u32;
    // Hop counts strictly decrease around the ring, so anything not
    // smaller than the last accepted token is a duplicate.
    let mut last_accepted = u32::MAX;
    let mut outgoing: Option<u32> = if starter { Some(total_hops) } else { None };

    'outer: loop {
        // Reliable forward of anything we owe our successor.
        if let Some(hops) = outgoing.take() {
            let mut attempts = 0u32;
            loop {
                p.sendto(sock, format!("token {hops}").as_bytes(), &next)?;
                attempts += 1;
                match read_timeout(&p, sock, 64, RETRANS_MS)? {
                    Some(data) if data == b"ack" => break,
                    Some(data) => {
                        // An interleaved (necessarily duplicate) token;
                        // ignore it — its sender will retransmit and we
                        // will acknowledge from the main loop.
                        let _ = data;
                    }
                    None => {} // timed out: retransmit
                }
                // On a final token the acks themselves may all have
                // been lost and the successor, done and lingered out,
                // gone: count enough unanswered copies as delivered
                // instead of retransmitting at a dead port forever.
                if tokens_seen >= laps && attempts >= FINAL_RETRANS {
                    break;
                }
                if u64::from(p.time_ms()) > deadline {
                    break 'outer;
                }
            }
            if tokens_seen >= laps {
                break 'outer;
            }
            continue;
        }

        // Wait for a token (the holder retransmits), but never past
        // the deadline — a blocking receive here is where a defeated
        // protocol would otherwise hang the run.
        let (data, src) = loop {
            match p.recvfrom_nb(sock, 64)? {
                Some(got) => break got,
                None => {
                    if u64::from(p.time_ms()) > deadline {
                        break 'outer;
                    }
                    p.sleep_ms(RETRANS_MS)?;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        };
        let Some(hops) = parse_token(&data) else {
            continue;
        };
        if let Some(src) = &src {
            p.sendto(sock, b"ack", src)?;
        }
        if hops >= last_accepted {
            continue; // duplicate
        }
        last_accepted = hops;
        tokens_seen += 1;
        p.compute_ms(1)?;
        if hops > 1 {
            outgoing = Some(hops - 1);
        } else if tokens_seen >= laps {
            break;
        }
    }

    // Linger: our final ack may have been lost; keep re-acknowledging
    // duplicate tokens until the ring has been quiet for a while.
    let mut quiet = 0u64;
    while quiet < LINGER_MS {
        match p.recvfrom_nb(sock, 64)? {
            Some((data, src)) => {
                quiet = 0;
                if parse_token(&data).is_some() {
                    if let Some(src) = src {
                        p.sendto(sock, b"ack", &src)?;
                    }
                }
            }
            None => {
                p.sleep_ms(5)?;
                quiet += 5;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }

    p.write(
        1,
        format!("node {index} saw {tokens_seen} tokens\n").as_bytes(),
    )?;
    Ok(())
}

fn parse_token(data: &[u8]) -> Option<u32> {
    let text = std::str::from_utf8(data).ok()?;
    text.strip_prefix("token ")?.trim().parse().ok()
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

/// Registers the ring program and installs `/bin/ring` everywhere.
pub fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("ring", ring_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/ring", "ring");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    fn run_ring(net: NetConfig, laps: u32) -> Vec<String> {
        let c = Cluster::builder()
            .net(net)
            .seed(4)
            .machine("a")
            .machine("b")
            .machine("c")
            .build();
        register(&c);
        let hosts = ["a", "b", "c"];
        let mut pids = Vec::new();
        for i in 0..3u16 {
            let next = hosts[(i as usize + 1) % 3];
            let args: Vec<String> = vec![
                i.to_string(),
                "3".into(),
                next.into(),
                laps.to_string(),
                if i == 0 { "start".into() } else { "no".into() },
            ];
            let pid = c
                .spawn_user(hosts[i as usize], "ring", Uid(1), move |p| {
                    ring_main(p, args)
                })
                .unwrap();
            pids.push((hosts[i as usize], pid));
        }
        let mut outs = Vec::new();
        for (h, pid) in pids {
            let m = c.machine(h).unwrap();
            assert_eq!(m.wait_exit(pid), Some(dpm_meter::TermReason::Normal));
            outs.push(String::from_utf8_lossy(&m.console_output(pid).unwrap()).into_owned());
        }
        c.shutdown();
        outs
    }

    #[test]
    fn token_circulates_on_an_ideal_network() {
        let outs = run_ring(NetConfig::ideal(), 2);
        assert_eq!(outs[0].trim(), "node 0 saw 2 tokens");
        assert_eq!(outs[1].trim(), "node 1 saw 2 tokens");
        assert_eq!(outs[2].trim(), "node 2 saw 2 tokens");
    }

    #[test]
    fn token_survives_a_lossy_network_via_retransmission() {
        let outs = run_ring(NetConfig::lossy(), 2);
        for o in outs {
            assert!(o.contains("saw 2 tokens"), "every node finished: {o}");
        }
    }
}
