//! Synchronous Byzantine agreement with oral messages — OM(1),
//! tolerating one traitor among four generals — instrumented for the
//! trace checker.
//!
//! The commander (general 0) sends its order to every lieutenant in
//! round 1; each lieutenant relays what it received to every other
//! lieutenant in round 2 and then decides the majority of the values
//! it holds (missing values default to 1, the retreat-averse
//! convention). A traitor commander sends different orders to
//! different lieutenants; a traitor lieutenant relays the opposite of
//! what it received. With `n = 4 = 3f + 1` the loyal lieutenants
//! agree regardless, and when the commander is loyal they decide its
//! order — the two interactive-consistency conditions.
//!
//! Rounds are synchronized by virtual-time deadlines (the "reliably
//! detect the absence of a message" assumption of the oral-messages
//! model maps onto a timeout in the simulated cluster). Every message
//! is a length-beacon datagram (see [`dpm_analysis::properties`]):
//! round-1 orders encode `value * 16 + recipient`, round-2 relays
//! encode `value * 16 + relayer`, and each lieutenant's decision goes
//! out as a marker beacon to the dead [`MARKER_PORT`] — so agreement,
//! validity, the message-complexity bound, *and the traitor's
//! identity* are all recoverable from meter records alone.

use dpm_analysis::properties::{
    beacon_len, BYZ_PORT, KIND_BYZ_DECIDE, KIND_BYZ_R1, KIND_BYZ_R2, KIND_HELLO, MARKER_PORT,
};
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockName, SockType, SysError, SysResult};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Round-1 collection deadline, virtual ms after start.
const ROUND1_MS: u64 = 6_000;
/// Round-2 collection deadline, virtual ms after start.
const ROUND2_MS: u64 = 14_000;
/// Receive-poll step, virtual ms.
const POLL_MS: u64 = 2;
/// Retransmit interval for readiness HELLOs, virtual ms.
const HELLO_MS: u64 = 20;
/// Stop waiting for peer readiness after this long.
const BARRIER_GRACE_MS: u64 = 5_000;
/// The oral-messages default when a message is absent ("retreat" in
/// the paper's telling; 1 here so ties and silence are deterministic).
const DEFAULT_VALUE: u32 = 1;

fn beacon_bytes(kind: u32, payload: u32) -> Vec<u8> {
    let len = beacon_len(kind, payload) as usize;
    let mut bytes = format!("{kind} {payload} ").into_bytes();
    assert!(bytes.len() <= len, "beacon header exceeds its length");
    bytes.resize(len, b'.');
    bytes
}

fn parse_beacon(data: &[u8]) -> Option<(u32, u32)> {
    let text = std::str::from_utf8(data).ok()?;
    let mut it = text.split_whitespace();
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

/// Byzantine general: args
/// `[index, n, order, traitor, host0 .. host_{n-1}]` where `order` is
/// the commander's value (0 or 1) and `traitor` is the treacherous
/// general's index (or any value `>= n` for an all-loyal run).
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on bad arguments.
pub(crate) fn byzantine_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let index: u32 = arg(&args, 0).ok_or(SysError::Einval)?;
    let n: u32 = arg(&args, 1).ok_or(SysError::Einval)?;
    let order: u32 = arg::<u32>(&args, 2).ok_or(SysError::Einval)? % 2;
    let traitor: u32 = arg(&args, 3).ok_or(SysError::Einval)?;
    if !(2..=16).contains(&n) || index >= n || args.len() < 4 + n as usize {
        return Err(SysError::Einval);
    }
    let hosts: Vec<String> = args[4..4 + n as usize].to_vec();

    let sock = p.socket(Domain::Inet, SockType::Datagram)?;
    p.bind(sock, BindTo::Port(BYZ_PORT + index as u16))?;
    let addr_of = |p: &Proc, j: u32| -> SysResult<SockName> {
        let hid = p.cluster().resolve_host(&hosts[j as usize])?;
        Ok(SockName::Inet {
            host: hid.0,
            port: BYZ_PORT + j as u16,
        })
    };
    let own_hid = p.cluster().resolve_host(&hosts[index as usize])?;
    let marker = SockName::Inet {
        host: own_hid.0,
        port: MARKER_PORT,
    };
    p.sendto(sock, &beacon_bytes(KIND_HELLO, index), &marker)?;
    let barrier_until = u64::from(p.time_ms()) + BARRIER_GRACE_MS;

    if index == 0 {
        // Readiness barrier: a datagram to a not-yet-bound port
        // silently vanishes, so the commander holds its orders until
        // every lieutenant has been heard from (hearing from j proves
        // j's socket is bound). HELLOs retransmit until then; they are
        // not protocol beacons, so the checker ignores them.
        let mut heard = std::collections::BTreeSet::new();
        let mut next_hello: u64 = 0;
        loop {
            let now = u64::from(p.time_ms());
            if heard.len() as u32 >= n - 1 || now >= barrier_until {
                break;
            }
            if now >= next_hello {
                for j in 1..n {
                    if !heard.contains(&j) {
                        p.sendto(sock, &beacon_bytes(KIND_HELLO, index), &addr_of(&p, j)?)?;
                    }
                }
                next_hello = now + HELLO_MS;
            }
            match p.recvfrom_nb(sock, 65_536)? {
                Some((data, src)) => {
                    if let (Some(j), Some(_)) = (peer_of(&src), parse_beacon(&data)) {
                        heard.insert(j);
                    }
                }
                None => {
                    p.sleep_ms(POLL_MS)?;
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
        // Round 1. A traitor commander is two-faced — alternating
        // orders per lieutenant.
        for j in 1..n {
            let v = if traitor == 0 { (order + j) % 2 } else { order };
            p.sendto(
                sock,
                &beacon_bytes(KIND_BYZ_R1, v * 16 + j),
                &addr_of(&p, j)?,
            )?;
        }
        // Linger until the lieutenants are done relaying, so the job's
        // processes wind down together.
        let start = u64::from(p.time_ms());
        while u64::from(p.time_ms()) < start + ROUND1_MS {
            p.sleep_ms(20)?;
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        p.write(1, format!("commander ordered {order}\n").as_bytes())?;
        return Ok(());
    }

    // Lieutenant: wait until every other general has been heard from
    // (the same readiness barrier, folded into the main loop so an
    // early round-1 order is not lost), then collect the order
    // (round 1), relay it (round 2), collect the other lieutenants'
    // relays, decide by majority. Round deadlines run from the moment
    // the barrier resolves.
    let mut heard: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut next_hello: u64 = 0;
    let mut start: Option<u64> = None;
    let mut got_order: Option<u32> = None;
    let mut relays: BTreeMap<u32, u32> = BTreeMap::new();
    let mut relayed = false;
    let decided: u32;
    loop {
        let now = u64::from(p.time_ms());
        if start.is_none() {
            if heard.len() as u32 >= n - 1 || now >= barrier_until {
                start = Some(now);
            } else if now >= next_hello {
                for j in 0..n {
                    if j != index && !heard.contains(&j) {
                        p.sendto(sock, &beacon_bytes(KIND_HELLO, index), &addr_of(&p, j)?)?;
                    }
                }
                next_hello = now + HELLO_MS;
            }
        }
        if let Some(start) = start {
            if !relayed && (got_order.is_some() || now >= start + ROUND1_MS) {
                let v = got_order.unwrap_or(DEFAULT_VALUE);
                // A traitor lieutenant relays the opposite of what it
                // was told — the same lie to everyone (the checker
                // catches it by comparing relays against the
                // commander's order).
                let relay = if traitor == index { 1 - v } else { v };
                for j in 1..n {
                    if j != index {
                        p.sendto(
                            sock,
                            &beacon_bytes(KIND_BYZ_R2, relay * 16 + index),
                            &addr_of(&p, j)?,
                        )?;
                    }
                }
                relayed = true;
            }
            if relayed && (relays.len() as u32 == n - 2 || now >= start + ROUND2_MS) {
                let mut vals: Vec<u32> = vec![got_order.unwrap_or(DEFAULT_VALUE)];
                for j in 1..n {
                    if j != index {
                        vals.push(relays.get(&j).copied().unwrap_or(DEFAULT_VALUE));
                    }
                }
                let ones = vals.iter().filter(|&&v| v == 1).count();
                let d = u32::from(2 * ones >= vals.len());
                p.sendto(
                    sock,
                    &beacon_bytes(KIND_BYZ_DECIDE, d * 16 + index),
                    &marker,
                )?;
                decided = d;
                break;
            }
        }
        match p.recvfrom_nb(sock, 65_536)? {
            Some((data, src)) => {
                let Some(j) = peer_of(&src) else { continue };
                let Some((kind, payload)) = parse_beacon(&data) else {
                    continue;
                };
                // Any message proves the sender's socket is bound.
                heard.insert(j);
                match kind {
                    // First copy wins; duplicates injected by the
                    // network die here (their surplus receive stays
                    // in the trace for the checker).
                    KIND_BYZ_R1 if j == 0 && got_order.is_none() => {
                        got_order = Some((payload / 16) % 2);
                    }
                    KIND_BYZ_R2 if j != 0 => {
                        relays.entry(payload % 16).or_insert((payload / 16) % 2);
                    }
                    _ => {}
                }
            }
            None => {
                p.sleep_ms(POLL_MS)?;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }
    p.write(
        1,
        format!("lieutenant {index} decides {decided}\n").as_bytes(),
    )?;
    Ok(())
}

/// The general id of a datagram source, from its bound port.
fn peer_of(src: &Option<SockName>) -> Option<u32> {
    match src {
        Some(SockName::Inet { port, .. }) if *port >= BYZ_PORT => Some(u32::from(*port - BYZ_PORT)),
        _ => None,
    }
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

/// Registers the program and installs `/bin/byz` everywhere.
pub(crate) fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("byz", byzantine_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/byz", "byz");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    fn run(order: u32, traitor: u32) -> Vec<String> {
        let hosts = ["a", "b", "c", "d"];
        let c = {
            let mut b = Cluster::builder().net(NetConfig::ideal()).seed(5);
            for h in hosts {
                b = b.machine(h);
            }
            b.build()
        };
        register(&c);
        let mut pids = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let mut args: Vec<String> = vec![
                i.to_string(),
                "4".into(),
                order.to_string(),
                traitor.to_string(),
            ];
            args.extend(hosts.iter().map(|s| (*s).to_string()));
            let pid = c
                .spawn_user(h, "byz", Uid(1), move |p| byzantine_main(p, args))
                .unwrap();
            pids.push((*h, pid));
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
    fn loyal_run_decides_the_commanders_order() {
        let outs = run(0, 99);
        for o in &outs[1..] {
            assert!(o.contains("decides 0"), "{o}");
        }
    }

    #[test]
    fn loyal_lieutenants_agree_despite_a_traitor_lieutenant() {
        let outs = run(1, 2);
        assert!(outs[1].contains("decides 1"), "{}", outs[1]);
        assert!(outs[3].contains("decides 1"), "{}", outs[3]);
    }

    #[test]
    fn loyal_lieutenants_agree_despite_a_traitor_commander() {
        // Two-faced orders for order=1 are 0,1,0 — every lieutenant
        // holds one 1 and two 0s, so all agree on 0.
        let outs = run(1, 0);
        for o in &outs[1..] {
            assert!(o.contains("decides 0"), "{o}");
        }
    }
}
