//! Lamport's distributed mutual exclusion, instrumented for the
//! trace checker.
//!
//! The algorithm is the one from *Time, Clocks, and the Ordering of
//! Events* — the very paper the monitor's happens-before analysis
//! implements (§4.1 cites it): every participant broadcasts a
//! timestamped REQUEST, replies to every request it hears, enters the
//! critical section when its own request heads the `(ts, id)`-ordered
//! queue and it holds a later-stamped message from every peer, and
//! broadcasts RELEASE on exit. Clocks tick on request issue and
//! request receipt, which is enough for the standard safety proof and
//! keeps timestamps small.
//!
//! Every protocol message is a *beacon* datagram (see
//! [`dpm_analysis::properties`]): its length encodes the message kind
//! and the request key, so the meter's `msgLength` field carries the
//! protocol step into the trace. Critical-section entry and exit are
//! marker beacons sent to the dead [`MARKER_PORT`] on the sender's own
//! machine. The message text itself carries the protocol fields
//! (clock stamp, per-peer sequence number) padded out to the beacon
//! length — the *receiver* reads the text, the *checker* reads only
//! lengths.
//!
//! Channels are made FIFO (which Lamport assumes) by a per-peer
//! sequence layer: each message carries a sequence number, receivers
//! deliver in order and drop duplicates. There are no retransmits: a
//! datagram lost by the network stays lost, the protocol stalls, and
//! the run ends at a virtual-time deadline — deliberately, so that an
//! injected fault survives into the trace for the checker to
//! localize instead of being papered over.

use dpm_analysis::properties::{
    beacon_len, KIND_CS_ENTER, KIND_CS_EXIT, KIND_HELLO, KIND_RELEASE, KIND_REPLY, KIND_REQ,
    MARKER_PORT, MUTEX_PORT,
};
use dpm_simos::{BindTo, Cluster, Domain, Proc, SockName, SockType, SysError, SysResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Give up this long (virtual ms) after start even if rounds remain —
/// under injected partitions the protocol legitimately stalls, and a
/// graceful exit leaves a partial trace for the checker.
const DEADLINE_MS: u64 = 30_000;
/// Receive-poll step, virtual ms.
const POLL_MS: u64 = 2;
/// Retransmit interval for readiness HELLOs, virtual ms.
const HELLO_MS: u64 = 20;
/// Stop waiting for peer readiness after this long: under a from-boot
/// partition the protocol must still issue requests, so that their
/// loss reaches the trace for the checker to localize.
const BARRIER_GRACE_MS: u64 = 5_000;

/// A parsed protocol message: kind, payload (request key), sender's
/// clock stamp, per-channel sequence number.
struct Msg {
    kind: u32,
    payload: u32,
    stamp: u64,
}

/// Builds the wire bytes: protocol fields as text, padded with `.` to
/// the beacon length that encodes `(kind, payload)`.
fn beacon_bytes(kind: u32, payload: u32, stamp: u64, seq: u64) -> Vec<u8> {
    let len = beacon_len(kind, payload) as usize;
    let mut bytes = format!("{kind} {payload} {stamp} {seq} ").into_bytes();
    assert!(bytes.len() <= len, "beacon header exceeds its length");
    bytes.resize(len, b'.');
    bytes
}

fn parse_beacon(data: &[u8]) -> Option<(Msg, u64)> {
    let text = std::str::from_utf8(data).ok()?;
    let mut it = text.split_whitespace();
    let kind = it.next()?.parse().ok()?;
    let payload = it.next()?.parse().ok()?;
    let stamp = it.next()?.parse().ok()?;
    let seq = it.next()?.parse().ok()?;
    Some((
        Msg {
            kind,
            payload,
            stamp,
        },
        seq,
    ))
}

/// Per-peer FIFO state: outgoing sequence counter, next expected
/// incoming sequence, and a reorder buffer.
#[derive(Default)]
struct Channel {
    seq_out: u64,
    next_in: u64,
    buffer: BTreeMap<u64, Msg>,
}

/// Lamport-mutex node: args
/// `[index, n, rounds, host0 .. host_{n-1}, gap_ms?]`.
///
/// Node `index` runs on `host_index`, binds `MUTEX_PORT + index`, and
/// enters the critical section `rounds` times. The optional trailing
/// `gap_ms` sleeps that long between a node's successive requests —
/// it stretches the run so an injected fault window can land
/// mid-protocol.
///
/// # Errors
///
/// Propagates socket errors; `EINVAL` on bad arguments.
pub fn lamport_mutex_main(p: Proc, args: Vec<String>) -> SysResult<()> {
    let index: u32 = arg(&args, 0).ok_or(SysError::Einval)?;
    let n: u32 = arg(&args, 1).ok_or(SysError::Einval)?;
    let rounds: u32 = arg(&args, 2).unwrap_or(2);
    if n == 0 || n > 16 || index >= n || args.len() < 3 + n as usize {
        return Err(SysError::Einval);
    }
    let hosts: Vec<String> = args[3..3 + n as usize].to_vec();
    let gap_ms: u64 = arg(&args, 3 + n as usize).unwrap_or(0);

    let sock = p.socket(Domain::Inet, SockType::Datagram)?;
    p.bind(sock, BindTo::Port(MUTEX_PORT + index as u16))?;
    let mut peer_addr: BTreeMap<u32, SockName> = BTreeMap::new();
    for (j, host) in hosts.iter().enumerate() {
        let j = j as u32;
        if j != index {
            let hid = p.cluster().resolve_host(host)?;
            peer_addr.insert(
                j,
                SockName::Inet {
                    host: hid.0,
                    port: MUTEX_PORT + j as u16,
                },
            );
        }
    }
    let own_hid = p.cluster().resolve_host(&hosts[index as usize])?;
    let marker = SockName::Inet {
        host: own_hid.0,
        port: MARKER_PORT,
    };

    // Markers need no FIFO layer (they are never received); their
    // "sequence" slot carries the entry count for human readers.
    p.sendto(sock, &beacon_bytes(KIND_HELLO, index, 0, 0), &marker)?;

    let mut clock: u64 = 0;
    let mut queue: BTreeSet<(u64, u32)> = BTreeSet::new();
    let mut max_stamp: BTreeMap<u32, u64> = peer_addr.keys().map(|&j| (j, 0)).collect();
    let mut releases_seen: BTreeMap<u32, u32> = peer_addr.keys().map(|&j| (j, 0)).collect();
    let mut replies_seen: BTreeMap<u32, u32> = peer_addr.keys().map(|&j| (j, 0)).collect();
    let mut chans: BTreeMap<u32, Channel> =
        peer_addr.keys().map(|&j| (j, Channel::default())).collect();
    let mut own_req: Option<u64> = None;
    let mut entered = 0u32;
    let mut ready: BTreeSet<u32> = BTreeSet::new();
    let mut next_hello: u64 = 0;
    let barrier_until = u64::from(p.time_ms()) + BARRIER_GRACE_MS;
    let deadline = u64::from(p.time_ms()) + DEADLINE_MS;

    loop {
        // Readiness barrier: a datagram to a not-yet-bound port
        // silently vanishes (UDP semantics), so requests wait until
        // every peer has been heard from — hearing from j proves j's
        // socket is bound. HELLOs retransmit until then; they are not
        // protocol beacons, so the checker's message bound and fault
        // localization ignore them. The grace deadline keeps a
        // from-boot partition from muting the protocol entirely.
        let now = u64::from(p.time_ms());
        let barrier_done = ready.len() == peer_addr.len() || now >= barrier_until;
        if !barrier_done && now >= next_hello {
            for (&j, addr) in &peer_addr {
                if !ready.contains(&j) {
                    p.sendto(sock, &beacon_bytes(KIND_HELLO, index, 0, 0), addr)?;
                }
            }
            next_hello = now + HELLO_MS;
        }

        // Issue the next request.
        if barrier_done && own_req.is_none() && entered < rounds {
            clock += 1;
            let ts = clock;
            // The beacon payload is ts*16+index; the encoding bounds
            // the timestamp. Clocks only tick on request events, so
            // this is ~n*rounds, far below the bound.
            assert!(ts < 375, "timestamp outgrew the beacon encoding");
            queue.insert((ts, index));
            own_req = Some(ts);
            let key = ts as u32 * 16 + index;
            for (&j, addr) in &peer_addr {
                let ch = chans.get_mut(&j).expect("channel");
                p.sendto(sock, &beacon_bytes(KIND_REQ, key, clock, ch.seq_out), addr)?;
                ch.seq_out += 1;
            }
        }

        // Try to enter: head of the queue, later stamp from everyone.
        if let Some(ts) = own_req {
            let head = queue.iter().next() == Some(&(ts, index));
            if head && max_stamp.values().all(|&s| s > ts) {
                let key = ts as u32 * 16 + index;
                p.sendto(
                    sock,
                    &beacon_bytes(KIND_CS_ENTER, key, clock, u64::from(entered)),
                    &marker,
                )?;
                p.compute_ms(2)?;
                p.sendto(
                    sock,
                    &beacon_bytes(KIND_CS_EXIT, key, clock, u64::from(entered)),
                    &marker,
                )?;
                queue.remove(&(ts, index));
                own_req = None;
                entered += 1;
                for (&j, addr) in &peer_addr {
                    let ch = chans.get_mut(&j).expect("channel");
                    p.sendto(
                        sock,
                        &beacon_bytes(KIND_RELEASE, key, clock, ch.seq_out),
                        addr,
                    )?;
                    ch.seq_out += 1;
                }
                if gap_ms > 0 && entered < rounds {
                    p.sleep_ms(gap_ms)?;
                }
            }
        }

        // Done when our rounds are in, every peer has released its
        // last round (nobody can still need our stamps after that) and
        // every peer's REPLY to each of our requests has arrived: entry
        // needs only *a* later stamp from a peer, so the REPLY to our
        // last request can still be in flight when the rest holds —
        // leaving then would strand it as a lost protocol message.
        let all = |seen: &BTreeMap<u32, u32>| seen.values().all(|&n| n >= rounds);
        if entered >= rounds && all(&releases_seen) && all(&replies_seen) {
            break;
        }
        if u64::from(p.time_ms()) >= deadline {
            break;
        }

        // Receive: sequence-reassemble per peer, then process in FIFO
        // order. Duplicates (seq already delivered) are dropped here —
        // the meter has already recorded the surplus receive, which is
        // exactly how the checker sees the duplication.
        match p.recvfrom_nb(sock, 65_536)? {
            Some((data, src)) => {
                let Some(j) = peer_of(&src) else { continue };
                let Some((msg, seq)) = parse_beacon(&data) else {
                    continue;
                };
                // Any message proves the sender is up; HELLOs carry
                // nothing else and bypass the sequence layer.
                ready.insert(j);
                if msg.kind == KIND_HELLO {
                    continue;
                }
                let Some(ch) = chans.get_mut(&j) else {
                    continue;
                };
                if seq >= ch.next_in {
                    ch.buffer.insert(seq, msg);
                }
                loop {
                    // Deliver in sequence order; stop at the first gap.
                    let msg = {
                        let ch = chans.get_mut(&j).expect("channel");
                        let next = ch.next_in;
                        match ch.buffer.remove(&next) {
                            Some(m) => {
                                ch.next_in += 1;
                                m
                            }
                            None => break,
                        }
                    };
                    max_stamp.entry(j).and_modify(|s| *s = (*s).max(msg.stamp));
                    match msg.kind {
                        KIND_REQ => {
                            let (ts, id) = (u64::from(msg.payload / 16), msg.payload % 16);
                            clock = clock.max(ts) + 1;
                            queue.insert((ts, id));
                            let ch = chans.get_mut(&j).expect("channel");
                            let reply = beacon_bytes(KIND_REPLY, msg.payload, clock, ch.seq_out);
                            ch.seq_out += 1;
                            p.sendto(sock, &reply, &peer_addr[&j])?;
                        }
                        KIND_RELEASE => {
                            let (ts, id) = (u64::from(msg.payload / 16), msg.payload % 16);
                            queue.remove(&(ts, id));
                            releases_seen.entry(j).and_modify(|r| *r += 1);
                        }
                        KIND_REPLY => {
                            replies_seen.entry(j).and_modify(|r| *r += 1);
                        }
                        _ => {}
                    }
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
        format!("node {index} entered {entered}/{rounds}\n").as_bytes(),
    )?;
    Ok(())
}

/// The algorithm id of a datagram source, from its bound port.
fn peer_of(src: &Option<SockName>) -> Option<u32> {
    match src {
        Some(SockName::Inet { port, .. }) if *port >= MUTEX_PORT => {
            Some(u32::from(*port - MUTEX_PORT))
        }
        _ => None,
    }
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> Option<T> {
    args.get(i).and_then(|s| s.parse().ok())
}

/// Registers the program and installs `/bin/lmutex` everywhere.
pub fn register(cluster: &Arc<Cluster>) {
    cluster.register_program("lmutex", lamport_mutex_main);
    for m in cluster.machines() {
        let name = m.name().to_owned();
        cluster.install_program_file(&name, "/bin/lmutex", "lmutex");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_simnet::NetConfig;
    use dpm_simos::Uid;

    #[test]
    fn all_nodes_complete_their_rounds_on_an_ideal_network() {
        let hosts = ["a", "b", "c", "d"];
        let c = {
            let mut b = Cluster::builder().net(NetConfig::ideal()).seed(9);
            for h in hosts {
                b = b.machine(h);
            }
            b.build()
        };
        register(&c);
        let mut pids = Vec::new();
        for (i, h) in hosts.iter().enumerate() {
            let mut args: Vec<String> = vec![i.to_string(), "4".into(), "2".into()];
            args.extend(hosts.iter().map(|s| (*s).to_string()));
            let pid = c
                .spawn_user(h, "lmutex", Uid(1), move |p| lamport_mutex_main(p, args))
                .unwrap();
            pids.push((*h, pid));
        }
        for (h, pid) in pids {
            let m = c.machine(h).unwrap();
            assert_eq!(m.wait_exit(pid), Some(dpm_meter::TermReason::Normal));
            let out = String::from_utf8_lossy(&m.console_output(pid).unwrap()).into_owned();
            assert!(out.contains("entered 2/2"), "node on {h}: {out}");
        }
        c.shutdown();
    }
}
