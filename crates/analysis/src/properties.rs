//! Algorithm properties proven from the trace alone.
//!
//! The monitor's strongest claim is that the traces it collects are
//! enough to *study* a distributed program — not just to count its
//! messages but to check what the program is supposed to guarantee.
//! This module encodes two classic algorithms' correctness conditions
//! as checks over a [`Trace`]: Lamport's distributed mutual exclusion
//! (safety, total request order, message complexity) and synchronous
//! Byzantine agreement with oral messages (agreement, validity,
//! traitor identification, message complexity). Nothing here inspects
//! workload state; every verdict is computed from meter records —
//! send/receive lengths and socket names — via [`Pairing`] and
//! [`HappensBefore`].
//!
//! # The beacon convention
//!
//! The meter records a datagram's *length* and *addresses*, never its
//! payload (§3.2 meters calls, not data). So a workload that wants its
//! protocol steps to be visible in the trace encodes them in the one
//! payload-correlated field the meter keeps: the length. A datagram of
//! length `L` carries beacon kind `L / BEACON_SPAN` and payload
//! `L % BEACON_SPAN`; kinds 1–9 are defined below, anything else is
//! ordinary traffic the checkers ignore. Protocol events that have no
//! natural recipient (entering a critical section, deciding a value)
//! are *marker* datagrams sent to [`MARKER_PORT`] on the sender's own
//! machine — a port nothing binds, so the datagram vanishes exactly
//! like UDP to a dead port and only the metered send event remains.
//!
//! The convention is sound for order deduction because every payload
//! concurrently in flight on one (sender, destination) channel has a
//! distinct length — see the length-aware datagram matching of
//! [`Pairing`].

use crate::hb::HappensBefore;
use crate::pairing::Pairing;
use crate::trace::{EventKind, ProcKey, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Lengths `kind * BEACON_SPAN + payload` encode `(kind, payload)`;
/// the span keeps the largest beacon (`9 * 6000 + 5999`) under the
/// 64 KiB datagram limit.
pub(crate) const BEACON_SPAN: u32 = 6000;

/// Mutex: broadcast request for the critical section. Payload is the
/// request key `ts * 16 + id`.
pub const KIND_REQ: u32 = 1;
/// Mutex: reply to a request. Payload echoes the request key.
pub const KIND_REPLY: u32 = 2;
/// Mutex: broadcast release. Payload echoes the request key.
pub const KIND_RELEASE: u32 = 3;
/// Mutex marker: the sender entered its critical section. Payload is
/// the request key it entered under.
pub const KIND_CS_ENTER: u32 = 4;
/// Mutex marker: the sender left its critical section.
pub const KIND_CS_EXIT: u32 = 5;
/// Byzantine: commander's round-1 order. Payload is
/// `value * 16 + lieutenant_id` (the recipient).
pub const KIND_BYZ_R1: u32 = 6;
/// Byzantine: lieutenant's round-2 relay. Payload is
/// `value * 16 + relayer_id` (the sender).
pub const KIND_BYZ_R2: u32 = 7;
/// Byzantine marker: a lieutenant decided. Payload is
/// `value * 16 + id`.
pub const KIND_BYZ_DECIDE: u32 = 8;
/// Marker: a participant came up. Payload is its algorithm id —
/// guarantees every process has an id-bearing event even when faults
/// stall the protocol proper.
pub const KIND_HELLO: u32 = 9;

/// Mutex participant `i` binds `MUTEX_PORT + i`.
pub const MUTEX_PORT: u16 = 2100;
/// Byzantine general `i` binds `BYZ_PORT + i`.
pub const BYZ_PORT: u16 = 2200;
/// Marker datagrams go here on the sender's own machine; nothing
/// binds it, so only the send event exists.
pub const MARKER_PORT: u16 = 2300;

/// The wire length of a beacon datagram.
///
/// # Panics
///
/// If `payload >= BEACON_SPAN` or the kind is out of range — beacon
/// construction is a protocol bug, not an input condition.
pub fn beacon_len(kind: u32, payload: u32) -> u32 {
    assert!((KIND_REQ..=KIND_HELLO).contains(&kind), "bad kind {kind}");
    assert!(payload < BEACON_SPAN, "payload {payload} out of range");
    kind * BEACON_SPAN + payload
}

/// Decodes a datagram length back into `(kind, payload)`; `None` for
/// ordinary (non-beacon) traffic.
pub(crate) fn decode_beacon(len: u32) -> Option<(u32, u32)> {
    let kind = len / BEACON_SPAN;
    (KIND_REQ..=KIND_HELLO)
        .contains(&kind)
        .then_some((kind, len % BEACON_SPAN))
}

/// The `(host, port)` of an `inet:<host>:<port>` display name.
fn host_port(name: &str) -> Option<(u32, u16)> {
    let mut it = name.strip_prefix("inet:")?.split(':');
    let host = it.next()?.parse().ok()?;
    let port = it.next()?.parse().ok()?;
    Some((host, port))
}

/// One beacon send observed in the trace.
#[derive(Debug, Clone)]
struct Beacon {
    idx: usize,
    proc: ProcKey,
    kind: u32,
    payload: u32,
}

fn beacons(trace: &Trace) -> Vec<Beacon> {
    let mut out = Vec::new();
    for e in &trace.events {
        let EventKind::Send {
            len,
            dest: Some(name),
        } = &e.kind
        else {
            continue;
        };
        let (Some((kind, payload)), Some(_)) = (decode_beacon(*len), host_port(name)) else {
            continue;
        };
        out.push(Beacon {
            idx: e.idx,
            proc: e.proc,
            kind,
            payload,
        });
    }
    out
}

/// Whether a beacon kind is a protocol message (addressed to a peer)
/// rather than a marker (addressed to the dead port).
fn is_protocol(kind: u32) -> bool {
    matches!(
        kind,
        KIND_REQ | KIND_REPLY | KIND_RELEASE | KIND_BYZ_R1 | KIND_BYZ_R2
    )
}

// ---------------------------------------------------------------------
// Link-fault localization
// ---------------------------------------------------------------------

/// Faults the trace localizes to machine-to-machine links: protocol
/// beacons that were sent but never received (lost — a dead or
/// partitioned link), and beacon receives with no matching send
/// (duplicated deliveries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// `(source machine, destination machine, count)` of lost protocol
    /// beacons, ascending.
    pub lost: Vec<(u32, u32, usize)>,
    /// `(source machine, destination machine, count)` of surplus
    /// (duplicated) protocol-beacon deliveries, ascending.
    pub duplicated: Vec<(u32, u32, usize)>,
}

impl LinkFaults {
    /// Collects link faults from the pairing's unmatched sends and
    /// receives, counting only protocol beacons (markers are sent to
    /// the dead port and are *supposed* to go unreceived).
    pub(crate) fn localize(trace: &Trace, pairing: &Pairing) -> LinkFaults {
        let mut lost: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for &i in &pairing.unmatched_sends {
            let EventKind::Send {
                len,
                dest: Some(name),
            } = &trace.events[i].kind
            else {
                continue;
            };
            let (Some((kind, _)), Some((host, _))) = (decode_beacon(*len), host_port(name)) else {
                continue;
            };
            if is_protocol(kind) {
                *lost
                    .entry((trace.events[i].proc.machine, host))
                    .or_default() += 1;
            }
        }
        let mut duplicated: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for &i in &pairing.unmatched_recvs {
            let EventKind::Recv {
                len,
                source: Some(name),
            } = &trace.events[i].kind
            else {
                continue;
            };
            let (Some((kind, _)), Some((host, _))) = (decode_beacon(*len), host_port(name)) else {
                continue;
            };
            if is_protocol(kind) {
                *duplicated
                    .entry((host, trace.events[i].proc.machine))
                    .or_default() += 1;
            }
        }
        LinkFaults {
            lost: lost.into_iter().map(|((a, b), n)| (a, b, n)).collect(),
            duplicated: duplicated
                .into_iter()
                .map(|((a, b), n)| (a, b, n))
                .collect(),
        }
    }

    /// No faults localized.
    pub fn is_clean(&self) -> bool {
        self.lost.is_empty() && self.duplicated.is_empty()
    }

    /// The machine pairs (unordered) any fault touches.
    pub fn links(&self) -> BTreeSet<(u32, u32)> {
        self.lost
            .iter()
            .chain(&self.duplicated)
            .map(|&(a, b, _)| if a <= b { (a, b) } else { (b, a) })
            .collect()
    }
}

impl fmt::Display for LinkFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "link faults: none");
        }
        for (a, b, n) in &self.lost {
            writeln!(f, "link m{a}->m{b}: {n} protocol message(s) lost")?;
        }
        for (a, b, n) in &self.duplicated {
            writeln!(f, "link m{a}->m{b}: {n} duplicated delivery(ies)")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Lamport mutual exclusion
// ---------------------------------------------------------------------

/// One observed critical-section interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsInterval {
    /// The process that entered.
    pub proc: ProcKey,
    /// Its algorithm id (`key % 16`).
    pub id: u32,
    /// The request key `ts * 16 + id` — numeric order on keys is
    /// exactly Lamport's `(ts, id)` order.
    pub key: u32,
    /// Trace index of the CS-enter marker send.
    pub enter_idx: usize,
    /// Trace index of the CS-exit marker send, when observed.
    pub exit_idx: Option<usize>,
}

/// Verdict of the mutual-exclusion checker — every field computed
/// from the trace.
#[derive(Debug, Clone)]
pub struct MutexReport {
    /// Number of participants inferred from distinct ids observed.
    pub n: usize,
    /// Critical-section intervals in trace order.
    pub intervals: Vec<CsInterval>,
    /// Distinct request keys observed in REQ beacons.
    pub requests: usize,
    /// Pairs of interval indices the happens-before relation fails to
    /// order — mutual-exclusion violations.
    pub violations: Vec<(usize, usize)>,
    /// Interval keys in deduced entry order.
    pub entry_order: Vec<u32>,
    /// Whether entry order equals ascending key (= Lamport `(ts, id)`)
    /// order.
    pub order_ok: bool,
    /// Count of protocol sends (REQ + REPLY + RELEASE).
    pub protocol_sends: usize,
    /// Theoretical complexity: `3 (n-1)` per observed request.
    pub bound: usize,
    /// The happens-before graph contained a cycle (order evidence is
    /// then incomplete, and the verdicts untrustworthy).
    pub has_cycle: bool,
    /// Faults localized to links.
    pub faults: LinkFaults,
}

impl MutexReport {
    /// Mutual exclusion held over every observed interval pair.
    pub fn mutual_exclusion_ok(&self) -> bool {
        self.violations.is_empty() && !self.has_cycle
    }

    /// Message complexity within the theoretical bound.
    pub fn within_bound(&self) -> bool {
        self.protocol_sends <= self.bound
    }

    /// Checks Lamport-mutex properties over a trace.
    pub fn check(trace: &Trace) -> MutexReport {
        let pairing = Pairing::analyze(trace);
        let hb = HappensBefore::build(trace, &pairing);
        let bs = beacons(trace);

        // Participants: every id seen in a HELLO or REQ beacon.
        let mut ids: BTreeSet<u32> = BTreeSet::new();
        for b in &bs {
            match b.kind {
                KIND_HELLO => {
                    ids.insert(b.payload % 16);
                }
                KIND_REQ => {
                    ids.insert(b.payload % 16);
                }
                _ => {}
            }
        }
        let n = ids.len();

        // Intervals: pair each process's ENTER with its next EXIT of
        // the same key, in program (= per-process trace) order.
        let mut intervals: Vec<CsInterval> = Vec::new();
        for b in &bs {
            match b.kind {
                KIND_CS_ENTER => intervals.push(CsInterval {
                    proc: b.proc,
                    id: b.payload % 16,
                    key: b.payload,
                    enter_idx: b.idx,
                    exit_idx: None,
                }),
                KIND_CS_EXIT => {
                    if let Some(iv) = intervals.iter_mut().find(|iv| {
                        iv.proc == b.proc && iv.key == b.payload && iv.exit_idx.is_none()
                    }) {
                        iv.exit_idx = Some(b.idx);
                    }
                }
                _ => {}
            }
        }

        // Safety: every pair of intervals on different processes must
        // be ordered — one's exit happens-before the other's enter.
        // The ordering evidence is indirect: EXIT precedes the RELEASE
        // broadcast in program order, the RELEASE's receipt precedes
        // the next entrant's ENTER, and `hb` chains them.
        let exit_precedes = |a: &CsInterval, b: &CsInterval| match a.exit_idx {
            Some(x) => hb.precedes(x, b.enter_idx),
            None => false,
        };
        let mut violations = Vec::new();
        for i in 0..intervals.len() {
            for j in (i + 1)..intervals.len() {
                let (a, b) = (&intervals[i], &intervals[j]);
                if a.proc != b.proc && !exit_precedes(a, b) && !exit_precedes(b, a) {
                    violations.push((i, j));
                }
            }
        }

        // Liveness-order: sort intervals by the deduced entry order
        // (count of intervals that precede each one — a total order
        // whenever mutual exclusion holds) and compare with key order.
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_by_key(|&i| {
            let before = intervals
                .iter()
                .filter(|o| exit_precedes(o, &intervals[i]))
                .count();
            (before, intervals[i].enter_idx)
        });
        let entry_order: Vec<u32> = order.iter().map(|&i| intervals[i].key).collect();
        let order_ok = entry_order.windows(2).all(|w| w[0] < w[1]);

        let requests = bs
            .iter()
            .filter(|b| b.kind == KIND_REQ)
            .map(|b| b.payload)
            .collect::<BTreeSet<_>>()
            .len();
        let protocol_sends = bs
            .iter()
            .filter(|b| matches!(b.kind, KIND_REQ | KIND_REPLY | KIND_RELEASE))
            .count();
        let bound = 3 * n.saturating_sub(1) * requests;

        MutexReport {
            n,
            requests,
            violations,
            entry_order,
            order_ok,
            protocol_sends,
            bound,
            has_cycle: hb.has_cycle(),
            faults: LinkFaults::localize(trace, &pairing),
            intervals,
        }
    }
}

impl fmt::Display for MutexReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lamport mutex: {} participants, {} requests, {} CS entries",
            self.n,
            self.requests,
            self.intervals.len()
        )?;
        writeln!(
            f,
            "mutual exclusion: {}",
            if self.mutual_exclusion_ok() {
                "OK".to_owned()
            } else {
                format!("VIOLATED ({} unordered pairs)", self.violations.len())
            }
        )?;
        writeln!(
            f,
            "total request order: {}",
            if self.order_ok { "OK" } else { "VIOLATED" }
        )?;
        writeln!(
            f,
            "messages: {} of bound {} ({})",
            self.protocol_sends,
            self.bound,
            if self.within_bound() {
                "within bound"
            } else {
                "EXCEEDED"
            }
        )?;
        if self.has_cycle {
            writeln!(
                f,
                "WARNING: happens-before cycle; order evidence incomplete"
            )?;
        }
        write!(f, "{}", self.faults)
    }
}

// ---------------------------------------------------------------------
// Byzantine agreement (oral messages, one round of relays)
// ---------------------------------------------------------------------

/// Verdict of the Byzantine-agreement checker — every field computed
/// from the trace.
#[derive(Debug, Clone)]
pub struct ByzReport {
    /// Number of generals (commander + lieutenants) inferred from
    /// HELLO beacons.
    pub n: usize,
    /// Values the commander sent in round 1, per lieutenant id.
    pub orders: BTreeMap<u32, u32>,
    /// Values each lieutenant relayed in round 2, per relayer id (the
    /// set of distinct values it told different peers).
    pub relays: BTreeMap<u32, BTreeSet<u32>>,
    /// Decisions observed in DECIDE markers, per lieutenant id.
    pub decisions: BTreeMap<u32, u32>,
    /// Ids whose *behavior in the trace* is disloyal: a commander that
    /// sent different round-1 values, or a lieutenant whose relays
    /// disagree with each other or with the order it received.
    pub suspected: Vec<u32>,
    /// Round-1 message count (bound: `n - 1`).
    pub r1_sends: usize,
    /// Round-2 message count (bound: `(n - 1)(n - 2)`).
    pub r2_sends: usize,
    /// The happens-before graph contained a cycle.
    pub has_cycle: bool,
    /// Faults localized to links.
    pub faults: LinkFaults,
}

impl ByzReport {
    /// Checks oral-messages agreement properties over a trace.
    pub fn check(trace: &Trace) -> ByzReport {
        let pairing = Pairing::analyze(trace);
        let hb = HappensBefore::build(trace, &pairing);
        let bs = beacons(trace);

        let mut ids: BTreeSet<u32> = BTreeSet::new();
        let mut orders = BTreeMap::new();
        let mut relays: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        let mut decisions = BTreeMap::new();
        let (mut r1_sends, mut r2_sends) = (0usize, 0usize);
        for b in &bs {
            match b.kind {
                KIND_HELLO => {
                    ids.insert(b.payload % 16);
                }
                KIND_BYZ_R1 => {
                    r1_sends += 1;
                    orders.insert(b.payload % 16, b.payload / 16);
                }
                KIND_BYZ_R2 => {
                    r2_sends += 1;
                    relays
                        .entry(b.payload % 16)
                        .or_default()
                        .insert(b.payload / 16);
                }
                KIND_BYZ_DECIDE => {
                    decisions.insert(b.payload % 16, b.payload / 16);
                }
                _ => {}
            }
        }
        let n = ids.len();

        // Behavioral loyalty, judged from the trace: the commander is
        // two-faced iff its round-1 orders differ; a lieutenant is
        // two-faced iff it relayed inconsistent values, or a value
        // different from the order the commander demonstrably sent it.
        let commander_values: BTreeSet<u32> = orders.values().copied().collect();
        let mut suspected = Vec::new();
        if commander_values.len() > 1 {
            suspected.push(0);
        }
        for (&id, vals) in &relays {
            let lied_sideways = vals.len() > 1;
            let lied_about_order = commander_values.len() == 1
                && orders.get(&id).is_some_and(|o| vals.iter().any(|v| v != o));
            if lied_sideways || lied_about_order {
                suspected.push(id);
            }
        }
        suspected.sort_unstable();
        suspected.dedup();

        ByzReport {
            n,
            orders,
            relays,
            decisions,
            suspected,
            r1_sends,
            r2_sends,
            has_cycle: hb.has_cycle(),
            faults: LinkFaults::localize(trace, &pairing),
        }
    }

    /// Lieutenant ids not suspected of treachery (the commander, id 0,
    /// does not decide and is excluded).
    pub(crate) fn loyal_lieutenants(&self) -> Vec<u32> {
        self.decisions
            .keys()
            .copied()
            .filter(|id| !self.suspected.contains(id))
            .collect()
    }

    /// IC1 — agreement: every behaviorally-loyal lieutenant decided,
    /// and they all decided the same value.
    pub fn agreement_ok(&self) -> bool {
        let vals: BTreeSet<u32> = self
            .loyal_lieutenants()
            .iter()
            .filter_map(|id| self.decisions.get(id).copied())
            .collect();
        vals.len() == 1 && !self.has_cycle
    }

    /// IC2 — validity: when the commander behaved loyally (sent one
    /// value), the loyal lieutenants decided that value. Vacuously
    /// true for a treacherous commander.
    pub fn validity_ok(&self) -> bool {
        let commander_values: BTreeSet<u32> = self.orders.values().copied().collect();
        if self.suspected.contains(&0) || commander_values.len() != 1 {
            return true;
        }
        let v = *commander_values.iter().next().expect("one value");
        self.loyal_lieutenants()
            .iter()
            .all(|id| self.decisions.get(id) == Some(&v))
    }

    /// Message complexity within the oral-messages bound.
    pub fn within_bound(&self) -> bool {
        self.r1_sends <= self.n.saturating_sub(1)
            && self.r2_sends <= self.n.saturating_sub(1) * self.n.saturating_sub(2)
    }
}

impl fmt::Display for ByzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "byzantine agreement: {} generals, {} decisions",
            self.n,
            self.decisions.len()
        )?;
        writeln!(
            f,
            "agreement: {}   validity: {}",
            if self.agreement_ok() {
                "OK"
            } else {
                "VIOLATED"
            },
            if self.validity_ok() { "OK" } else { "VIOLATED" },
        )?;
        match self.suspected.as_slice() {
            [] => writeln!(f, "traitors: none detected")?,
            ids => {
                let names: Vec<String> = ids
                    .iter()
                    .map(|&i| {
                        if i == 0 {
                            "commander".to_owned()
                        } else {
                            format!("lieutenant {i}")
                        }
                    })
                    .collect();
                writeln!(f, "traitors detected from trace: {}", names.join(", "))?;
            }
        }
        writeln!(
            f,
            "messages: round1 {}/{}  round2 {}/{} ({})",
            self.r1_sends,
            self.n.saturating_sub(1),
            self.r2_sends,
            self.n.saturating_sub(1) * self.n.saturating_sub(2),
            if self.within_bound() {
                "within bound"
            } else {
                "EXCEEDED"
            }
        )?;
        if self.has_cycle {
            writeln!(
                f,
                "WARNING: happens-before cycle; order evidence incomplete"
            )?;
        }
        write!(f, "{}", self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(machine: u32, pid: u32, cpu: u32, len: u32, dest: &str) -> String {
        format!(
            "event=send machine={machine} cpuTime={cpu} procTime=0 traceType=1 pid={pid} pc=1 sock=3 msgLength={len} destName={dest}\n"
        )
    }

    fn recv(machine: u32, pid: u32, cpu: u32, len: u32, source: &str) -> String {
        format!(
            "event=receive machine={machine} cpuTime={cpu} procTime=0 traceType=3 pid={pid} pc=1 sock=3 msgLength={len} sourceName={source}\n"
        )
    }

    #[test]
    fn beacon_roundtrip() {
        for kind in KIND_REQ..=KIND_HELLO {
            for payload in [0, 1, 17, BEACON_SPAN - 1] {
                assert_eq!(
                    decode_beacon(beacon_len(kind, payload)),
                    Some((kind, payload))
                );
            }
        }
        assert_eq!(decode_beacon(100), None, "plain traffic is not a beacon");
        assert_eq!(decode_beacon(10 * BEACON_SPAN), None, "kind out of range");
    }

    /// A hand-written two-node mutex trace: node 0 (m0) and node 1
    /// (m1) each enter once, in key order, with the release chain
    /// giving the cross-machine ordering evidence.
    fn two_node_mutex_trace() -> Trace {
        let k0 = 16; // ts=1, id=0
        let k1 = 33; // ts=2, id=1
        let p0 = format!("inet:0:{}", MUTEX_PORT);
        let p1 = format!("inet:1:{}", MUTEX_PORT + 1);
        let marker0 = format!("inet:0:{MARKER_PORT}");
        let marker1 = format!("inet:1:{MARKER_PORT}");
        let mut log = String::new();
        // Hellos.
        log += &send(0, 10, 1, beacon_len(KIND_HELLO, 0), &marker0);
        log += &send(1, 20, 1, beacon_len(KIND_HELLO, 1), &marker1);
        // Requests cross; both reply.
        log += &send(0, 10, 2, beacon_len(KIND_REQ, k0), &p1);
        log += &send(1, 20, 2, beacon_len(KIND_REQ, k1), &p0);
        log += &recv(1, 20, 3, beacon_len(KIND_REQ, k0), &p0);
        log += &recv(0, 10, 3, beacon_len(KIND_REQ, k1), &p1);
        log += &send(1, 20, 4, beacon_len(KIND_REPLY, k0), &p0);
        log += &send(0, 10, 4, beacon_len(KIND_REPLY, k1), &p1);
        log += &recv(0, 10, 5, beacon_len(KIND_REPLY, k0), &p1);
        log += &recv(1, 20, 5, beacon_len(KIND_REPLY, k1), &p0);
        // Node 0 wins (smaller key): enter, exit, release.
        log += &send(0, 10, 6, beacon_len(KIND_CS_ENTER, k0), &marker0);
        log += &send(0, 10, 7, beacon_len(KIND_CS_EXIT, k0), &marker0);
        log += &send(0, 10, 8, beacon_len(KIND_RELEASE, k0), &p1);
        log += &recv(1, 20, 6, beacon_len(KIND_RELEASE, k0), &p0);
        // Node 1 enters after the release.
        log += &send(1, 20, 7, beacon_len(KIND_CS_ENTER, k1), &marker1);
        log += &send(1, 20, 8, beacon_len(KIND_CS_EXIT, k1), &marker1);
        log += &send(1, 20, 9, beacon_len(KIND_RELEASE, k1), &p0);
        log += &recv(0, 10, 9, beacon_len(KIND_RELEASE, k1), &p1);
        Trace::parse(&log)
    }

    #[test]
    fn mutex_checker_passes_a_clean_trace() {
        let r = MutexReport::check(&two_node_mutex_trace());
        assert_eq!(r.n, 2);
        assert_eq!(r.requests, 2);
        assert_eq!(r.intervals.len(), 2);
        assert!(r.mutual_exclusion_ok(), "{r}");
        assert!(r.order_ok, "{r}");
        assert_eq!(r.entry_order, vec![16, 33]);
        assert_eq!(r.protocol_sends, 6);
        assert_eq!(r.bound, 6);
        assert!(r.within_bound());
        assert!(r.faults.is_clean());
    }

    #[test]
    fn mutex_checker_catches_overlapping_sections() {
        // Drop the release chain: node 1 enters with no ordering
        // evidence against node 0's interval.
        let t = two_node_mutex_trace();
        let mut log = String::new();
        for e in &t.events {
            let keep = match &e.kind {
                EventKind::Send { len, .. } | EventKind::Recv { len, .. } => {
                    decode_beacon(*len).map(|(k, _)| k) != Some(KIND_RELEASE)
                }
                _ => true,
            };
            if keep {
                let (verb, len, name) = match &e.kind {
                    EventKind::Send { len, dest } => ("send", len, dest.clone().unwrap()),
                    EventKind::Recv { len, source } => ("receive", len, source.clone().unwrap()),
                    _ => unreachable!(),
                };
                let field = if verb == "send" {
                    "destName"
                } else {
                    "sourceName"
                };
                log += &format!(
                    "event={verb} machine={} cpuTime={} procTime=0 traceType=1 pid={} pc=1 sock=3 msgLength={len} {field}={name}\n",
                    e.proc.machine, e.cpu_time, e.proc.pid
                );
            }
        }
        let r = MutexReport::check(&Trace::parse(&log));
        assert!(!r.mutual_exclusion_ok(), "{r}");
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn mutex_checker_localizes_a_lost_request() {
        // Node 0's REQ to node 1 vanishes (no receive on m1).
        let k0 = 16;
        let p1 = format!("inet:1:{}", MUTEX_PORT + 1);
        let log = send(0, 10, 2, beacon_len(KIND_REQ, k0), &p1);
        let r = MutexReport::check(&Trace::parse(&log));
        assert_eq!(r.faults.lost, vec![(0, 1, 1)]);
        assert_eq!(
            r.faults.links().into_iter().collect::<Vec<_>>(),
            vec![(0, 1)]
        );
    }

    /// A clean n=4 oral-messages round: loyal commander orders v=1,
    /// loyal lieutenants relay and decide 1.
    fn byz_trace(traitor: Option<u32>) -> Trace {
        let v = 1u32;
        let port = |i: u32| BYZ_PORT as u32 + i;
        let addr = |i: u32| format!("inet:{i}:{}", port(i));
        let marker = |i: u32| format!("inet:{i}:{MARKER_PORT}");
        let mut log = String::new();
        for i in 0..4 {
            log += &send(i, 10 + i, 1, beacon_len(KIND_HELLO, i), &marker(i));
        }
        // Round 1.
        for j in 1..4u32 {
            let vj = if traitor == Some(0) { (v + j) % 2 } else { v };
            log += &send(0, 10, 2, beacon_len(KIND_BYZ_R1, vj * 16 + j), &addr(j));
            log += &recv(j, 10 + j, 2, beacon_len(KIND_BYZ_R1, vj * 16 + j), &addr(0));
        }
        // Round 2.
        for i in 1..4u32 {
            let got = if traitor == Some(0) { (v + i) % 2 } else { v };
            let relay = if traitor == Some(i) { 1 - got } else { got };
            for j in 1..4u32 {
                if j == i {
                    continue;
                }
                log += &send(
                    i,
                    10 + i,
                    3,
                    beacon_len(KIND_BYZ_R2, relay * 16 + i),
                    &addr(j),
                );
                log += &recv(
                    j,
                    10 + j,
                    3,
                    beacon_len(KIND_BYZ_R2, relay * 16 + i),
                    &addr(i),
                );
            }
        }
        // Decisions: majority of (own order, relays).
        for i in 1..4u32 {
            let mut vals = Vec::new();
            let got = if traitor == Some(0) { (v + i) % 2 } else { v };
            vals.push(got);
            for k in 1..4u32 {
                if k == i {
                    continue;
                }
                let got_k = if traitor == Some(0) { (v + k) % 2 } else { v };
                vals.push(if traitor == Some(k) { 1 - got_k } else { got_k });
            }
            let ones = vals.iter().filter(|&&x| x == 1).count();
            let decide = u32::from(ones * 2 >= vals.len());
            log += &send(
                i,
                10 + i,
                4,
                beacon_len(KIND_BYZ_DECIDE, decide * 16 + i),
                &marker(i),
            );
        }
        Trace::parse(&log)
    }

    #[test]
    fn byzantine_checker_passes_all_loyal() {
        let r = ByzReport::check(&byz_trace(None));
        assert_eq!(r.n, 4);
        assert!(r.suspected.is_empty(), "{r}");
        assert!(r.agreement_ok(), "{r}");
        assert!(r.validity_ok(), "{r}");
        assert!(r.within_bound());
        assert_eq!(r.r1_sends, 3);
        assert_eq!(r.r2_sends, 6);
    }

    #[test]
    fn byzantine_checker_names_a_two_faced_commander() {
        let r = ByzReport::check(&byz_trace(Some(0)));
        assert_eq!(r.suspected, vec![0], "{r}");
        assert!(r.agreement_ok(), "loyal lieutenants still agree: {r}");
        assert!(r.validity_ok(), "vacuous for a traitor commander: {r}");
    }

    #[test]
    fn byzantine_checker_names_a_lying_lieutenant() {
        let r = ByzReport::check(&byz_trace(Some(2)));
        assert_eq!(r.suspected, vec![2], "{r}");
        assert!(r.agreement_ok(), "{r}");
        assert!(r.validity_ok(), "{r}");
    }
}
