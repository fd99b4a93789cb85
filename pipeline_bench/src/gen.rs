//! Seeded input generators: the program under test sees only the
//! bytes these produce.
//!
//! Two record shapes over one fixed population of [`PROCS`] processes
//! spread round-robin over [`MACHINES`] machines, arranged in a ring
//! (process `p` talks to process `p + 1`, which lives on another
//! machine):
//!
//! * **stream-shaped** — one `connect`/`accept` pair per ring edge,
//!   then `send`/`receive` pairs over the established connections
//!   (names absent, as the meter cannot name a stream's recipient);
//! * **datagram-shaped** — request/reply exchanges with
//!   `dest_name`/`source_name` set, optionally with same-connection
//!   duplicates injected (what a retransmitted meter flush produces).
//!
//! Alongside the bytes the generator returns what it *knows* about
//! every record (its byte range, whether it is a duplicate, whether
//! the workload's rule set keeps it). The output checks are made
//! against that knowledge, never against the filter's own code.

use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterHeader, MeterMsg, MeterRecvMsg, MeterSendMsg,
    SockName,
};
use std::collections::VecDeque;

/// Processes in the generated population.
pub const PROCS: u32 = 64;
/// Machines the population is spread over (process `p` on `p % 4`).
pub const MACHINES: u32 = 4;
/// Message payload lengths are uniform in `LEN_LO..=LEN_HI`.
pub const LEN_LO: u32 = 64;
/// See [`LEN_LO`].
pub const LEN_HI: u32 = 575;
/// `replay_selective` keeps sends of at least this many bytes.
pub const SELECTIVE_MIN_LEN: u32 = 320;
/// `replay_selective` keeps sends from this machine only.
pub const SELECTIVE_MACHINE: u16 = 3;

/// SplitMix64: tiny, seedable, and good enough to shape a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }
}

/// One generated wire stream plus the generator's knowledge of it.
#[derive(Debug, Clone, Default)]
pub struct Input {
    /// The meter-connection byte stream (one connection).
    pub bytes: Vec<u8>,
    /// `ends[i]` is the byte offset one past record `i`.
    pub ends: Vec<u32>,
    /// Indices of the records the workload's rules and the seq dedup
    /// must keep, ascending — the reference for the final store.
    pub kept: Vec<u32>,
    /// Indices of the injected duplicates (records repeating an
    /// earlier one verbatim), ascending.
    pub dups: Vec<u32>,
    /// The selection rules the filter runs with.
    pub rules: String,
}

impl Input {
    /// Records emitted, duplicates included.
    pub fn records(&self) -> usize {
        self.ends.len()
    }

    /// The wire bytes of record `i`.
    pub fn record(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// The input cut to its first `n` records.
    pub fn prefix(&self, n: usize) -> Input {
        let n = n.min(self.records());
        let end = if n == 0 { 0 } else { self.ends[n - 1] as usize };
        let before = |v: &[u32]| v[..v.partition_point(|&i| (i as usize) < n)].to_vec();
        Input {
            bytes: self.bytes[..end].to_vec(),
            ends: self.ends[..n].to_vec(),
            kept: before(&self.kept),
            dups: before(&self.dups),
            rules: self.rules.clone(),
        }
    }

    /// An input over already-framed records that are all kept (the
    /// simulation's own trace, replayed).
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> Input {
        let mut input = Input::default();
        for raw in records {
            input.bytes.extend_from_slice(raw);
            input.kept.push(input.ends.len() as u32);
            input.ends.push(input.bytes.len() as u32);
        }
        input
    }
}

/// The rule set a replay runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSet {
    /// No templates: every record is kept.
    KeepAll,
    /// 16 templates: 15 that match nothing and one that keeps large
    /// sends from one machine (about 6 % of a stream-shaped input).
    Selective,
}

impl RuleSet {
    /// The templates file text.
    pub fn text(self) -> String {
        match self {
            RuleSet::KeepAll => String::new(),
            RuleSet::Selective => selective_rules(16),
        }
    }

    fn keeps(self, machine: u16, body: &MeterBody) -> bool {
        match self {
            RuleSet::KeepAll => true,
            RuleSet::Selective => matches!(
                body,
                MeterBody::Send(s) if machine == SELECTIVE_MACHINE
                    && s.msg_length >= SELECTIVE_MIN_LEN
            ),
        }
    }
}

/// `templates - 1` rules naming machines that do not exist, then the
/// one matching rule — so a kept record is compared against every
/// template and a rejected one against all of them too.
pub fn selective_rules(templates: usize) -> String {
    let mut text: String = (1..templates)
        .map(|i| format!("machine={}\n", 50 + i))
        .collect();
    text.push_str(&format!(
        "machine={SELECTIVE_MACHINE}, type=1, msgLength>={SELECTIVE_MIN_LEN}, pc=#*\n"
    ));
    text
}

fn machine_of(p: u32) -> u16 {
    (p % MACHINES) as u16
}

fn pid_of(p: u32) -> u32 {
    1000 + p
}

/// Emits records into an [`Input`], stamping headers the way the
/// kernel meter does (per-process seq from 1, machine-local clock).
struct Emitter {
    input: Input,
    rules: RuleSet,
    seq: Vec<u32>,
    /// Non-zero: after each record, with probability `dup_ppm` per
    /// million, re-emit one of the last few records verbatim.
    dup_ppm: u64,
    recent: VecDeque<u32>,
}

impl Emitter {
    fn new(rules: RuleSet, dup_ppm: u64) -> Emitter {
        Emitter {
            input: Input {
                rules: rules.text(),
                ..Input::default()
            },
            rules,
            seq: vec![0; PROCS as usize],
            dup_ppm,
            recent: VecDeque::new(),
        }
    }

    fn emit(&mut self, rng: &mut Rng, p: u32, body: MeterBody) {
        let n = self.input.ends.len() as u32;
        self.seq[p as usize] += 1;
        let seq = self.seq[p as usize];
        let machine = machine_of(p);
        if self.rules.keeps(machine, &body) {
            self.input.kept.push(n);
        }
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: n / 64,
                seq,
                proc_time: seq / 16 * 10,
                trace_type: 0,
            },
            body,
        }
        .encode_into(&mut self.input.bytes);
        self.input.ends.push(self.input.bytes.len() as u32);
        if self.dup_ppm == 0 {
            return;
        }
        self.recent.push_back(n);
        if self.recent.len() > 8 {
            self.recent.pop_front();
        }
        if rng.below(1_000_000) < self.dup_ppm {
            let again = self.recent[rng.below(self.recent.len() as u64) as usize];
            let copy = self.input.record(again as usize).to_vec();
            self.input.bytes.extend_from_slice(&copy);
            self.input.dups.push(self.input.ends.len() as u32);
            self.input.ends.push(self.input.bytes.len() as u32);
        }
    }
}

/// `records` stream-shaped records: 128 connection records, then
/// send/receive pairs with up to eight receives outstanding.
pub fn stream_shaped(seed: u64, records: usize, rules: RuleSet) -> Input {
    let mut rng = Rng::new(seed);
    let mut e = Emitter::new(rules, 0);
    for p in 0..PROCS {
        if e.input.records() + 2 > records {
            break;
        }
        let q = (p + 1) % PROCS;
        let client = SockName::inet(u32::from(machine_of(p)), 2000 + p as u16);
        let server = SockName::inet(u32::from(machine_of(q)), 80 + q as u16);
        e.emit(
            &mut rng,
            p,
            MeterBody::Connect(MeterConnect {
                pid: pid_of(p),
                pc: 1,
                sock: 3,
                sock_name: Some(client.clone()),
                peer_name: Some(server.clone()),
            }),
        );
        e.emit(
            &mut rng,
            q,
            MeterBody::Accept(MeterAccept {
                pid: pid_of(q),
                pc: 2,
                sock: 4,
                new_sock: 5,
                sock_name: Some(server),
                peer_name: Some(client),
            }),
        );
    }
    // Receives trail their sends by a few records, in FIFO order, so
    // every connection's byte stream stays ordered.
    let mut in_flight: VecDeque<(u32, u32)> = VecDeque::new();
    while e.input.records() + in_flight.len() < records {
        if in_flight.len() >= 8 || (!in_flight.is_empty() && rng.below(2) == 0) {
            let (q, len) = in_flight.pop_front().expect("non-empty");
            e.emit(&mut rng, q, recv(q, 5, len, None));
        } else {
            let p = rng.below(u64::from(PROCS)) as u32;
            let len = rng.range(LEN_LO, LEN_HI);
            let pc = rng.range(1, 64);
            e.emit(&mut rng, p, send(p, pc, 3, len, None));
            in_flight.push_back(((p + 1) % PROCS, len));
        }
    }
    while let Some((q, len)) = in_flight.pop_front() {
        e.emit(&mut rng, q, recv(q, 5, len, None));
    }
    e.input
}

/// `records` datagram-shaped records (request, its receive, reply, its
/// receive), of which about `dup_ppm` per million are verbatim
/// repeats of one of the previous eight records.
pub fn dgram_shaped(seed: u64, records: usize, dup_ppm: u64) -> Input {
    let mut rng = Rng::new(seed);
    let mut e = Emitter::new(RuleSet::KeepAll, dup_ppm);
    while e.input.records() + 4 <= records {
        let p = rng.below(u64::from(PROCS)) as u32;
        let q = (p + 1) % PROCS;
        let client = SockName::inet(u32::from(machine_of(p)), 6000 + p as u16);
        let server = SockName::inet(u32::from(machine_of(q)), 5000 + q as u16);
        let (ask, answer) = (rng.range(LEN_LO, LEN_HI), rng.range(LEN_LO, LEN_HI));
        let pc = rng.range(1, 64);
        e.emit(&mut rng, p, send(p, pc, 3, ask, Some(server.clone())));
        e.emit(&mut rng, q, recv(q, 4, ask, Some(client.clone())));
        e.emit(&mut rng, q, send(q, pc, 4, answer, Some(client)));
        e.emit(&mut rng, p, recv(p, 3, answer, Some(server)));
    }
    e.input
}

fn send(p: u32, pc: u32, sock: u32, len: u32, dest: Option<SockName>) -> MeterBody {
    MeterBody::Send(MeterSendMsg {
        pid: pid_of(p),
        pc,
        sock,
        msg_length: len,
        dest_name: dest,
    })
}

fn recv(p: u32, sock: u32, len: u32, source: Option<SockName>) -> MeterBody {
    MeterBody::Recv(MeterRecvMsg {
        pid: pid_of(p),
        pc: 7,
        sock,
        msg_length: len,
        source_name: source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the bytes: the identity the determinism test pins.
    fn hash(input: &Input) -> u64 {
        input.bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn same_seed_same_bytes_and_another_seed_other_bytes() {
        for make in [
            |s| stream_shaped(s, 2000, RuleSet::Selective),
            |s| dgram_shaped(s, 2000, 50_000),
        ] {
            let (a, b, c) = (make(7), make(7), make(8));
            assert_eq!(hash(&a), hash(&b));
            assert_eq!(a.ends, b.ends);
            assert_eq!(a.kept, b.kept);
            assert_ne!(hash(&a), hash(&c));
        }
        // Pinned: a change to the generator changes every baseline.
        assert_eq!(
            hash(&stream_shaped(1, 2000, RuleSet::KeepAll)),
            0xc38d_3dc1_0609_a46c,
            "stream generator output moved"
        );
    }

    #[test]
    fn shapes_are_what_the_workloads_assume() {
        let s = stream_shaped(3, 4000, RuleSet::KeepAll);
        assert_eq!(s.records(), 4000);
        assert_eq!(s.kept.len(), 4000);
        let sel = stream_shaped(3, 40_000, RuleSet::Selective);
        let share = sel.kept.len() as f64 / sel.records() as f64;
        assert!((0.04..0.08).contains(&share), "kept share {share}");
        let d = dgram_shaped(3, 4000, 50_000);
        let dup_share = d.dups.len() as f64 / d.records() as f64;
        assert!((0.03..0.07).contains(&dup_share), "dup share {dup_share}");
        assert_eq!(d.kept.len() + d.dups.len(), d.records());
        let cut = d.prefix(1000);
        assert_eq!(cut.records(), 1000);
        assert_eq!(cut.kept.len() + cut.dups.len(), 1000);
    }
}
