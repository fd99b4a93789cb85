//! Property-based tests: every well-formed meter message round-trips
//! through the Appendix-A wire format, the decoder never panics on
//! arbitrary bytes, and [`SeqWindow`] decides exactly as the two dedup
//! rules it replaced on the streams each of them was right for.

use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDecoder, MeterDestSock, MeterDup, MeterFork,
    MeterHeader, MeterMsg, MeterRecord, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt,
    MeterTermProc, SeqWindow, SockName, TermReason,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn arb_name() -> impl Strategy<Value = Option<SockName>> {
    prop_oneof![
        Just(None),
        (any::<u32>(), any::<u16>()).prop_map(|(h, p)| Some(SockName::Inet { host: h, port: p })),
        "[a-z/._-]{1,14}".prop_map(|s| Some(SockName::UnixPath(s))),
        any::<u64>().prop_map(|v| Some(SockName::Internal(v))),
    ]
}

fn arb_body() -> impl Strategy<Value = MeterBody> {
    let u = any::<u32>();
    prop_oneof![
        (u, u, u, u, arb_name()).prop_map(|(pid, pc, sock, msg_length, dest_name)| {
            MeterBody::Send(MeterSendMsg {
                pid,
                pc,
                sock,
                msg_length,
                dest_name,
            })
        }),
        (u, u, u).prop_map(|(pid, pc, sock)| MeterBody::RecvCall(MeterRecvCall { pid, pc, sock })),
        (u, u, u, u, arb_name()).prop_map(|(pid, pc, sock, msg_length, source_name)| {
            MeterBody::Recv(MeterRecvMsg {
                pid,
                pc,
                sock,
                msg_length,
                source_name,
            })
        }),
        (u, u, u, 1u32..=2, 1u32..=2).prop_map(|(pid, pc, sock, domain, sock_type)| {
            MeterBody::SockCrt(MeterSockCrt {
                pid,
                pc,
                sock,
                domain,
                sock_type,
                protocol: 0,
            })
        }),
        (u, u, u, u).prop_map(|(pid, pc, sock, new_sock)| MeterBody::Dup(MeterDup {
            pid,
            pc,
            sock,
            new_sock
        })),
        (u, u, u).prop_map(|(pid, pc, sock)| MeterBody::DestSock(MeterDestSock { pid, pc, sock })),
        (u, u, u).prop_map(|(pid, pc, new_pid)| MeterBody::Fork(MeterFork { pid, pc, new_pid })),
        (u, u, u, u, arb_name(), arb_name()).prop_map(
            |(pid, pc, sock, new_sock, sock_name, peer_name)| {
                MeterBody::Accept(MeterAccept {
                    pid,
                    pc,
                    sock,
                    new_sock,
                    sock_name,
                    peer_name,
                })
            }
        ),
        (u, u, u, arb_name(), arb_name()).prop_map(|(pid, pc, sock, sock_name, peer_name)| {
            MeterBody::Connect(MeterConnect {
                pid,
                pc,
                sock,
                sock_name,
                peer_name,
            })
        }),
        (
            u,
            u,
            prop_oneof![Just(TermReason::Normal), Just(TermReason::Killed)]
        )
            .prop_map(|(pid, pc, reason)| MeterBody::TermProc(MeterTermProc {
                pid,
                pc,
                reason
            })),
    ]
}

fn arb_msg() -> impl Strategy<Value = MeterMsg> {
    (any::<u16>(), any::<u32>(), any::<u32>(), arb_body()).prop_map(
        |(machine, cpu_time, proc_time, body)| MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time,
                seq: 0,
                proc_time,
                trace_type: body.trace_type(),
            },
            body,
        },
    )
}

proptest! {
    #[test]
    fn any_message_round_trips(msg in arb_msg()) {
        let wire = msg.encode();
        let (back, used) = MeterMsg::decode(&wire).expect("decode");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(back.body, msg.body);
        prop_assert_eq!(back.header.machine, msg.header.machine);
        prop_assert_eq!(back.header.cpu_time, msg.header.cpu_time);
        prop_assert_eq!(back.header.proc_time, msg.header.proc_time);
    }

    #[test]
    fn concatenated_messages_round_trip(msgs in proptest::collection::vec(arb_msg(), 1..20)) {
        let mut wire = Vec::new();
        for m in &msgs {
            m.encode_into(&mut wire);
        }
        let back = MeterMsg::decode_all(&wire).expect("decode all");
        prop_assert_eq!(back.len(), msgs.len());
        for (b, m) in back.iter().zip(&msgs) {
            prop_assert_eq!(&b.body, &m.body);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        msg in arb_msg(),
        at in any::<usize>(),
        word in any::<u32>(),
    ) {
        // Arbitrary bytes, and a valid message with one word overwritten
        // (a hostile size, name length, family or trace type): the
        // message decoder, the streaming decoder, the record view and
        // the name decoder must all answer, never panic.
        let mut hostile = msg.encode();
        let at = at % (hostile.len() - 3);
        hostile[at..at + 4].copy_from_slice(&word.to_le_bytes());
        for wire in [&bytes, &hostile] {
            let _ = MeterMsg::decode(wire);
            for record in MeterDecoder::new(wire).flatten() {
                let _ = record.to_msg();
            }
            let view = MeterRecord::new(wire);
            let _ = (view.header(), view.pid(), view.to_msg());
            let _ = SockName::decode(wire);
        }
    }

    #[test]
    fn truncation_is_detected(msg in arb_msg(), cut in 1usize..10) {
        let wire = msg.encode();
        let keep = wire.len().saturating_sub(cut);
        prop_assert!(MeterMsg::decode(&wire[..keep]).is_err());
    }

    #[test]
    fn names_round_trip(name in arb_name().prop_filter("some", Option::is_some)) {
        let name = name.expect("filtered");
        let wire = name.encode();
        prop_assert_eq!(SockName::decode(&wire).expect("decode"), name);
    }
}

/// A meter record as the dedup sees it: `(machine, pid, seq)`.
type Key = (u16, u32, u32);

/// The seen-set rule the filter tree's merge and the live trace used:
/// a sequenced record is new iff its `(machine, pid, seq)` was never
/// admitted. `pid == 0` is a record with no readable pid, which the
/// engine never tracked; both references take that rule.
#[derive(Default)]
struct ReferenceSet(HashSet<Key>);

impl ReferenceSet {
    fn admit(&mut self, (machine, pid, seq): Key) -> bool {
        seq == 0 || pid == 0 || self.0.insert((machine, pid, seq))
    }
}

/// The watermark rule the filter engine used: a sequenced record is new
/// iff its seq is above the highest admitted for its process.
#[derive(Default)]
struct ReferenceWatermark(HashMap<(u16, u32), u32>);

impl ReferenceWatermark {
    fn admit(&mut self, (machine, pid, seq): Key) -> bool {
        if seq == 0 || pid == 0 {
            return true;
        }
        let last = self.0.entry((machine, pid)).or_insert(0);
        let new = seq > *last;
        *last = (*last).max(seq);
        new
    }
}

/// The width the streams below are generated for, spelled out rather
/// than read from `SeqWindow::WIDTH`, so a narrower window fails.
const WIDTH: u32 = 64;

/// The processes a generated stream interleaves: same pid on two
/// machines, two pids on one machine.
const PROCS: [(u16, u32); 5] = [(1, 2117), (1, 2118), (2, 2117), (2, 2118), (3, 9000)];

/// One generator step: an op code, a process index and a parameter.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
    proptest::collection::vec((0u8..8, 0..PROCS.len(), any::<u32>()), 1..800)
}

/// Interprets `ops` as a multi-process stream. Each process draws fresh
/// seqs above its high mark with jumps up to 64; when `reorder`, the
/// seqs a jump skips may arrive later, but never 64 or more behind the
/// high mark. Every stream also carries replays of any earlier record,
/// unsequenced records, and records without a pid.
fn stream(ops: &[(u8, usize, u32)], reorder: bool) -> Vec<Key> {
    let mut high = [0u32; PROCS.len()];
    let mut holes: Vec<Vec<u32>> = vec![Vec::new(); PROCS.len()];
    let mut out: Vec<Key> = Vec::new();
    for &(op, p, param) in ops {
        let (machine, pid) = PROCS[p];
        let key = match op {
            0..=2 => {
                let jump = [1, 1, 1, 2, 3, 63, 64, 1 + (param >> 8) % 64][param as usize % 8];
                if reorder {
                    holes[p].extend(high[p] + 1..high[p] + jump);
                }
                high[p] += jump;
                holes[p].retain(|&s| high[p] - s < WIDTH);
                (machine, pid, high[p])
            }
            3 | 4 if !holes[p].is_empty() => {
                // Half the time the oldest hole: the window's edge.
                let at = if param % 2 == 0 {
                    0
                } else {
                    param as usize % holes[p].len()
                };
                (machine, pid, holes[p].remove(at))
            }
            5 if !out.is_empty() => out[param as usize % out.len()],
            6 => (machine, pid, 0),
            7 => (machine, 0, param % 200),
            _ => continue,
        };
        out.push(key);
    }
    out
}

proptest! {
    #[test]
    fn window_matches_the_seen_set_within_its_width(ops in arb_ops()) {
        let (mut window, mut reference) = (SeqWindow::default(), ReferenceSet::default());
        // Stale counts only replays: a record 64 or more behind its
        // process's high mark is one the generator already sent.
        let (mut high, mut far) = (HashMap::new(), 0u64);
        for (i, &key) in stream(&ops, true).iter().enumerate() {
            let (m, pid, seq) = key;
            if seq != 0 && pid != 0 {
                let h = high.entry((m, pid)).or_insert(0);
                far += u64::from(*h >= seq + WIDTH);
                *h = seq.max(*h);
            }
            prop_assert_eq!(window.admit(m, pid, seq), reference.admit(key), "record {} {:?}", i, key);
        }
        prop_assert_eq!(window.stale(), far);
    }

    #[test]
    fn window_matches_the_watermark_on_ordered_streams(ops in arb_ops()) {
        let (mut window, mut reference) = (SeqWindow::default(), ReferenceWatermark::default());
        for (i, &key) in stream(&ops, false).iter().enumerate() {
            let (m, pid, seq) = key;
            prop_assert_eq!(window.admit(m, pid, seq), reference.admit(key), "record {} {:?}", i, key);
        }
    }
}
