//! The compiled matcher against the by-name interpreter it replaced
//! ([`oracle::verdict`]): for generated templates — all six operators,
//! `*`, integers, decimal prefixes, field-to-field and text patterns,
//! `#`, the `size` and `type` aliases, `*Len` fields and names no event
//! has — and for records of every Appendix-A type, of a type the
//! descriptions lack, and each of them cut at every length, the verdict
//! and its discard list must be the interpreter's. So must the
//! engine's [`FilterStats`] over a stream of such records.

mod oracle;

use dpm_filter::{Descriptions, FilterEngine, FilterStats, Rules, Verdict};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFork, MeterHeader,
    MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName,
    TermReason,
};
use proptest::prelude::*;

/// A descriptions file that stresses resolution: a body field named
/// like a header field, one named `size`, a repeated name, fields that
/// are empty, odd-sized, wider than eight bytes or past any record's
/// end, a name field of four bytes, and an event type the standard
/// file lacks.
const ODD_DESCRIPTIONS: &str = "\
HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pid,4,4,10 machine,8,4,10 size,12,4,10 wide,0,12,10 odd,2,3,16 zero,5,0,10 far,4000,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
RECEIVE 3, pid,0,4,10 sock,8,4,10 sourceName,20,16,16 short,8,4,16
EXTRA 11, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10
";

/// A trace type neither descriptions file knows.
const UNKNOWN_TYPE: u32 = 99;

/// The names a condition may test or compare against.
const NAMES: &[&str] = &[
    "machine",
    "cpuTime",
    "procTime",
    "traceType",
    "type",
    "size",
    "pid",
    "pc",
    "sock",
    "msgLength",
    "destNameLen",
    "destName",
    "sourceName",
    "sockName",
    "peerName",
    "peerNameLen",
    "newSock",
    "newPid",
    "reason",
    "domain",
    "protocol",
    "wide",
    "odd",
    "zero",
    "far",
    "short",
    "nosuch",
];

const OPS: &[&str] = &["=", "!=", "<", ">", "<=", ">="];

/// Literal values: small integers (the records hold small numbers),
/// decimal prefixes, `*`, texts a name field displays as, and texts
/// one of those is a proper prefix of (or that are one of theirs).
const VALUES: &[&str] = &[
    "*",
    "0",
    "1",
    "2",
    "3",
    "4",
    "1*",
    "2*",
    "10*",
    "21*",
    "inet:1:1701",
    "unix:/tmp/a",
    "-",
    "inet:2:53",
    "zzz",
    "00000000",
    "inet:1",
    "inet:1:17010",
    "unix:/tmp/ab",
    "2x",
    "-1",
];

/// One condition's text: a name, an operator (`=` or `!=` for a
/// wildcard), maybe `#`, and a literal or another field's name.
fn arb_condition() -> impl Strategy<Value = String> {
    let name = 0..NAMES.len();
    let value = prop_oneof![
        (0..VALUES.len()).prop_map(|i| VALUES[i].to_owned()),
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_owned()),
    ];
    (name, 0..OPS.len(), any::<bool>(), value).prop_map(|(name, op, discard, value)| {
        let op = if value.ends_with('*') {
            OPS[op % 2]
        } else {
            OPS[op]
        };
        let hash = if discard { "#" } else { "" };
        format!("{}{op}{hash}{value}", NAMES[name])
    })
}

/// A templates file of one to four rules of one to three conditions.
fn arb_templates() -> impl Strategy<Value = String> {
    let rule = proptest::collection::vec(arb_condition(), 1..4).prop_map(|cs| cs.join(", "));
    proptest::collection::vec(rule, 1..5).prop_map(|rules| rules.join("\n"))
}

/// The values of four sets of records: small numbers, so that generated
/// conditions hit, and one of four socket names (or none).
fn arb_values() -> impl Strategy<Value = Vec<(Vec<u32>, Vec<usize>)>> {
    let one = (
        proptest::collection::vec(0u32..5, 8),
        proptest::collection::vec(0usize..4, 2),
    );
    proptest::collection::vec(one, 4)
}

fn name(choice: usize) -> Option<SockName> {
    match choice {
        0 => None,
        1 => Some(SockName::inet(1, 1701)),
        2 => Some(SockName::inet(2, 53)),
        _ => Some(SockName::unix("/tmp/a")),
    }
}

/// One record of each Appendix-A type from `v` and `n`, then a send
/// relabelled with type 11 (described by [`ODD_DESCRIPTIONS`] only)
/// and with [`UNKNOWN_TYPE`]; sequence numbers from `first_seq`.
fn records(v: &[u32], n: &[usize], first_seq: u32) -> Vec<Vec<u8>> {
    let (pid, pc, sock) = (v[3], v[4], v[5]);
    let (here, there) = (name(n[0]), name(n[1]));
    let bodies = [
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: v[6],
            dest_name: there.clone(),
        }),
        MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
        MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: v[6],
            source_name: here.clone(),
        }),
        MeterBody::SockCrt(MeterSockCrt {
            pid,
            pc,
            sock,
            domain: v[7],
            sock_type: v[6],
            protocol: v[5],
        }),
        MeterBody::Dup(MeterDup {
            pid,
            pc,
            sock,
            new_sock: v[7],
        }),
        MeterBody::DestSock(MeterDestSock { pid, pc, sock }),
        MeterBody::Fork(MeterFork {
            pid,
            pc,
            new_pid: v[7],
        }),
        MeterBody::Accept(MeterAccept {
            pid,
            pc,
            sock,
            new_sock: v[7],
            sock_name: here.clone(),
            peer_name: there.clone(),
        }),
        MeterBody::Connect(MeterConnect {
            pid,
            pc,
            sock,
            sock_name: here,
            peer_name: there,
        }),
        MeterBody::TermProc(MeterTermProc {
            pid,
            pc,
            reason: if v[7].is_multiple_of(2) {
                TermReason::Normal
            } else {
                TermReason::Killed
            },
        }),
    ];
    let mut all: Vec<Vec<u8>> = bodies
        .into_iter()
        .enumerate()
        .map(|(seq, body)| {
            MeterMsg {
                header: MeterHeader {
                    size: 0,
                    machine: v[0] as u16,
                    cpu_time: v[1],
                    seq: first_seq + seq as u32,
                    proc_time: v[2],
                    trace_type: body.trace_type(),
                },
                body,
            }
            .encode()
        })
        .collect();
    for (seq, ty) in [(first_seq + 10, 11), (first_seq + 11, UNKNOWN_TYPE)] {
        let mut relabelled = all[0].clone();
        relabelled[12..16].copy_from_slice(&seq.to_le_bytes());
        relabelled[20..24].copy_from_slice(&ty.to_le_bytes());
        all.push(relabelled);
    }
    all
}

/// The verdict as the interpreter's shape: `None` to reject.
fn compiled(rules: &Rules, desc: &Descriptions, record: &[u8]) -> Option<Vec<String>> {
    match rules.verdict(desc, record) {
        Verdict::Keep { discard_fields } => Some(discard_fields.to_vec()),
        Verdict::Reject => None,
    }
}

/// What the engine must count for `records` fed as one stream: each
/// record seen once (their sequence numbers rise), rejected when the
/// interpreter rejects it, else kept — or, of an undescribed type,
/// counted as garbage.
fn oracle_stats(rules: &Rules, desc: &Descriptions, records: &[Vec<u8>]) -> FilterStats {
    let mut stats = FilterStats::default();
    for r in records {
        stats.seen += 1;
        match oracle::verdict(rules, desc, r) {
            None => stats.rejected += 1,
            Some(_) if desc.event(Descriptions::record_type(r).unwrap()).is_none() => {
                stats.garbage_bytes += r.len() as u64
            }
            Some(_) => stats.kept += 1,
        }
    }
    stats
}

proptest! {
    #[test]
    fn compiled_verdicts_equal_the_by_name_interpreter(
        templates in arb_templates(),
        values in arb_values(),
    ) {
        let rules = Rules::parse(&templates).expect("generated templates parse");
        let sets = values.iter().zip(0..).map(|((v, n), i)| records(v, n, 1 + 12 * i));
        let all: Vec<Vec<u8>> = sets.flatten().collect();
        // One `Rules` against both files, alternately: a verdict under
        // other descriptions must not answer from the first table.
        let descs = [Descriptions::standard(), Descriptions::parse(ODD_DESCRIPTIONS).unwrap()];
        for record in &all {
            for cut in 0..=record.len() {
                for desc in &descs {
                    let r = &record[..cut];
                    prop_assert_eq!(
                        compiled(&rules, desc, r),
                        oracle::verdict(&rules, desc, r),
                        "templates {:?}, record {:?}", templates, r
                    );
                }
            }
        }
        for desc in descs {
            let wire: Vec<u8> = all.concat();
            let mut engine = FilterEngine::new(desc.clone(), rules.clone());
            engine.feed_records(&wire, &mut |_, _| {});
            prop_assert_eq!(engine.stats(), oracle_stats(&rules, &desc, &all), "templates {:?}", templates);
        }
    }
}

/// Every one-condition template the generator can draw — each name,
/// operator and value — against whole records of every type whose
/// numbers run through the integer literals.
#[test]
fn every_single_condition_agrees() {
    let descs = [
        Descriptions::standard(),
        Descriptions::parse(ODD_DESCRIPTIONS).unwrap(),
    ];
    let all: Vec<Vec<u8>> = (0..5u32)
        .flat_map(|k| {
            let v = [0, 1, 0, 0, 1, 0, 0, 1].map(|d| (k + d) % 5);
            records(&v, &[k as usize % 4, (k as usize + 1) % 4], 1)
        })
        .collect();
    for name in NAMES {
        for (i, op) in OPS.iter().enumerate() {
            for value in VALUES.iter().chain(NAMES) {
                if value.ends_with('*') && i > 1 {
                    continue;
                }
                let text = format!("{name}{op}{value}");
                let rules = Rules::parse(&text).expect("template parses");
                for desc in &descs {
                    for r in &all {
                        let want = oracle::verdict(&rules, desc, r);
                        assert_eq!(compiled(&rules, desc, r), want, "{text} on {r:?}");
                    }
                }
            }
        }
    }
}

/// The semantics the compiled table must keep, pinned one by one.
#[test]
fn resolution_rules_hold() {
    let desc = Descriptions::standard();
    let all = records(&[3, 7, 9, 21, 4, 5, 612, 2], &[1, 2], 1);
    let (send, socket) = (&all[0], &all[3]);
    let keep = |text: &str, r: &[u8]| compiled(&Rules::parse(text).unwrap(), &desc, r);
    let kept = Some(Vec::new());
    // SOCKET's body `type` is the header's `traceType`.
    assert_eq!(keep("type=4", socket), kept);
    assert_eq!(keep("type=612", socket), None);
    // `size` is `msgLength`; `*Len` fields match.
    assert_eq!(keep("size=612", send), kept);
    assert_eq!(keep("destNameLen=8", send), kept);
    // Absent or cut fields fail; `*` with `!=` never matches.
    assert_eq!(keep("newPid=*", send), None);
    assert_eq!(keep("destName=*", &send[..40]), None);
    assert_eq!(keep("machine!=*", send), None);
    // An unknown type sees header-only rules.
    assert_eq!(keep("cpuTime=7", &all[11]), kept);
    assert_eq!(keep("pid=21", &all[11]), None);
    // Text: an integer against a name field, a field this type lacks.
    assert_eq!(keep("destName=inet:2:53", send), kept);
    assert_eq!(keep("destName<9", send), None);
    assert_eq!(keep("pid<newPid", send), kept, "`21` < `newPid` as text");
    // The first matching rule's discards win.
    assert_eq!(
        keep("pid=#21, pc=#*\nmachine=#3", send),
        Some(vec!["pid".to_owned(), "pc".to_owned()])
    );
}
