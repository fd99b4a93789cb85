//! The compiled §3.4 line against the renderer it replaced: for every
//! Appendix-A event type, for generated descriptions files and for
//! every discard list, [`KeptRecord`]'s `Display` and
//! [`LogRecord::from_raw`] must be what resolving each field *by name*
//! through [`oracle::field`] produced.

mod oracle;

use dpm_filter::{Descriptions, FilterEngine, KeptRecord, LogRecord, Rules};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFork, MeterHeader,
    MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName,
    TermReason,
};

fn encode(body: MeterBody) -> Vec<u8> {
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine: 3,
            cpu_time: 2113,
            seq: 0,
            proc_time: 10,
            trace_type: body.trace_type(),
        },
        body,
    }
    .encode()
}

/// One record of every Appendix-A type, then the shapes that stress
/// the renderer: absent names, a name that needs escaping, a body cut
/// short.
fn samples() -> Vec<Vec<u8>> {
    let (pid, pc, sock) = (2120, 4, 5);
    let here = Some(SockName::inet(1, 1701));
    let there = Some(SockName::inet(2, 53));
    let mut all: Vec<Vec<u8>> = [
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 64,
            dest_name: there.clone(),
        }),
        MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
        MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: 612,
            source_name: here.clone(),
        }),
        MeterBody::SockCrt(MeterSockCrt {
            pid,
            pc,
            sock,
            domain: 2,
            sock_type: 1,
            protocol: 0,
        }),
        MeterBody::Dup(MeterDup {
            pid,
            pc,
            sock,
            new_sock: 6,
        }),
        MeterBody::DestSock(MeterDestSock { pid, pc, sock }),
        MeterBody::Fork(MeterFork {
            pid,
            pc,
            new_pid: 2121,
        }),
        MeterBody::Accept(MeterAccept {
            pid,
            pc,
            sock,
            new_sock: 6,
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
            reason: TermReason::Killed,
        }),
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 1,
            dest_name: None,
        }),
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 1,
            dest_name: Some(SockName::unix("/tmp/a b=c")),
        }),
    ]
    .into_iter()
    .map(encode)
    .collect();
    let mut cut = all[0].clone();
    cut.truncate(dpm_meter::HEADER_LEN + 10);
    all.push(cut);
    all
}

/// The renderer as it was: every logged field looked up by name, its
/// value shown through `Display`, the line escaped by
/// [`LogRecord::new`]. (Body field names must be unique for this to be
/// the reference: [`oracle::field`] finds only the first.)
fn by_name(desc: &Descriptions, record: &[u8], discard: &[String]) -> Option<LogRecord> {
    let event = desc.event(Descriptions::record_type(record)?)?;
    let fields = ["machine", "cpuTime", "procTime", "traceType"]
        .into_iter()
        .chain(event.fields.iter().map(|f| f.name.as_str()))
        .filter(|n| !n.ends_with("Len"))
        .filter(|n| {
            !discard
                .iter()
                .any(|d| d == n || (d == "size" && *n == "msgLength"))
        })
        .filter_map(|n| Some((n, oracle::field(desc, record, n)?.to_string())))
        .collect::<Vec<_>>();
    Some(LogRecord::new(
        &event.name,
        fields.iter().map(|(n, v)| (*n, v.as_str())),
    ))
}

/// Every way `desc` can render `record` under `discard` equals
/// [`by_name`].
fn assert_renders_by_name(desc: &Descriptions, record: &[u8], discard: &[String]) {
    let want = by_name(desc, record, discard).expect("described type");
    let kept = KeptRecord::new(desc, record, discard).expect("described type");
    let line = kept.to_string();
    assert_eq!(line, want.to_string(), "discard {discard:?}");
    let mut written = String::from("kept: ");
    kept.write_to(&mut written).unwrap();
    assert_eq!(written, format!("kept: {line}"));
    assert_eq!(
        LogRecord::from_raw(desc, record, discard),
        Some(want.clone())
    );
    assert_eq!(LogRecord::parse(&line), Some(want));
}

fn discard_lists() -> Vec<Vec<String>> {
    [
        &[][..],
        &["pc"],
        &["machine", "traceType"],
        &["size"], // the rules' alias for msgLength
        &["msgLength", "destName", "peerName"],
        &["nonexistent"],
    ]
    .iter()
    .map(|l| l.iter().map(|s| (*s).to_owned()).collect())
    .collect()
}

#[test]
fn display_and_log_record_equal_the_by_name_renderer() {
    let desc = Descriptions::standard();
    let mut types_seen = std::collections::BTreeSet::new();
    for record in samples() {
        types_seen.insert(Descriptions::record_type(&record).unwrap());
        for discard in discard_lists() {
            assert_renders_by_name(&desc, &record, &discard);
        }
    }
    assert_eq!(
        types_seen.into_iter().collect::<Vec<_>>(),
        (1..=10).collect::<Vec<u32>>(),
        "every Appendix-A event type sampled"
    );
}

#[test]
fn golden_lines() {
    let desc = Descriptions::standard();
    let all = samples();
    let line = |i: usize, discard: &[String]| {
        KeptRecord::new(&desc, &all[i], discard)
            .unwrap()
            .to_string()
    };
    assert_eq!(
        line(0, &[]),
        "event=send machine=3 cpuTime=2113 procTime=10 traceType=1 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:2:53"
    );
    assert_eq!(
        line(0, &["size".to_owned(), "pc".to_owned()]),
        "event=send machine=3 cpuTime=2113 procTime=10 traceType=1 pid=2120 sock=5 destName=inet:2:53"
    );
    // A name with a space and an `=` stays one token.
    assert!(line(11, &[]).ends_with(" destName=unix:/tmp/a\\sb\\ec"));
    assert!(line(10, &[]).ends_with(" destName=-"));
}

#[test]
fn undescribed_types_have_no_kept_record() {
    let desc = Descriptions::standard();
    let mut record = samples().remove(0);
    record[20..24].copy_from_slice(&99u32.to_le_bytes());
    assert!(KeptRecord::new(&desc, &record, &[]).is_none());
    assert!(LogRecord::from_raw(&desc, &record, &[]).is_none());
    assert!(KeptRecord::new(&desc, &record[..10], &[]).is_none());
    // The engine counts it as garbage, as it always did.
    let mut engine = FilterEngine::standard();
    assert!(engine.feed(&record).is_empty());
    let stats = engine.stats();
    assert_eq!((stats.seen, stats.kept), (1, 0));
    assert_eq!(stats.garbage_bytes, record.len() as u64);
}

/// The engine hands the sink the verdict's own discard list: what the
/// sink formats is `from_raw` of the same bytes under that list.
#[test]
fn engine_sink_sees_the_reduced_record() {
    let desc = Descriptions::standard();
    let rules = Rules::parse("type=1, size=#*, pc=#*\ntype=8, peerName=#*").unwrap();
    let mut wire = Vec::new();
    for r in samples().iter().take(12) {
        wire.extend_from_slice(r);
    }
    let mut engine = FilterEngine::new(desc.clone(), rules);
    let mut lines = Vec::new();
    engine.feed_records(&wire, &mut |view, rec| {
        let discard: Vec<String> = match view.trace_type() {
            1 => vec!["size".into(), "pc".into()],
            _ => vec!["peerName".into()],
        };
        let want = by_name(&desc, view.bytes(), &discard).unwrap();
        assert_eq!(rec.to_string(), want.to_string());
        lines.push(rec.to_string());
    });
    assert_eq!(lines.len(), 4, "three sends and the accept");
    assert_eq!(engine.stats().kept, 4);
    assert!(lines[0].starts_with("event=send ") && !lines[0].contains(" pc="));
}

/// A tiny deterministic generator (xorshift), so the generated files
/// are the same on every run.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Field names that stress the line: ones that need escaping, body
/// fields called like header fields, `*Len` bookkeeping, and the
/// `size` alias's `msgLength`.
const NAMES: &[&str] = &[
    "a=b",
    "x\\y",
    "type",
    "cpuTime",
    "size",
    "machine",
    "nameLen",
    "msgLength",
    "pid",
    "blob",
    "short",
    "wide",
    "peer",
];

/// `(length, base)` of a field: integers narrower and wider than eight
/// bytes, byte fields shorter and longer than a 16-byte name.
const SHAPES: &[(usize, u32)] = &[
    (1, 10),
    (2, 10),
    (4, 10),
    (12, 10),
    (4, 16),
    (16, 16),
    (20, 16),
];

/// A descriptions file of three events over a 64-byte body, each
/// listing fields in an order unrelated to their offsets — so a record
/// cut short loses a field in the middle of its line, not its tail.
fn generated_text(g: &mut Gen) -> String {
    let mut text = String::from("HEADER size machine cpuTime procTime traceType\n");
    for (t, event) in [(1, "EV=1"), (2, "odd\\ev"), (3, "plain")] {
        text.push_str(&format!("{event} {t},"));
        let mut names = NAMES.to_vec();
        for _ in 0..3 + g.below(names.len() - 3) {
            let name = names.remove(g.below(names.len()));
            let (len, base) = SHAPES[g.below(SHAPES.len())];
            let off = g.below(64 - len + 1);
            text.push_str(&format!(" {name},{off},{len},{base}"));
        }
        text.push('\n');
    }
    text
}

/// A record of `trace_type` with an 88-byte body of noise, 16-byte
/// windows of which hold encoded socket names (and one all zeros).
fn generated_record(g: &mut Gen, trace_type: u32) -> Vec<u8> {
    let mut record: Vec<u8> = (0..dpm_meter::HEADER_LEN + 88)
        .map(|_| g.next() as u8)
        .collect();
    record[20..24].copy_from_slice(&trace_type.to_le_bytes());
    let names = [
        SockName::inet(7, 1701).encode(),
        SockName::unix("/tmp/a b=c\\d").encode(),
        SockName::Internal(42).encode(),
        [0; dpm_meter::NAME_LEN],
    ];
    for name in names {
        let at = dpm_meter::HEADER_LEN + g.below(88 - 16 + 1);
        if g.below(3) > 0 {
            record[at..at + 16].copy_from_slice(&name);
        }
    }
    record
}

#[test]
fn generated_descriptions_render_by_name() {
    let mut g = Gen(0x9e37_79b9_7f4a_7c15);
    for _ in 0..32 {
        let text = generated_text(&mut g);
        let desc = Descriptions::parse(&text).expect("generated file parses");
        for trace_type in 1..=3 {
            let event = desc.event(trace_type).expect("described");
            let first_body = event.fields[0].name.clone();
            let discards: Vec<Vec<String>> = [
                vec![],
                vec!["machine".to_owned()],
                vec!["size".to_owned()],
                vec!["machine".to_owned(), "size".to_owned(), "a=b".to_owned()],
                vec![first_body, "type".to_owned()],
            ]
            .into();
            let record = generated_record(&mut g, trace_type);
            // Every cut from a bare header to the whole record.
            for cut in dpm_meter::HEADER_LEN..=record.len() {
                for discard in &discards {
                    assert_renders_by_name(&desc, &record[..cut], discard);
                }
            }
        }
    }
}

/// The escaped head and keys, a body `type` showing the header's value,
/// and a field past the end of a cut record skipped, not ending the
/// line.
#[test]
fn generated_golden_line() {
    let desc = Descriptions::parse(
        "HEADER size\nEV=1 1, blob,40,20,16 x\\y,0,2,10 type,2,1,10 nameLen,4,4,10 short,6,4,16\n",
    )
    .unwrap();
    let mut record = vec![0u8; dpm_meter::HEADER_LEN + 10];
    record[20] = 1;
    record[24..26].copy_from_slice(&513u16.to_le_bytes());
    record[30..34].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    let line = KeptRecord::new(&desc, &record, &[]).unwrap().to_string();
    assert_eq!(
        line,
        "event=ev\\e1 machine=0 cpuTime=0 procTime=0 traceType=1 x\\\\y=513 type=1 short=deadbeef"
    );
    let line = KeptRecord::new(&desc, &record, &["machine".to_owned()])
        .unwrap()
        .to_string();
    assert!(line.starts_with("event=ev\\e1 cpuTime=0 "), "{line}");
}

/// A UNIX path cut to fit the 14-byte field ends on a character
/// boundary, so the log shows the name, not its hex.
#[test]
fn a_unix_name_cut_mid_character_renders_as_a_name() {
    let desc = Descriptions::standard();
    let record = encode(MeterBody::Send(MeterSendMsg {
        pid: 1,
        pc: 2,
        sock: 3,
        msg_length: 4,
        dest_name: Some(SockName::unix("/tmp/ééééééé")),
    }));
    let line = KeptRecord::new(&desc, &record, &[]).unwrap().to_string();
    assert!(line.ends_with(" destName=unix:/tmp/éééé"), "{line}");
    assert_renders_by_name(&desc, &record, &[]);
}
