//! The unrendered [`KeptRecord`] against the renderer it replaced: for
//! every Appendix-A event type and every discard list, its `Display`
//! and its `LogRecord` must be what resolving each field *by name*
//! through [`Descriptions::field`] produced before the offset walk.

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

/// The renderer as it was: every logged field looked up by name.
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
        .filter_map(|n| Some((n.to_owned(), desc.field(record, n)?.to_string())))
        .collect();
    Some(LogRecord {
        event: event.name.clone(),
        fields,
    })
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
            let want = by_name(&desc, &record, &discard).expect("described type");
            let kept = KeptRecord::new(&desc, &record, &discard).expect("described type");
            assert_eq!(kept.to_log_record(), want, "discard {discard:?}");
            assert_eq!(kept.to_string(), want.to_string(), "discard {discard:?}");
            assert_eq!(
                LogRecord::from_raw(&desc, &record, &discard),
                Some(want.clone())
            );
            assert_eq!(LogRecord::parse(&kept.to_string()), Some(want));
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
        assert_eq!(rec.to_log_record(), want);
        lines.push(rec.to_string());
    });
    assert_eq!(lines.len(), 4, "three sends and the accept");
    assert_eq!(engine.stats().kept, 4);
    assert!(lines[0].starts_with("event=send ") && !lines[0].contains(" pc="));
}
