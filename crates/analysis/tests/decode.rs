//! Typed decode by offset against the text route it shortcuts: for
//! every Appendix-A event type, `Trace::from_frames` over raw records
//! must equal `Trace::parse` over the log text rendered from the same
//! records — under the standard descriptions and under a descriptions
//! file that renames, reorders, duplicates and retypes fields — for
//! whole records, records missing a field typing needs, and every
//! truncation of every record down to nothing.

use dpm_analysis::{EventKind, Trace};
use dpm_filter::{Descriptions, LogRecord};
use dpm_logstore::{Frame, ProcId};
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
            seq: 7,
            proc_time: 10,
            trace_type: body.trace_type(),
        },
        body,
    }
    .encode()
}

/// One record of every Appendix-A type, in trace-type order, then the
/// name shapes: absent, needing escape in the log text, not `inet`.
fn samples() -> Vec<Vec<u8>> {
    let (pid, pc, sock) = (2120, 4, 5);
    let here = Some(SockName::inet(1, 1701));
    let there = Some(SockName::inet(2, 53));
    [
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
            peer_name: None,
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
        MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: 9,
            source_name: Some(SockName::unix("/tmp/a b=c")),
        }),
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 2,
            dest_name: Some(SockName::Internal(77)),
        }),
    ]
    .into_iter()
    .map(encode)
    .collect()
}

/// A descriptions file a user might have written, bent every way the
/// decoder has to follow: SEND lists its fields out of order and reads
/// `destName` as a 4-byte integer; RECEIVECALL goes by another name
/// (never typed); RECEIVE's `msgLength` is renamed away (never typed);
/// SOCKET has no `type` field (falls back to `traceType`); DUP has no
/// `sock` and reads `newSock` as one hex byte (`06` parses as 6);
/// FORK names a far `pid` before the real one (the first the record
/// can hold wins); ACCEPT swaps its two names; CONNECT's `pid` is a
/// byte field; TERMPROC is not described at all.
const BENT: &str = "\
HEADER size machine cpuTime procTime traceType
SEND 1, destName,20,4,10 msgLength,12,4,10 sock,8,4,10 pid,0,4,10
RCALL 2, pid,0,4,10 pc,4,4,10 sock,8,4,10
RECEIVE 3, pid,0,4,10 pc,4,4,10 sock,8,4,10 bytes,12,4,10 sourceName,20,16,16
SOCKET 4, pid,0,4,10 sock,8,4,10 domain,12,4,10 cpuTime,16,4,10
DUP 5, pid,0,4,10 newSock,12,1,16
DESTSOCKET 6, machine,0,4,10 pid,0,4,10 sock,8,4,10 sockLen,8,4,10
FORK 7, pid,400,4,10 pid,0,4,10 newPid,8,4,10
ACCEPT 8, pid,0,4,10 sock,8,4,10 newSock,12,4,10 peerName,24,16,16 sockName,40,16,16
CONNECT 9, pid,0,2,16 sock,8,4,10 sockName,20,16,16 peerName,36,16,16
";

/// The text route: render each record the descriptions know to its
/// log line, parse the lines back.
fn text_route(desc: &Descriptions, raws: &[Vec<u8>]) -> Trace {
    let text: String = raws
        .iter()
        .filter_map(|raw| LogRecord::from_raw(desc, raw, &[]))
        .map(|rec| format!("{rec}\n"))
        .collect();
    Trace::parse(&text)
}

fn frame_route(desc: &Descriptions, raws: &[Vec<u8>]) -> Trace {
    let frames = raws.iter().enumerate().map(|(i, raw)| Frame {
        seq: i as u64,
        ts_us: 0,
        shard: 0,
        proc: ProcId { machine: 0, pid: 0 },
        raw,
    });
    Trace::from_frames(frames, desc)
}

#[test]
fn standard_descriptions_decode_like_their_log_text() {
    let desc = Descriptions::standard();
    let raws = samples();
    let trace = frame_route(&desc, &raws);
    assert_eq!(trace, text_route(&desc, &raws));
    assert_eq!(trace.len(), raws.len(), "every sample types");
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds[..10],
        [
            "send",
            "receivecall",
            "receive",
            "socket",
            "dup",
            "destsocket",
            "fork",
            "accept",
            "connect",
            "termproc"
        ]
    );
    assert_eq!(
        trace.events[0].kind,
        EventKind::Send {
            len: 64,
            dest: Some("inet:2:53".into())
        }
    );
    // SOCKET's body `type` logs the header's `traceType` (4), as the
    // log text has it.
    assert_eq!(
        trace.events[3].kind,
        EventKind::Socket {
            domain: 2,
            sock_type: 4
        }
    );
    assert_eq!(
        trace.events[8].kind,
        EventKind::Connect {
            sock_name: Some("inet:1:1701".into()),
            peer_name: None
        }
    );
    assert_eq!(
        trace.events[10].kind,
        EventKind::Send { len: 1, dest: None }
    );
    assert_eq!(
        trace.events[11].kind,
        EventKind::Recv {
            len: 9,
            source: Some("unix:/tmp/a b=c".into())
        }
    );
}

#[test]
fn a_bent_descriptions_file_decodes_like_its_log_text() {
    let desc = Descriptions::parse(BENT).expect("descriptions parse");
    let raws = samples();
    let trace = frame_route(&desc, &raws);
    assert_eq!(trace, text_route(&desc, &raws));
    // Typed: the three sends, socket, dup, destsocket, fork, accept,
    // connect. Not typed: `rcall`, the two receives without
    // `msgLength`, the undescribed termproc.
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        [
            "send",
            "socket",
            "dup",
            "destsocket",
            "fork",
            "accept",
            "connect",
            "send",
            "send"
        ]
    );
    // `destName` read as an integer renders as digits, never `-`.
    assert!(matches!(
        &trace.events[0].kind,
        EventKind::Send { len: 64, dest: Some(d) } if d.parse::<u64>().is_ok()
    ));
    // No `type` field: the header's `traceType`.
    assert_eq!(
        trace.events[1].kind,
        EventKind::Socket {
            domain: 2,
            sock_type: 4
        }
    );
    // The hex byte `06` read as a number; no `sock` described.
    assert_eq!(trace.events[2].kind, EventKind::Dup { new_sock: 6 });
    assert_eq!(trace.events[2].sock, None);
    // A body field called `machine` logs the header's machine.
    assert_eq!(trace.events[3].proc.machine, 3);
    // The far `pid` does not fit the record; the second one does.
    assert_eq!(trace.events[4].proc.pid, 2120);
    // ACCEPT's names swapped by the description.
    assert_eq!(
        trace.events[5].kind,
        EventKind::Accept {
            new_sock: 6,
            sock_name: Some("inet:2:53".into()),
            peer_name: Some("inet:1:1701".into())
        }
    );
    // CONNECT's `pid` as two hex bytes: 2120 = 0x0848, logged `4808`.
    assert_eq!(trace.events[6].proc.pid, 4808);
}

/// Every prefix of every sample, from nothing to the whole record:
/// shorter than the header, header only, cut inside each field. The
/// decoder never panics and skips exactly the records whose log text
/// would not type.
#[test]
fn truncation_sweep_skips_what_the_text_route_skips() {
    for desc in [
        Descriptions::standard(),
        Descriptions::parse(BENT).expect("descriptions parse"),
    ] {
        for sample in samples() {
            let cuts: Vec<Vec<u8>> = (0..=sample.len()).map(|n| sample[..n].to_vec()).collect();
            assert_eq!(frame_route(&desc, &cuts), text_route(&desc, &cuts));
            // One at a time too, so a skip cannot be masked by a
            // compensating extra event elsewhere in the sweep.
            for cut in cuts {
                let one = std::slice::from_ref(&cut);
                assert_eq!(
                    frame_route(&desc, one),
                    text_route(&desc, one),
                    "{} of {} bytes",
                    cut.len(),
                    sample.len()
                );
            }
        }
    }
}

/// Hostile descriptions: offsets and lengths near `usize::MAX` must
/// read as "field absent", not overflow.
#[test]
fn hostile_offsets_are_absent_fields_not_panics() {
    let text = format!(
        "HEADER size machine cpuTime procTime traceType\n\
         SEND 1, pid,0,4,10 sock,{max},4,10 msgLength,8,{max},10 destName,{max},{max},16\n",
        max = usize::MAX
    );
    let desc = Descriptions::parse(&text).expect("descriptions parse");
    let trace = frame_route(&desc, &samples());
    // `msgLength` can never be read: no send types, nothing panics —
    // on either route.
    assert!(trace.is_empty());
    assert_eq!(trace, text_route(&desc, &samples()));
}
