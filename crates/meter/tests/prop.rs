//! Property-based tests: every well-formed meter message round-trips
//! through the Appendix-A wire format, and the decoder never panics on
//! arbitrary bytes.

use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDecoder, MeterDestSock, MeterDup, MeterFork,
    MeterHeader, MeterMsg, MeterRecord, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt,
    MeterTermProc, SockName, TermReason,
};
use proptest::prelude::*;

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
