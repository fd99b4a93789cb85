//! Property-based tests of the controller↔daemon protocol: arbitrary
//! well-formed messages round-trip; arbitrary bytes never panic the
//! decoders.

use dpm_meter::MeterFlags;
use dpm_meterd::{frame_len, Reply, Request, RpcStatus};
use dpm_simos::Pid;
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/._-]{0,40}"
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_string(),
            proptest::collection::vec(arb_string(), 0..5),
            any::<u16>(),
            arb_string(),
            any::<u32>(),
            any::<u16>(),
            arb_string(),
            any::<bool>(),
            proptest::option::of("[a-z/._-]{1,30}"),
        )
            .prop_map(
                |(
                    filename,
                    params,
                    filter_port,
                    filter_host,
                    flags,
                    control_port,
                    control_host,
                    redirect_io,
                    stdin_file,
                )| {
                    Request::Create {
                        filename,
                        params,
                        filter_port,
                        filter_host,
                        meter_flags: MeterFlags::from_bits(flags),
                        control_port,
                        control_host,
                        redirect_io,
                        stdin_file,
                    }
                }
            ),
        (
            arb_string(),
            any::<u16>(),
            arb_string(),
            arb_string(),
            arb_string(),
            0u32..16,
            0u32..3,
            prop_oneof![
                Just(String::new()),
                Just("hub:4900".to_owned()),
                arb_string()
            ],
        )
            .prop_map(
                |(filterfile, port, logfile, descriptions, templates, shards, role, upstream)| {
                    // Any field combination, valid or not: decode must
                    // return exactly the ones the validator allows.
                    Request::CreateFilter {
                        spec: dpm_filter::FilterArgs {
                            filterfile,
                            port,
                            logfile,
                            descriptions,
                            templates,
                            shards,
                            role: match role {
                                0 => dpm_filter::FilterRole::Leaf,
                                1 => dpm_filter::FilterRole::Edge,
                                _ => dpm_filter::FilterRole::Aggregate,
                            },
                            upstream,
                        },
                    }
                }
            ),
        (any::<u32>(), any::<u32>()).prop_map(|(p, f)| Request::SetFlags {
            pid: Pid(p),
            flags: MeterFlags::from_bits(f),
        }),
        any::<u32>().prop_map(|p| Request::Start { pid: Pid(p) }),
        any::<u32>().prop_map(|p| Request::Stop { pid: Pid(p) }),
        any::<u32>().prop_map(|p| Request::Kill { pid: Pid(p) }),
        arb_string().prop_map(|path| Request::GetFile { path }),
        any::<u32>().prop_map(|p| Request::ClearMeter { pid: Pid(p) }),
        (arb_string(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(path, data)| Request::WriteFile { path, data }),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..100))
            .prop_map(|(p, data)| Request::SendInput { pid: Pid(p), data }),
        (any::<u32>(), 0u32..3).prop_map(|(p, s)| Request::StateChange {
            pid: Pid(p),
            state: s,
        }),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..100))
            .prop_map(|(p, data)| Request::IoData { pid: Pid(p), data }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<u32>(), 0u32..8).prop_map(|(p, s)| Reply::Create {
            pid: Pid(p),
            status: RpcStatus::from(s),
        }),
        (0u32..8).prop_map(|s| Reply::Ack {
            status: RpcStatus::from(s)
        }),
        (0u32..8, proptest::collection::vec(any::<u8>(), 0..300)).prop_map(|(s, data)| {
            Reply::File {
                status: RpcStatus::from(s),
                data,
            }
        }),
    ]
}

proptest! {
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let wire = req.encode();
        prop_assert_eq!(frame_len(&wire), Some(wire.len()));
        match &req {
            Request::CreateFilter { spec } if spec.validate().is_err() => {
                prop_assert!(Request::decode(&wire).is_err(), "decoded invalid {:?}", spec);
            }
            _ => prop_assert_eq!(Request::decode(&wire).expect("decode"), req),
        }
    }

    #[test]
    fn replies_round_trip(rep in arb_reply()) {
        let wire = rep.encode();
        prop_assert_eq!(frame_len(&wire), Some(wire.len()));
        prop_assert_eq!(Reply::decode(&wire).expect("decode"), rep);
    }

    #[test]
    fn decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        req in arb_request(),
        rep in arb_reply(),
        at in any::<usize>(),
        word in any::<u32>(),
    ) {
        // Arbitrary bytes, and valid messages with one word overwritten
        // (a hostile length, count, port or type number).
        let hostile = |mut wire: Vec<u8>| {
            let at = at % (wire.len() - 3);
            wire[at..at + 4].copy_from_slice(&word.to_le_bytes());
            wire
        };
        for wire in [bytes, hostile(req.encode()), hostile(rep.encode())] {
            let _ = Request::decode(&wire);
            let _ = Reply::decode(&wire);
            let _ = frame_len(&wire);
        }
    }

    #[test]
    fn truncation_is_an_error(req in arb_request(), cut in 1usize..8) {
        let wire = req.encode();
        let keep = wire.len().saturating_sub(cut);
        prop_assert!(Request::decode(&wire[..keep]).is_err());
    }
}
