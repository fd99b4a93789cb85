//! Property-based tests of the controller↔daemon protocol: arbitrary
//! well-formed messages (retry-tagged ones too) round-trip; every cut
//! of one is refused; arbitrary bytes, a flipped byte or a hostile word
//! never panic the decoders; a tag in a tag is refused.

use dpm_meter::MeterFlags;
use dpm_meterd::{frame_len, Reply, Request, RpcStatus};
use dpm_simos::Pid;
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/._-]{0,40}"
}

/// Any request: a plain one, or a plain one in a retry tag.
fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        3 => arb_plain_request(),
        1 => (any::<u64>(), arb_plain_request()).prop_map(|(req_id, inner)| Request::Tagged {
            req_id,
            inner: Box::new(inner),
        }),
    ]
}

/// Whether the daemon accepts `req`: every filter description in it
/// passes its validator.
fn valid(req: &Request) -> bool {
    match req {
        Request::CreateFilter { spec } => spec.validate().is_ok(),
        Request::Tagged { inner, .. } => valid(inner),
        _ => true,
    }
}

fn arb_plain_request() -> impl Strategy<Value = Request> {
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
        if valid(&req) {
            prop_assert_eq!(Request::decode(&wire).expect("decode"), req);
        } else {
            prop_assert!(Request::decode(&wire).is_err(), "decoded invalid {:?}", req);
        }
    }

    #[test]
    fn a_tag_in_a_tag_is_refused(req in arb_request(), outer in any::<u64>()) {
        let inner = match req {
            tagged @ Request::Tagged { .. } => tagged,
            plain => Request::Tagged { req_id: outer, inner: Box::new(plain) },
        };
        let double = Request::Tagged { req_id: outer, inner: Box::new(inner) };
        let err = Request::decode(&double.encode()).expect_err("a tag in a tag");
        // An invalid filter description is refused first, from within.
        let named = err.to_string().contains("nested tagged");
        prop_assert!(named || !valid(&double), "{}", err);
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
    fn truncation_is_an_error(req in arb_request(), rep in arb_reply()) {
        // Every proper prefix of the frame, the empty one included.
        let wire = req.encode();
        for keep in 0..wire.len() {
            prop_assert!(Request::decode(&wire[..keep]).is_err(), "request cut to {}", keep);
        }
        let wire = rep.encode();
        for keep in 0..wire.len() {
            prop_assert!(Reply::decode(&wire[..keep]).is_err(), "reply cut to {}", keep);
        }
    }

    #[test]
    fn a_flipped_byte_is_decoded_or_refused(
        req in arb_request(),
        rep in arb_reply(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        for mut wire in [req.encode(), rep.encode()] {
            let at = at % wire.len();
            wire[at] ^= mask;
            // `Ok` or `Err`, never a panic.
            let _ = Request::decode(&wire);
            let _ = Reply::decode(&wire);
        }
    }
}
