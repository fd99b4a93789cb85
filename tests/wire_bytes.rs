//! Every wire surface, held to literal bytes: Appendix-A meter
//! messages, the Fig. 3.6 daemon RPC, the control log's `ControlEvent`s
//! and the log store's frames, segment headers and `.idx` sidecars. A
//! round-trip test cannot see an encoder and its decoder drifting
//! together; these literals, taken from the encoders at `ad34487`, can.
//! Each sample must encode to exactly its literal and the literal must
//! decode to exactly the sample.

mod wire_samples;

use dpm::crates::controlplane::ControlEvent;
use dpm::crates::logstore::format::{
    decode_frame, decode_seg_header, encode_frame, encode_seg_header, SegHeader,
};
use dpm::crates::logstore::index::SegmentIndex;
use dpm::crates::meter::MeterMsg;
use dpm::crates::meterd::{Reply, Request};
use wire_samples::{unhex, Sample};

fn pinned<T, E>(
    surface: &str,
    samples: Vec<Sample<T>>,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) where
    T: PartialEq + std::fmt::Debug,
    E: std::fmt::Debug,
{
    for (name, value, hex) in samples {
        let want = unhex(hex);
        assert_eq!(encode(&value), want, "{surface} / {name}: encoding");
        let back = decode(&want).unwrap_or_else(|e| panic!("{surface} / {name}: {e:?}"));
        assert_eq!(back, value, "{surface} / {name}: decoding");
    }
}

#[test]
fn appendix_a_meter_messages() {
    pinned(
        "meter",
        wire_samples::meter_msgs(),
        MeterMsg::encode,
        |wire| {
            let (mut msg, used) = MeterMsg::decode(wire)?;
            assert_eq!(used, wire.len());
            // `encode` derives the size; the samples leave it 0.
            assert_eq!(msg.header.size as usize, wire.len());
            msg.header.size = 0;
            Ok::<_, dpm::crates::meter::DecodeError>(msg)
        },
    );
}

#[test]
fn fig_3_6_requests_and_replies() {
    pinned(
        "request",
        wire_samples::requests(),
        Request::encode,
        Request::decode,
    );
    pinned(
        "reply",
        wire_samples::replies(),
        Reply::encode,
        Reply::decode,
    );
}

#[test]
fn control_events() {
    pinned(
        "control event",
        wire_samples::control_events(),
        ControlEvent::encode,
        ControlEvent::decode,
    );
}

#[test]
fn store_frame_segment_header_and_index() {
    let (_, (env, raw), hex) = wire_samples::store_frame();
    let want = unhex(hex);
    let mut out = Vec::new();
    assert_eq!(encode_frame(&mut out, &env, &raw), want.len());
    assert_eq!(out, want, "store frame: encoding");
    let decoded = decode_frame(&want, 0).expect("store frame decodes");
    assert_eq!(decoded, (env, &raw[..], want.len()));

    let (_, (shard, base_seq, created_us), hex) = wire_samples::seg_header();
    let want = unhex(hex);
    let header = encode_seg_header(shard, base_seq, created_us);
    assert_eq!(header[..], want[..], "segment header: encoding");
    let decoded = SegHeader {
        shard,
        base_seq,
        created_us,
    };
    assert_eq!(decode_seg_header(&want), Some(decoded));

    let (_, index, hex) = wire_samples::segment_index();
    let want = unhex(hex);
    assert_eq!(index.encode(), want, "segment index: encoding");
    assert_eq!(SegmentIndex::decode(&want), Some(index));
}
