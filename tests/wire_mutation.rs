//! One mutation sweep over every wire decoder.
//!
//! Each pinned sample of `wire_samples` is cut to every shorter length,
//! has every single bit flipped, and has every `u32`-sized window
//! forced to `0`, `len + 1`, `0x7fff_ffff` and `0xffff_ffff` (which
//! covers every length and count field without knowing where they
//! are). No decoder may panic (debug build: overflow checks are on) or
//! make one allocation out of proportion to its input; a cut message,
//! a flipped bit under a CRC and a hostile value in a true length or
//! count field must be refused.

mod wire_samples;

use dpm::crates::controlplane::ControlEvent;
use dpm::crates::logstore::format::{decode_frame, decode_seg_header};
use dpm::crates::logstore::index::SegmentIndex;
use dpm::crates::meter::{MeterDecoder, MeterMsg};
use dpm::crates::meterd::{Reply, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wire_samples::unhex;

thread_local! {
    /// `Some(largest request so far)` while this thread is measuring.
    /// Const-initialised and without a destructor, so touching it
    /// never allocates.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Measuring;

impl Measuring {
    fn note(size: usize) {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = LARGEST.try_with(|c| c.set(c.get().map(|n| n.max(size))));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Measuring::note(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Measuring::note(new_size);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Measuring = Measuring;

/// Runs `decode` over `wire`; returns whether it accepted the bytes,
/// after checking that no single allocation exceeded a small multiple
/// of the input (plus a floor for fixed-size nodes and error texts).
fn accepts(what: &str, wire: &[u8], decode: &dyn Fn(&[u8]) -> bool) -> bool {
    LARGEST.with(|c| c.set(Some(0)));
    let ok = decode(wire);
    let largest = LARGEST.with(|c| c.replace(None)).expect("measuring was on");
    let bound = 8 * wire.len() + 1024;
    assert!(
        largest <= bound,
        "{what}: one allocation of {largest} bytes decoding {} bytes",
        wire.len()
    );
    ok
}

/// The sweep over one sample. `sealed` says a checksum covers the
/// bytes, so every bit flip must be refused; `lengths` are the offsets
/// of true length and count fields, where every hostile value but `0`
/// must be refused.
fn sweep(what: &str, wire: &[u8], sealed: bool, lengths: &[usize], decode: &dyn Fn(&[u8]) -> bool) {
    assert!(accepts(what, wire, decode), "{what}: the sample itself");
    for cut in 0..wire.len() {
        let ok = accepts(what, &wire[..cut], decode);
        assert!(!ok, "{what}: accepted when cut to {cut} bytes");
    }
    for bit in 0..wire.len() * 8 {
        let mut bad = wire.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        let ok = accepts(what, &bad, decode);
        assert!(!(ok && sealed), "{what}: accepted with bit {bit} flipped");
    }
    let hostile = [0, wire.len() as u32 + 1, 0x7fff_ffff, 0xffff_ffff];
    for at in 0..wire.len().saturating_sub(3) {
        for v in hostile {
            let mut bad = wire.to_vec();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            let ok = accepts(what, &bad, decode);
            let refused = v != 0 && lengths.contains(&at);
            assert!(!(ok && refused), "{what}: accepted {v:#x} at offset {at}");
        }
    }
}

#[test]
fn meter_messages() {
    for (name, _, hex) in wire_samples::meter_msgs() {
        // No length inside a meter message but its own size.
        let what = format!("meter / {name}");
        sweep(&what, &unhex(hex), false, &[0], &|b| {
            let streamed = MeterDecoder::new(b).all(|r| r.is_ok_and(|r| r.to_msg().is_ok()));
            MeterMsg::decode(b).is_ok() && streamed
        });
    }
}

#[test]
fn requests_and_replies() {
    for (name, _, hex) in wire_samples::requests() {
        // Offsets of string and byte-field lengths and element counts.
        let lengths: &[usize] = match name {
            "create" => &[8, 18, 22, 27, 37, 53, 67],
            "create filter" => &[16, 35, 56, 72, 97],
            "acquire" => &[16, 32],
            "acquire many" => &[8, 28, 44],
            "get file" | "list files" => &[8],
            "write file" => &[8, 18],
            "send input" | "io data" => &[12],
            "tagged" => &[16],
            _ => &[],
        };
        let what = format!("request / {name}");
        sweep(&what, &unhex(hex), false, lengths, &|b| {
            Request::decode(b).is_ok()
        });
    }
    for (name, _, hex) in wire_samples::replies() {
        let lengths: &[usize] = match name {
            "file" | "acquire many" => &[12],
            "file list" => &[12, 16, 27],
            _ => &[],
        };
        let what = format!("reply / {name}");
        sweep(&what, &unhex(hex), false, lengths, &|b| {
            Reply::decode(b).is_ok()
        });
    }
}

#[test]
fn control_events() {
    for (name, _, hex) in wire_samples::control_events() {
        // Every event opens with a string, at offset 9.
        let what = format!("control / {name}");
        sweep(&what, &unhex(hex), false, &[9], &|b| {
            ControlEvent::decode(b).is_ok()
        });
    }
}

#[test]
fn store_frame_segment_header_and_index() {
    let frame = unhex(wire_samples::store_frame().2);
    sweep("store frame", &frame, true, &[0], &|b| {
        decode_frame(b, 0).is_some()
    });
    let header = unhex(wire_samples::seg_header().2);
    sweep("segment header", &header, false, &[], &|b| {
        decode_seg_header(b).is_some()
    });
    // Sparse count, posting count, each posting's offset count.
    let index = unhex(wire_samples::segment_index().2);
    sweep("segment index", &index, false, &[32, 76, 88, 108], &|b| {
        SegmentIndex::decode(b).is_some()
    });
}
