//! Writing a §3.4 line costs no heap allocation of its own, and a
//! [`LogRecord`] is one allocation: its line. Counted with the
//! `#[global_allocator]` of `ingest_allocs.rs`, which tallies the calls
//! the measuring thread makes inside `allocations_in`.

use dpm_filter::{Descriptions, KeptRecord, LogRecord};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFork, MeterHeader,
    MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName,
    TermReason,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

thread_local! {
    /// `Some(n)` while this thread is counting. Const-initialised and
    /// without a destructor, so touching it never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn note() {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note();
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.replace(None)).expect("counting was on")
}

const N: u32 = 256;

/// Record `i` of one of each Appendix-A type, its names inet or blank
/// (every other record), its integers growing with `i`.
fn record(trace_type: u32, i: u32) -> Vec<u8> {
    let (pid, pc, sock) = (100 + i, i * 7, 3 + i % 5);
    let name = |host| {
        i.is_multiple_of(2)
            .then(|| SockName::inet(host, 1701 + i as u16))
    };
    let body = match trace_type {
        1 => MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: i,
            dest_name: name(2),
        }),
        2 => MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
        3 => MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: i,
            source_name: name(1),
        }),
        4 => MeterBody::SockCrt(MeterSockCrt {
            pid,
            pc,
            sock,
            domain: 2,
            sock_type: 1,
            protocol: i,
        }),
        5 => MeterBody::Dup(MeterDup {
            pid,
            pc,
            sock,
            new_sock: i,
        }),
        6 => MeterBody::DestSock(MeterDestSock { pid, pc, sock }),
        7 => MeterBody::Fork(MeterFork {
            pid,
            pc,
            new_pid: pid + 1,
        }),
        8 => MeterBody::Accept(MeterAccept {
            pid,
            pc,
            sock,
            new_sock: i,
            sock_name: name(1),
            peer_name: name(2),
        }),
        9 => MeterBody::Connect(MeterConnect {
            pid,
            pc,
            sock,
            sock_name: name(2),
            peer_name: name(1),
        }),
        _ => MeterBody::TermProc(MeterTermProc {
            pid,
            pc,
            reason: TermReason::Normal,
        }),
    };
    MeterMsg {
        header: MeterHeader {
            size: 0,
            machine: (i % 4) as u16,
            cpu_time: i * 1000,
            seq: i,
            proc_time: u32::MAX - i,
            trace_type,
        },
        body,
    }
    .encode()
}

/// One `#[test]` on purpose: the count is per thread, but one test per
/// binary keeps even the harness quiet while it runs.
#[test]
fn a_line_allocates_nothing_and_a_log_record_once() {
    // The counter does count: a `Vec` with room for one byte is one call.
    let one = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1))));
    assert_eq!(one, 1);

    let desc = Descriptions::standard();
    let discard = ["pc".to_owned()];
    let mut out = String::with_capacity(1 << 20);
    for trace_type in 1..=10 {
        let records: Vec<Vec<u8>> = (0..N).map(|i| record(trace_type, i)).collect();
        out.clear();
        let allocs = allocations_in(|| {
            for (i, r) in records.iter().enumerate() {
                let discard = if i.is_multiple_of(2) {
                    &[][..]
                } else {
                    &discard[..]
                };
                let kept = KeptRecord::new(&desc, r, discard).expect("described");
                kept.write_to(&mut out).expect("write to String");
                out.push('\n');
            }
        });
        assert_eq!(allocs, 0, "type {trace_type}: {allocs} allocations");
        assert_eq!(out.lines().count(), N as usize);

        // The same lines through `LogRecord`: one allocation each.
        let mut again = String::with_capacity(out.len());
        let allocs = allocations_in(|| {
            for (i, r) in records.iter().enumerate() {
                let discard = if i.is_multiple_of(2) {
                    &[][..]
                } else {
                    &discard[..]
                };
                let rec = LogRecord::from_raw(&desc, r, discard).expect("described");
                writeln!(again, "{rec}").expect("write to String");
            }
        });
        assert!(
            allocs <= u64::from(N),
            "type {trace_type}: {allocs} allocations"
        );
        assert_eq!(again, out);
    }

    // A `unix:` name is written from the record's bytes, not decoded
    // into an owned name first.
    let records: Vec<Vec<u8>> = (0..N)
        .map(|i| {
            let path = SockName::unix(format!("/tmp/s{i}"));
            let body = MeterBody::Send(MeterSendMsg {
                pid: 100 + i,
                pc: i,
                sock: 3,
                msg_length: i,
                dest_name: Some(path),
            });
            let header = MeterHeader {
                trace_type: body.trace_type(),
                ..MeterHeader::default()
            };
            MeterMsg { header, body }.encode()
        })
        .collect();
    out.clear();
    let allocs = allocations_in(|| {
        for r in &records {
            let kept = KeptRecord::new(&desc, r, &[]).expect("described");
            kept.write_to(&mut out).expect("write to String");
            out.push('\n');
        }
    });
    assert_eq!(allocs, 0, "unix names: {allocs} allocations");
    assert!(
        out.lines().all(|l| l.contains("destName=unix:/tmp/s")),
        "{out}"
    );
}
