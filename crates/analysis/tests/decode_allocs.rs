//! The answer path's allocations, counted rather than timed: typing a
//! stored frame or a §3.4 text line allocates nothing unless the event
//! carries a socket name, and then once per name; happens-before
//! allocates a fixed handful of flat arrays, not a successor list or a
//! clock row per event. Counted with a `#[global_allocator]`
//! that tallies the calls the measuring thread makes inside
//! `allocations_in`, as `dpm-filter`'s `ingest_allocs` test does.

use dpm_analysis::{Event, EventKind, HappensBefore, MatchedMessage, Pairing, ProcKey, Trace};
use dpm_filter::{Descriptions, KeptRecord};
use dpm_logstore::{Frame, ProcId};
use dpm_meter::{
    MeterAccept, MeterBody, MeterHeader, MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg,
    SockName,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// `n` encoded records, `body(i)` each.
fn records(n: u32, body: impl Fn(u32) -> MeterBody) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let body = body(i);
            MeterMsg {
                header: MeterHeader {
                    size: 0,
                    machine: (i % 4) as u16,
                    cpu_time: i,
                    seq: i + 1,
                    proc_time: 0,
                    trace_type: body.trace_type(),
                },
                body,
            }
            .encode()
        })
        .collect()
}

/// Allocations `Trace::from_frames` makes over `raws`, and the events
/// it typed.
fn decode_counted(raws: &[Vec<u8>]) -> (u64, usize) {
    let desc = Descriptions::standard();
    let mut events = 0;
    let allocs = allocations_in(|| {
        let frames = raws.iter().map(|raw| Frame {
            seq: 0,
            ts_us: 0,
            shard: 0,
            proc: ProcId { machine: 0, pid: 0 },
            raw,
        });
        let trace = std::hint::black_box(Trace::from_frames(frames, &desc));
        events = trace.len();
        // Dropping frees, and frees are not counted.
    });
    (allocs, events)
}

/// Allocations `Trace::parse` makes over the §3.4 text of `raws`, and
/// the events it typed.
fn parse_counted(raws: &[Vec<u8>]) -> (u64, usize) {
    let desc = Descriptions::standard();
    let text: String = raws
        .iter()
        .map(|raw| format!("{}\n", KeptRecord::new(&desc, raw, &[]).expect("described")))
        .collect();
    let mut events = 0;
    let allocs = allocations_in(|| {
        let trace = std::hint::black_box(Trace::parse(&text));
        events = trace.len();
    });
    (allocs, events)
}

const N: u32 = 4096;
/// Lines of the text cases.
const LINES: usize = 256;
/// `Vec` growth from empty to `N` events: at most one call per
/// doubling.
const GROWTH: u64 = 16;

/// One `#[test]` on purpose: the count is per thread, but one test per
/// binary keeps even the harness quiet while it runs.
#[test]
fn decode_allocates_per_name_and_happens_before_per_trace() {
    // The counter does count: a `Vec` with room for one byte is one call.
    let one = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1))));
    assert_eq!(one, 1);

    // What compiling the descriptions costs, frames or no frames.
    let (compile, _) = decode_counted(&[]);

    // Stream traffic — send, receive, receivecall, no names: nothing
    // per frame beyond the event list's own amortised growth.
    let (pid, pc, sock) = (100, 1, 3);
    let stream = records(N, |i| match i % 3 {
        0 => MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 64 + i,
            dest_name: None,
        }),
        1 => MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
        _ => MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: 64 + i,
            source_name: None,
        }),
    });
    let (allocs, events) = decode_counted(&stream);
    assert_eq!(events, N as usize);
    assert!(
        allocs <= compile + GROWTH,
        "{allocs} allocations for {N} nameless frames (compile {compile})"
    );

    // Datagram sends carry one name: one allocation each.
    let dgram = records(N, |i| {
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 64,
            dest_name: Some(SockName::inet(i % 4, 53)),
        })
    });
    let (allocs, events) = decode_counted(&dgram);
    assert_eq!(events, N as usize);
    let per_name = allocs - compile;
    assert!(
        (u64::from(N)..=u64::from(N) + GROWTH).contains(&per_name),
        "{per_name} allocations for {N} one-name frames"
    );

    // Accepts carry two. (Internet names, as everywhere above: a
    // UNIX-domain name costs one more, the path `SockName::decode`
    // copies out before it is displayed.)
    let accepts = records(N, |i| {
        MeterBody::Accept(MeterAccept {
            pid,
            pc,
            sock,
            new_sock: 4,
            sock_name: Some(SockName::inet(9, 80)),
            peer_name: Some(SockName::inet(i, 1024)),
        })
    });
    let (allocs, events) = decode_counted(&accepts);
    assert_eq!(events, N as usize);
    let per_name = allocs - compile;
    assert!(
        (2 * u64::from(N)..=2 * u64::from(N) + GROWTH).contains(&per_name),
        "{per_name} allocations for {N} two-name frames"
    );

    // The text route types each line from its borrowed tokens: nameless
    // lines (`destName=-`) cost only the event list's growth, and each
    // name one allocation.
    for (shape, raws, names) in [
        ("nameless", &stream, 0),
        ("one-name", &dgram, 1),
        ("two-name", &accepts, 2),
    ] {
        let (allocs, events) = parse_counted(&raws[..LINES]);
        assert_eq!(events, LINES, "{shape}");
        let per_name = (names * LINES) as u64;
        assert!(
            (per_name..=per_name + GROWTH).contains(&allocs),
            "{allocs} allocations for {LINES} {shape} lines"
        );
    }

    // Happens-before over events that share no process and no message,
    // then over ping-pong traffic — a matched message every other
    // event, among 2 and among 64 processes, so a per-event successor
    // list or clock row would show. Four times the
    // events must not cost four times the allocations: only the
    // process map's and the process list's few doublings.
    let lone_events = |n: u32| {
        let trace = Trace {
            events: (0..n)
                .map(|i| event(i, ProcKey { machine: i, pid: 1 }, EventKind::RecvCall))
                .collect(),
        };
        (trace, Pairing::default())
    };
    let ping_pong = |procs: u32| {
        move |n: u32| {
            let proc = |k: u32| ProcKey {
                machine: k % procs,
                pid: 1,
            };
            let mut pairing = Pairing::default();
            let events = (0..n)
                .map(|i| {
                    let hop = i / 2;
                    if i % 2 == 0 {
                        let (len, dest) = (8, None);
                        event(i, proc(hop), EventKind::Send { len, dest })
                    } else {
                        pairing.messages.push(MatchedMessage {
                            send_idx: i as usize - 1,
                            recv_idx: i as usize,
                            from: proc(hop),
                            to: proc(hop + 1),
                            bytes: 8,
                        });
                        let (len, source) = (8, None);
                        event(i, proc(hop + 1), EventKind::Recv { len, source })
                    }
                })
                .collect();
            (Trace { events }, pairing)
        }
    };
    let build_counted = |make: Shape, n: u32| {
        let (trace, pairing) = make(n);
        allocations_in(|| drop(std::hint::black_box(HappensBefore::build(&trace, &pairing))))
    };
    let shapes: [(&str, Shape); 3] = [
        ("edge-free", &lone_events),
        ("2-process ping-pong", &ping_pong(2)),
        ("64-process ping-pong", &ping_pong(64)),
    ];
    for (shape, make) in shapes {
        let (small, large) = (build_counted(make, 64), build_counted(make, 256));
        assert!(
            large <= small + 24,
            "{shape}: {small} allocations for 64 events, {large} for 256"
        );
    }
}

/// Makes a happens-before input of `n` events.
type Shape<'a> = &'a dyn Fn(u32) -> (Trace, Pairing);

/// Event `i` of `proc`, stamped zero.
fn event(i: u32, proc: ProcKey, kind: EventKind) -> Event {
    Event {
        idx: i as usize,
        proc,
        cpu_time: 0,
        proc_time: 0,
        sock: None,
        kind,
    }
}
