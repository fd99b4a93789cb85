//! A kept record that goes to a raw-bytes sink costs framing, dedup
//! and the rules — and not one heap allocation. Counted with a
//! `#[global_allocator]` that tallies the calls the measuring thread
//! makes inside `allocations_in`.

use dpm_filter::{Descriptions, FilterEngine, FilterStats, Rules};
use dpm_meter::{
    MeterAccept, MeterBody, MeterHeader, MeterMsg, MeterRecvMsg, MeterSendMsg, SockName,
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

const PROCS: u32 = 16;
const ROUNDS: u32 = 64;

/// `ROUNDS` records from each of `PROCS` processes, three record
/// shapes, sequence numbers continuing from `first_seq` — so a second
/// pass is new records to the dedup, with every frame boundary where
/// the first pass had it.
fn wire(first_seq: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        for p in 0..PROCS {
            let (pid, pc, sock) = (100 + p, round, 3);
            let peer = Some(SockName::inet(p % 4, 1701));
            let body = match round % 3 {
                0 => MeterBody::Send(MeterSendMsg {
                    pid,
                    pc,
                    sock,
                    msg_length: 64 + round,
                    dest_name: None,
                }),
                1 => MeterBody::Recv(MeterRecvMsg {
                    pid,
                    pc,
                    sock,
                    msg_length: 64 + round,
                    source_name: peer,
                }),
                _ => MeterBody::Accept(MeterAccept {
                    pid,
                    pc,
                    sock,
                    new_sock: 4,
                    sock_name: Some(SockName::inet(9, 80)),
                    peer_name: peer,
                }),
            };
            MeterMsg {
                header: MeterHeader {
                    size: 0,
                    machine: (p % 4) as u16,
                    cpu_time: round,
                    seq: first_seq + round,
                    proc_time: 0,
                    trace_type: body.trace_type(),
                },
                body,
            }
            .encode_into(&mut out);
        }
    }
    out
}

/// Feeds `wire` in chunks that split frames, copying every kept
/// record's bytes into `sink`; returns the allocations that took.
fn feed_counted(engine: &mut FilterEngine, wire: &[u8], sink: &mut Vec<u8>) -> u64 {
    allocations_in(|| {
        for chunk in wire.chunks(1000) {
            engine.feed_records(chunk, &mut |view, _rec| {
                sink.extend_from_slice(view.bytes())
            });
        }
    })
}

fn steady_state(rules: Rules) -> (u64, FilterStats, Vec<u8>) {
    let (first, second) = (wire(1), wire(1 + ROUNDS));
    let mut sink = Vec::with_capacity(first.len() + second.len());
    let mut engine = FilterEngine::new(Descriptions::standard(), rules);
    // The first pass grows the dedup map and the carry buffer to size.
    feed_counted(&mut engine, &first, &mut sink);
    sink.clear();
    let allocs = feed_counted(&mut engine, &second, &mut sink);
    assert_eq!(engine.pending_bytes(), 0);
    (allocs, engine.stats(), sink)
}

/// One `#[test]` on purpose: the count is per thread, but one test per
/// binary keeps even the harness quiet while it runs.
#[test]
fn a_kept_record_to_a_raw_sink_allocates_nothing() {
    // The counter does count: a `Vec` with room for one byte is one call.
    let one = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1))));
    assert_eq!(one, 1);

    let n = u64::from(PROCS * ROUNDS);
    let (allocs, stats, sink) = steady_state(Rules::default());
    assert_eq!((stats.seen, stats.kept), (2 * n, 2 * n));
    assert_eq!(sink, wire(1 + ROUNDS), "the sink holds the bytes verbatim");
    assert_eq!(allocs, 0, "{allocs} allocations for {n} kept records");

    // Integer templates: some records kept, some rejected, still none.
    let rules = Rules::parse("machine=1, msgLength>=80\ntype=8, pid<108").expect("rules parse");
    let (allocs, stats, _) = steady_state(rules);
    assert!(stats.kept > 0 && stats.rejected > 0, "{stats:?}");
    assert_eq!(stats.kept + stats.rejected, 2 * n);
    assert_eq!(allocs, 0, "{allocs} allocations under integer templates");
}
