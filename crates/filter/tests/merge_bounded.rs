//! The aggregate's merge holds per-process state, not per-record
//! state: fed 8× more records with the same drain cadence, its peak
//! live heap stays where it was. Counted with a `#[global_allocator]`
//! that tallies the bytes the measuring thread holds inside
//! `peak_live_bytes`.

use dpm_filter::{MergedRecord, TreeMerge};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some((live, peak))` while this thread is counting. Const-
    /// initialised and without a destructor, so touching it never
    /// allocates.
    static LIVE: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn note(delta: isize) {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = LIVE.try_with(|c| {
            c.set(
                c.get()
                    .map(|(live, peak)| (live + delta, peak.max(live + delta))),
            );
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap `f` held at once on this thread, over what it held
/// when `f` began.
fn peak_live_bytes(f: impl FnOnce()) -> isize {
    LIVE.with(|c| c.set(Some((0, 0))));
    f();
    LIVE.with(|c| c.replace(None)).expect("counting was on").1
}

const PROCS: u32 = 64;
/// The drain threshold `pipeline_bench`'s merge layer uses.
const DRAIN_BYTES: usize = 256 * 1024;

/// `records` sequenced records, round-robin over `PROCS` processes on
/// four machines, each the size of a wire send record, through one
/// merge drained every `DRAIN_BYTES`.
fn merge(records: u32) {
    let mut merge = TreeMerge::new();
    for n in 0..records {
        let p = n % PROCS;
        let rec = MergedRecord {
            raw: vec![p as u8; 60],
            line: String::new(),
        };
        assert!(merge.insert((p % 4) as u16, 2117 + p, 1 + n / PROCS, rec));
        if merge.pending_bytes() >= DRAIN_BYTES {
            drop(merge.drain());
        }
    }
    assert_eq!(merge.duplicates(), 0);
}

/// One `#[test]` on purpose: the tally is per thread, but one test per
/// binary keeps even the harness quiet while it runs.
#[test]
fn merge_memory_does_not_grow_with_records() {
    let small = peak_live_bytes(|| merge(32 * 1024));
    let large = peak_live_bytes(|| merge(256 * 1024));
    assert!(small > DRAIN_BYTES as isize, "the tally counts: {small} B");
    assert!(
        large as f64 <= 1.1 * small as f64,
        "peak live bytes grew with the record count: {small} B at 32 k, {large} B at 256 k"
    );
}
