//! The kernel's emit path — `MeterMsg::encode_into` into the process's
//! meter buffer, once per metered event — clones nothing and allocates
//! nothing: every Appendix-A body, with each form of name and none, is
//! laid down into a reused buffer at 0 allocations. Counted with a
//! `#[global_allocator]` that tallies the calls the measuring thread
//! makes inside `allocations_in`.

use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFork, MeterHeader,
    MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName,
    TermReason, MAX_METER_MSG,
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

/// Every Appendix-A body, its names all `name`.
fn bodies(name: &Option<SockName>) -> Vec<MeterBody> {
    let (pid, pc, sock) = (2120, 0x452, 4);
    vec![
        MeterBody::Send(MeterSendMsg {
            pid,
            pc,
            sock,
            msg_length: 128,
            dest_name: name.clone(),
        }),
        MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
        MeterBody::Recv(MeterRecvMsg {
            pid,
            pc,
            sock,
            msg_length: 64,
            source_name: name.clone(),
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
            new_sock: 9,
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
            new_sock: 9,
            sock_name: name.clone(),
            peer_name: name.clone(),
        }),
        MeterBody::Connect(MeterConnect {
            pid,
            pc,
            sock,
            sock_name: name.clone(),
            peer_name: name.clone(),
        }),
        MeterBody::TermProc(MeterTermProc {
            pid,
            pc,
            reason: TermReason::Killed,
        }),
    ]
}

/// One `#[test]` on purpose: the count is per thread, but one test per
/// binary keeps even the harness quiet while it runs.
#[test]
fn encoding_into_a_reused_buffer_allocates_nothing() {
    // The counter does count: a `Vec` with room for one byte is one call.
    let one = allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(1))));
    assert_eq!(one, 1);

    let names = [
        Some(SockName::inet(0x0d9d_020c, 1701)),
        Some(SockName::unix("/tmp/f1")),
        Some(SockName::Internal(0x0102_0304_0506_0708)),
        None,
    ];
    let mut buf = Vec::with_capacity(MAX_METER_MSG);
    for name in &names {
        for body in bodies(name) {
            let msg = MeterMsg {
                header: MeterHeader {
                    machine: 5,
                    cpu_time: 9_999,
                    seq: 7,
                    proc_time: 40,
                    ..MeterHeader::default()
                },
                body,
            };
            let want = msg.encode();
            for _ in 0..4 {
                buf.clear();
                let mut len = 0;
                let allocs = allocations_in(|| len = msg.encode_into(&mut buf));
                assert_eq!(allocs, 0, "{msg:?}: {allocs} allocations");
                assert_eq!((len, &buf[..]), (want.len(), &want[..]));
            }
        }
    }
}
