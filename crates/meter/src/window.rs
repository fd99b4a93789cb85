//! The monitor's one record deduplicator.
//!
//! The kernel meter stamps each record with a per-process sequence
//! number in the header word the paper leaves unused, starting at 1
//! (§3.2's flush-at-termination makes delivery at-least-once: a
//! retransmitted flush replays records already delivered). Every stage
//! that must not count a record twice — the filter engine, the filter
//! tree's aggregate merge, the live trace — asks one [`SeqWindow`].
//!
//! The window is RFC 4303 §3.4.3's anti-replay window, one per
//! `(machine, pid)`: the highest accepted `seq` plus a bitmap of the
//! [`SeqWindow::WIDTH`] seqs ending at it. Per process that is 16 bytes,
//! however many records pass.
//!
//! Width 64 is exact on every stream the monitor produces. A meter
//! connection (and an edge's one upstream connection per meter
//! connection) delivers each process's records in order, so a seq at or
//! below the high mark is always a replay; and across the children of
//! a filter tree a process's skew stays far below 64 records.

/// A per-process anti-replay window over meter sequence numbers.
///
/// # Example
///
/// ```
/// use dpm_meter::SeqWindow;
///
/// let mut w = SeqWindow::default();
/// assert!(w.admit(1, 2117, 2));
/// assert!(w.admit(1, 2117, 1), "late, but inside the window");
/// assert!(!w.admit(1, 2117, 1), "a replay");
/// assert!(w.admit(1, 2117, 0) && w.admit(1, 2117, 0), "unsequenced");
/// assert!(w.admit(1, 2117, 100));
/// assert!(!w.admit(1, 2117, 3), "older than the window: refused");
/// assert_eq!(w.stale(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SeqWindow {
    /// Per process: the high mark, and a bitmap whose bit `i` is
    /// `high - i`.
    procs: std::collections::HashMap<(u16, u32), (u32, u64)>,
    stale: u64,
}

impl SeqWindow {
    /// Seqs tracked per process, the high mark included.
    pub const WIDTH: u32 = u64::BITS;

    /// Whether the record `(machine, pid, seq)` is new. `seq == 0`
    /// (unsequenced) and `pid == 0` (no readable pid) are admitted and
    /// not tracked. A seq older than the window is refused and counted
    /// as [`stale`](SeqWindow::stale).
    pub fn admit(&mut self, machine: u16, pid: u32, seq: u32) -> bool {
        if seq == 0 || pid == 0 {
            return true;
        }
        let (high, seen) = self.procs.entry((machine, pid)).or_default();
        if seq > *high {
            *seen = seen.checked_shl(seq - *high).unwrap_or(0) | 1;
            *high = seq;
            true
        } else if *high - seq >= Self::WIDTH {
            self.stale += 1;
            false
        } else {
            // New iff its bit was clear before this arrival set it.
            let bit = 1 << (*high - seq);
            std::mem::replace(seen, *seen | bit) & bit == 0
        }
    }

    /// Records refused because they fell behind the window.
    pub fn stale(&self) -> u64 {
        self.stale
    }
}
