//! Merging traces from several filters.
//!
//! "Many filter processes may exist simultaneously. Usually, there
//! will be a filter process created per computation." (§3.3) — so a
//! study spanning computations (or one using several filters for
//! load-spreading) holds several log files. Analyses need them as one
//! trace; the only sound interleaving key is *per-process order*, so
//! the merge concatenates logs and then stably orders events by
//! (machine, local clock, original position), which preserves each
//! process's order (its records carry non-decreasing local stamps)
//! without pretending cross-machine stamps are comparable.

use crate::trace::{Event, Trace};

/// Merges several traces into one.
///
/// Events of any single process keep their relative order; events of
/// different machines are arranged by their (incomparable but
/// display-friendly) local stamps. The result's `idx` fields are
/// renumbered.
pub(crate) fn merge_traces(traces: Vec<Trace>) -> Trace {
    let mut events: Vec<(usize, Event)> = Vec::new();
    for t in traces {
        for e in t.events {
            events.push((events.len(), e));
        }
    }
    // Stable order: machine, then local clock, then original position
    // (which keeps per-process FIFO for equal stamps).
    events.sort_by_key(|(pos, e)| (e.proc.machine, e.cpu_time, *pos));
    let mut out = Trace::default();
    for (i, (_, mut e)) in events.into_iter().enumerate() {
        e.idx = i;
        out.events.push(e);
    }
    out
}

/// Parses and merges several filter logs.
pub fn merge_logs<'a>(logs: impl IntoIterator<Item = &'a str>) -> Trace {
    merge_traces(logs.into_iter().map(Trace::parse).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Pairing;
    use crate::trace::EventKind;

    const LOG_A: &str = "\
event=send machine=0 cpuTime=10 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=5 destName=inet:1:9
event=send machine=0 cpuTime=20 procTime=0 traceType=1 pid=1 pc=2 sock=1 msgLength=5 destName=inet:1:9
";
    const LOG_B: &str = "\
event=receive machine=1 cpuTime=15 procTime=0 traceType=3 pid=2 pc=1 sock=2 msgLength=5 sourceName=inet:0:1024
event=receive machine=1 cpuTime=25 procTime=0 traceType=3 pid=2 pc=2 sock=2 msgLength=5 sourceName=inet:0:1024
";

    #[test]
    fn merged_logs_pair_across_files() {
        let t = merge_logs([LOG_A, LOG_B]);
        assert_eq!(t.len(), 4);
        let p = Pairing::analyze(&t);
        assert_eq!(
            p.messages.len(),
            2,
            "sends in one log match receives in the other"
        );
        assert!(p.unmatched_sends.is_empty());
    }

    #[test]
    fn per_process_order_is_preserved() {
        let t = merge_logs([LOG_B, LOG_A]); // reversed file order
        let sends: Vec<u32> = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .map(|e| e.cpu_time)
            .collect();
        assert_eq!(sends, vec![10, 20], "process 1's order kept");
        // idx renumbered densely.
        for (i, e) in t.events.iter().enumerate() {
            assert_eq!(e.idx, i);
        }
    }

    #[test]
    fn merging_nothing_is_empty() {
        assert!(merge_logs([]).is_empty());
        assert!(merge_traces(vec![]).is_empty());
    }
}
