//! The flight recorder: a fixed-capacity ring of recent internal
//! events, dumped as a causal timeline when an invariant checker
//! fails or a component panics.
//!
//! Counters say *how often*; the flight recorder says *in what
//! order*. Components note milestone events (a segment sealed, an RPC
//! gave up, a partition opened) as they happen; the ring keeps the
//! most recent [`FlightRecorder::capacity`] of them and forgets the
//! rest. Nothing is written anywhere until [`dump_failure`] fires.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the telemetry epoch ([`crate::now_us`]).
    pub at_us: u64,
    /// Pipeline component that noted the event (`meterd`, `store`, ...).
    pub component: String,
    /// Instance label — machine, link, or shard (may be empty).
    pub label: String,
    /// What happened.
    pub what: String,
}

/// A bounded ring buffer of [`FlightEvent`]s.
///
/// A mutex is fine here: events are milestones (seals, retries,
/// faults), not per-record traffic, so contention is negligible and
/// the ordering guarantee a lock gives makes the dumped timeline
/// trustworthy.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
}

/// Default ring capacity — enough to cover the tail of any chaos run.
pub(crate) const FLIGHT_CAPACITY: usize = 1024;

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `cap` events.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an event, evicting the oldest at capacity.
    pub(crate) fn note(&self, component: &str, label: &str, what: impl Into<String>) {
        if !crate::enabled() {
            return;
        }
        let ev = FlightEvent {
            at_us: crate::now_us(),
            component: component.to_string(),
            label: label.to_string(),
            what: what.into(),
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether nothing has been noted (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the timeline as text: a header with `reason`, then one
    /// `+<t>us component[label] what` line per event, oldest first.
    pub(crate) fn render(&self, reason: &str) -> String {
        let ring = self.ring.lock().unwrap();
        let mut out = String::new();
        out.push_str(&format!(
            "=== flight recorder: {} ({} events) ===\n",
            reason,
            ring.len()
        ));
        for ev in ring.iter() {
            if ev.label.is_empty() {
                out.push_str(&format!("+{}us {} {}\n", ev.at_us, ev.component, ev.what));
            } else {
                out.push_str(&format!(
                    "+{}us {}[{}] {}\n",
                    ev.at_us, ev.component, ev.label, ev.what
                ));
            }
        }
        out.push_str("=== end flight recorder ===\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.note("t", "", format!("event {i}"));
        }
        let evs = fr.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].what, "event 2");
        assert_eq!(evs[2].what, "event 4");
    }

    #[test]
    fn render_names_component_and_label() {
        let fr = FlightRecorder::new(8);
        fr.note("meterd", "a->b", "rpc gave up after 5 tries");
        fr.note("store", "", "segment 3 sealed");
        let txt = fr.render("test failure");
        assert!(txt.contains("flight recorder: test failure (2 events)"));
        assert!(txt.contains("meterd[a->b] rpc gave up after 5 tries"));
        assert!(txt.contains("store segment 3 sealed"));
    }
}
