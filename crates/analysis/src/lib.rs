//! Analysis routines for the distributed programs monitor.
//!
//! "The analysis routines provide the means for interpreting the
//! traces created by filters. They give meaning to the data by
//! summarizing and operating on the event records collected. The user
//! produces his own analysis routines according to the purpose of the
//! study. … These analyses include communications statistics,
//! measurement of parallelism, and structural studies." (§3.3)
//!
//! The modules implement, over the filter's trace logs:
//!
//! * [`Trace`] — typed events parsed back out of log records (text, or
//!   stored raw records through a [`FrameDecoder`]);
//! * [`Pairing`] — connection pairing and send↔receive message
//!   matching, recovering recipients the meter could not name (§4.1);
//! * [`HappensBefore`] — the deducible partial global order (Lamport),
//!   with clock-skew evidence extraction;
//! * [`CommStats`] — communication statistics and clock-offset
//!   estimation between machines;
//! * [`ParallelismReport`] — busy-time profile and effective speedup;
//! * [`StructureReport`] — the process/communication graph with DOT
//!   output.
//!
//! # Example
//!
//! ```
//! use dpm_analysis::{Analysis, Trace};
//!
//! let log = "\
//! event=send machine=0 cpuTime=10 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=64 destName=inet:1:53
//! event=receive machine=1 cpuTime=15 procTime=0 traceType=3 pid=2 pc=1 sock=2 msgLength=64 sourceName=inet:0:1024
//! ";
//! let a = Analysis::of_log(log);
//! assert_eq!(a.pairing.messages.len(), 1);
//! assert!(a.hb.precedes(0, 1));
//! assert_eq!(a.stats.matched, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod debugging;
pub mod hb;
pub mod merge;
pub mod pairing;
pub mod parallelism;
pub mod properties;
pub mod stats;
pub mod structure;
pub mod timeline;
pub mod trace;

pub use critical::{CriticalPath, PathStep};
pub use debugging::{BlockedReceive, DebugReport, Unterminated};
pub use hb::HappensBefore;
pub use merge::{merge_logs, merge_traces};
pub use pairing::{host_of, Connection, MatchedMessage, PairQueues, Pairing};
pub use parallelism::{BusySlice, ParallelismReport};
pub use properties::{ByzReport, CsInterval, LinkFaults, MutexReport};
pub use stats::{CommStats, OffsetEstimate, ProcStats, SizeHistogram};
pub use structure::{CommEdge, StructureReport};
pub use timeline::{Bucket, Timeline};
pub use trace::{Event, EventKind, FrameDecoder, ProcKey, Trace};

/// Runs every analysis over one trace log — the convenient all-in-one
/// entry point used by the examples.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The typed trace.
    pub trace: Trace,
    /// Connection pairing and message matching.
    pub pairing: Pairing,
    /// Happens-before relation.
    pub hb: HappensBefore,
    /// Communication statistics.
    pub stats: CommStats,
    /// Parallelism profile.
    pub parallelism: ParallelismReport,
    /// Structural report.
    pub structure: StructureReport,
    /// Debugging report: blocked receives, lost sends, hangs.
    pub debug: DebugReport,
    /// Critical path: the heaviest work chain (the IPS extension).
    pub critical: CriticalPath,
}

impl Analysis {
    /// Analyzes a filter log's text.
    pub fn of_log(log_text: &str) -> Analysis {
        Analysis::of_trace(Trace::parse(log_text))
    }

    /// Analyzes an already-parsed trace.
    pub fn of_trace(trace: Trace) -> Analysis {
        let pairing = Pairing::analyze(&trace);
        let hb = HappensBefore::build(&trace, &pairing);
        let stats = CommStats::analyze(&trace, &pairing);
        let parallelism = ParallelismReport::analyze(&trace);
        let structure = StructureReport::analyze(&trace, &pairing);
        let debug = DebugReport::analyze(&trace, &pairing);
        let critical = CriticalPath::analyze(&trace, &hb);
        Analysis {
            trace,
            pairing,
            hb,
            stats,
            parallelism,
            structure,
            debug,
            critical,
        }
    }

    /// A one-screen human summary, used by the example binaries.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "trace: {} events, {} processes on {} machines\n",
            self.trace.len(),
            self.structure.processes.len(),
            self.trace.machines().len()
        ));
        s.push_str(&self.stats.to_string());
        s.push_str(&self.parallelism.to_string());
        s.push_str(&format!(
            "deducible global order: {:.0}% of event pairs\n",
            self.hb.ordered_fraction() * 100.0
        ));
        if !self.pairing.unmatched_sends.is_empty() {
            s.push_str(&format!(
                "{} sends never received (lost datagrams or unread bytes)\n",
                self.pairing.unmatched_sends.len()
            ));
        }
        if !self.debug.is_clean() {
            s.push_str(&self.debug.to_string());
        }
        if self.critical.total_work_ms > 0 {
            s.push_str(&self.critical.to_string());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_in_one_runs_on_empty_input() {
        let a = Analysis::of_log("");
        assert!(a.trace.is_empty());
        assert!(a.summary().contains("0 events"));
    }

    #[test]
    fn summary_mentions_losses() {
        let a = Analysis::of_log(
            "event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=9 destName=inet:1:5\n",
        );
        assert!(a.summary().contains("never received"));
    }
}
