//! Filter processes for the distributed programs monitor.
//!
//! "The selection, reduction, and storage of trace data is the
//! responsibility of a filter process. This represents the second
//! stage of measurement. A filter is the recipient of the measurement
//! data that are generated by the meters. … It is the filter that
//! interprets the selection criteria and decides which event records
//! are to be kept and which are to be discarded." (§3.3)
//!
//! This crate implements:
//!
//! * [`Descriptions`] — the event-record description DSL of Fig. 3.2,
//!   plus the standard descriptions file for every Appendix-A format;
//! * [`Rules`] — selection rules / templates of Figs. 3.3–3.4, with
//!   the six comparison operators, the `*` wildcard, decimal prefix
//!   patterns, field-to-field comparisons, and the `#` discard prefix;
//! * [`FilterEngine`] — the pure selection/reduction pipeline, whose
//!   currency [`RecordView`] *is* [`dpm_meter::MeterRecord`] (a
//!   re-export, not a twin): one borrowed record view from the meter
//!   stream to the store;
//! * [`filter_main`] — the standard filter as a simulated process,
//!   accepting one meter connection per metered process and appending
//!   accepted records to its binary log store (`dpm-logstore`);
//! * [`LogRecord`] — the textual trace-log format (§3.4) the analysis
//!   stage consumes, a view rendered from the store — and
//!   [`KeptRecord`], its unrendered form;
//! * [`ShardLog`] / [`SimFsBackend`] — the glue between a filter's
//!   shard workers, the log store and the simulated file system;
//! * [`FilterArgs`] / [`FilterRole`] — the one description of a
//!   filter (key table, validator, argument vector) that the
//!   controller, the meterdaemon protocol and the filter program all
//!   use, including the filter-tree roles;
//! * `run_edge` / `run_aggregate` — the tree stages the filter
//!   program runs for `role=edge` / `role=aggregate`: edge
//!   pre-filters that select records *before* they cross the network,
//!   and aggregate filters that merge child streams into one
//!   deduplicated log, appended as records arrive.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod args;
pub mod desc;
mod engine;
mod log;
mod prefilter;
mod program;
mod rules;
mod shard;
mod store;
mod tree;

pub use args::{ArgsError, FilterArgs, FilterRole};
pub use desc::{DescParseError, Descriptions, EventDesc, FieldDesc, FieldRef, FieldSlot};
pub use dpm_meter::SeqWindow;
pub use engine::{FilterEngine, FilterStats, RecordView};
pub use log::{KeptRecord, LogRecord};
pub use program::{filter_main, register_filter_program};
pub use rules::{Condition, Op, Pattern, Rule, RuleParseError, Rules, Verdict};
pub use shard::{ConnHandle, ShardLog, ShardedFilter, DEFAULT_BATCH_BYTES};
pub use store::SimFsBackend;
pub use tree::{MergedRecord, TreeMerge};
