//! # dpm-live — live streaming analysis
//!
//! The batch analysis layer ([`dpm_analysis`]) answers questions about
//! a run *after* it ends: fetch the log, build a [`Trace`], pair the
//! messages, diff the clocks. This crate answers the same questions
//! *while the run is still going*, in the spirit of the paper's
//! real-time filter pipeline (Miller, Macrander & Sechrest, §4: the
//! filter "provides its client with a stream of data" as the
//! computation executes — analysis is not supposed to wait for the
//! program to finish).
//!
//! Three pieces:
//!
//! - [`LiveTrace`] ([`engine`]) — an incremental mirror of the batch
//!   pipeline. Frames arrive in batches, in any order within the
//!   global sequence space; a reorder buffer replays them in exactly
//!   the order the batch scan would, and every analysis
//!   ([`LiveTrace::pairing`], [`LiveTrace::hb`], [`LiveTrace::stats`])
//!   runs the *same* code path as its batch twin over
//!   incrementally-grown inputs. The invariant, property-tested in
//!   `tests/prop.rs`: at quiescence, a `LiveTrace` equals
//!   `Trace::from_store` plus batch analyses, field for field.
//! - [`LiveWatch`] ([`window`]) — windowing on top: each closed window
//!   yields a [`WindowSnapshot`] (new records, active processes,
//!   pairing lag and its per-link distribution via [`link_lag`]).
//! - [`AnomalyScorer`] ([`anomaly`]) — online per-process scoring:
//!   event-kind count vectors per window against an EWMA self-profile,
//!   plus each process's share of the unmatched-send lag. The top
//!   score localizes a stalled peer or cut link before the run ends.
//!
//! The controller's `watch` and `tail` commands drive this crate over
//! the log-store tail API ([`dpm_logstore::StoreTail`]).
//!
//! [`Trace`]: dpm_analysis::Trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod engine;
pub mod window;

pub use anomaly::{kind_bucket, AnomalyScore, AnomalyScorer, KIND_BUCKETS};
pub use engine::LiveTrace;
pub use window::{link_lag, LiveWatch, WindowSnapshot};
