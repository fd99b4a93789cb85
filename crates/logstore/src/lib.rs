//! `dpm-logstore` — a segmented, indexed, append-only binary store for
//! accepted meter records.
//!
//! The paper's filters append trace records to flat per-filter text
//! files in `/usr/tmp` (§3.4) and the analysis stage re-parses that
//! text on every pass. That is fine for a 1984 lab; it is not fine for
//! a monitor meant to keep up with record volume from many metered
//! machines. This crate gives accepted records a fast, durable,
//! *queryable* place to land:
//!
//! * **Frames** ([`format`](mod@format)) — each accepted record is stored as a
//!   length-prefixed, CRC-framed binary frame holding the raw wire
//!   record plus a small envelope (arrival sequence number, shard id,
//!   monotonic timestamp, and the record's `(machine, pid)` key).
//!   Selection happens before the store; *reduction* (`#` discards)
//!   is deferred to read time, so the stored bytes are always the
//!   full record the meter produced.
//! * **Segments** ([`SegmentWriter`]) — frames are appended to segment files
//!   that rotate by size. Every segment starts with a fixed-size
//!   header, and each carries a sidecar index keyed by record
//!   ordinal, timestamp, and `(machine, pid)` so readers can seek
//!   instead of scan.
//! * **Group commit** — the writer batches appends in memory and
//!   makes them durable on [`SegmentWriter::flush`] /
//!   [`SegmentWriter::sync`]; a torn write at the tail of a segment
//!   is healed on reopen by truncating to the last valid frame.
//! * **Queries** ([`StoreReader`]) — [`StoreReader::scan`] yields borrowed
//!   [`Frame`]s zero-copy in arrival (sequence) order across all
//!   shards; [`StoreReader::range_by_time`] seeks via the sparse
//!   index; [`StoreReader::by_proc`] jumps straight to one process's
//!   records via the per-segment postings.
//!
//! Storage itself is abstracted behind [`Backend`] so the same store
//! runs over the simulation's per-machine [`SimFs`]-style flat file
//! system, over a real directory ([`DirBackend`]), or fully in memory
//! ([`MemBackend`]) for tests and benchmarks. Reading needs only its
//! read half, [`StoreSource`], so [`StoreReader::load`] and
//! [`StoreTail::poll`] serve a store on another machine as they serve
//! a local one.
//!
//! [`SimFs`]: Backend

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod backend;
mod crc;
pub mod format;
pub mod index;
mod reader;
mod tail;
mod writer;

pub use backend::{Backend, DirBackend, MemBackend, StoreSource};
/// The monitor's one byte codec and its process identifier,
/// re-exported so crates that frame their records for this store reach
/// them without a dependency edge of their own.
pub use dpm_meter::{layout, wire, Pid};
pub use format::ProcId;
pub use reader::{list_segments, Frame, Scan, StoreReader};
pub use tail::{OwnedFrame, StoreTail};
pub use writer::{
    seal_manifest_hook, seals_name, segment_name, LogStore, SealHook, SealInfo, SegmentWriter,
    StoreConfig,
};
