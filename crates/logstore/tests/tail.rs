//! The live tail's contract: however appends, flushes, segment rolls
//! and polls interleave, [`StoreTail::poll`] hands out every frame
//! exactly once — and reads no segment again once it has finished it.

use dpm_logstore::{
    list_segments, segment_name, Backend, LogStore, MemBackend, OwnedFrame, StoreConfig,
    StoreReader, StoreSource, StoreTail,
};
use dpm_meter::HEADER_LEN;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const DIR: &str = "d";

/// Tiny segments, so rolls are frequent: a frame is ~70 bytes.
const CFG: StoreConfig = StoreConfig {
    segment_bytes: 512,
    batch_bytes: 64,
    index_every: 4,
};

fn raw(machine: u16, pid: u32, fill: usize) -> Vec<u8> {
    let mut r = vec![0u8; HEADER_LEN + 4 + fill];
    let size = r.len() as u32;
    r[0..4].copy_from_slice(&size.to_le_bytes());
    r[4..6].copy_from_slice(&machine.to_le_bytes());
    r[20..24].copy_from_slice(&7u32.to_le_bytes());
    r[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&pid.to_le_bytes());
    r
}

/// The shard part of a segment name (`d/s0001` of `d/s0001-00000002.seg`).
fn shard_of(name: &str) -> &str {
    name.rsplit_once('-').map_or(name, |(shard, _)| shard)
}

/// A [`StoreSource`] that audits the tail's read discipline. A segment
/// is *finished* by a poll when that poll's listing showed a
/// higher-numbered segment of its shard (it is sealed) and the poll
/// consumed the bytes it then read to the last one. The audit fails
/// when a finished segment is read again, and when an unfinished one —
/// an in-progress segment above all — is skipped.
#[derive(Default)]
struct Audit {
    inner: Arc<MemBackend>,
    /// Length of each segment the poll in progress read.
    read: RefCell<HashMap<String, usize>>,
    finished: RefCell<HashSet<String>>,
}

impl StoreSource for Audit {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        let bytes = self.inner.read(name)?;
        assert!(
            !self.finished.borrow().contains(name),
            "{name} read again after the poll that finished it"
        );
        self.read.borrow_mut().insert(name.to_owned(), bytes.len());
        Some(bytes)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

impl Audit {
    /// One audited poll: the new frames, and how many segments it read.
    fn poll(&self, tail: &mut StoreTail) -> (Vec<OwnedFrame>, usize) {
        let frames = tail.poll(self, DIR);
        // Nothing writes while a test polls: this is the listing it saw.
        let (listed, read) = (list_segments(self, DIR), self.read.take());
        let mut finished = self.finished.borrow_mut();
        for (i, name) in listed.iter().enumerate() {
            if finished.contains(name) {
                continue;
            }
            let len = *read
                .get(name)
                .unwrap_or_else(|| panic!("{name} skipped though no poll had finished it"));
            let sealed = listed[i + 1..]
                .iter()
                .any(|n| shard_of(n) == shard_of(name));
            if sealed && tail.consumed(name) == len {
                finished.insert(name.clone());
            }
        }
        (frames, read.len())
    }
}

/// A fresh store, and an audit over its backend.
fn open() -> (Audit, LogStore) {
    let audit = Audit::default();
    let store = LogStore::open(Arc::clone(&audit.inner) as Arc<dyn Backend>, DIR, CFG);
    (audit, store)
}

#[test]
fn poll_sees_only_new_frames() {
    let (audit, store) = open();
    let mut w = store.writer(0);
    let mut tail = StoreTail::new();

    w.append(&raw(1, 100, 0));
    w.flush();
    let (first, _) = audit.poll(&mut tail);
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].seq, 0);
    assert_eq!(first[0].proc.pid, 100);

    // Nothing new → nothing returned.
    assert!(audit.poll(&mut tail).0.is_empty());

    w.append(&raw(1, 101, 0));
    w.append(&raw(1, 102, 0));
    w.flush();
    let (more, _) = audit.poll(&mut tail);
    assert_eq!(
        more.iter().map(|f| f.seq).collect::<Vec<_>>(),
        vec![1, 2],
        "only the newly flushed frames appear"
    );
}

#[test]
fn torn_tail_is_deferred_not_lost() {
    let (audit, store) = open();
    let mut w = store.writer(0);
    w.append(&raw(1, 100, 0));
    w.append(&raw(1, 101, 0));
    w.flush();
    let name = segment_name(DIR, 0, 0);
    let full = audit.inner.read(&name).expect("segment");

    let mut tail = StoreTail::new();
    // Offer the bytes with the last frame torn mid-way.
    let torn = &full[..full.len() - 5];
    let got = tail.offer_segment(&name, torn);
    assert_eq!(got.len(), 1, "whole frame consumed, torn one deferred");
    // Offer the completed bytes: only the deferred frame appears.
    let got = tail.offer_segment(&name, &full);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].seq, 1);
    assert_eq!(tail.consumed(&name), full.len());
}

#[test]
fn header_in_flight_is_tolerated() {
    let mut tail = StoreTail::new();
    assert!(tail.offer_segment("d/x.seg", b"DP").is_empty());
    assert_eq!(tail.consumed("d/x.seg"), 0, "cursor did not advance");
}

#[test]
fn tail_crosses_segment_rotation() {
    let (audit, store) = open();
    let mut w = store.writer(0);
    let mut tail = StoreTail::new();
    let mut seen = Vec::new();
    for i in 0..40 {
        w.append(&raw(2, i, 16));
        if i % 7 == 0 {
            w.flush();
            seen.extend(audit.poll(&mut tail).0.into_iter().map(|f| f.seq));
        }
    }
    w.flush();
    seen.extend(audit.poll(&mut tail).0.into_iter().map(|f| f.seq));
    assert_eq!(
        seen,
        (0..40).collect::<Vec<u64>>(),
        "every frame exactly once across rotations"
    );

    // Over the finished store a fresh tail reads each of the N
    // segments on its first poll, and from then on only the one still
    // open.
    let n = store.reader().n_segments();
    assert!(n > 2, "rotation happened");
    audit.finished.take();
    let mut fresh = StoreTail::new();
    let (all, reads) = audit.poll(&mut fresh);
    assert_eq!((all.len(), reads), (40, n));
    for _ in 0..3 {
        let (none, reads) = audit.poll(&mut fresh);
        assert_eq!((none.len(), reads), (0, 1));
    }
}

proptest! {
    #[test]
    fn polls_yield_every_frame_once_and_finished_segments_are_left_alone(
        shards in 1usize..=4,
        // A step is (what, shard, record fill): six in ten append, two
        // flush, two poll. A roll is not a step of its own — with
        // `CFG` every seventh append or so rolls its shard's segment.
        steps in proptest::collection::vec((0u8..10, 0usize..4, 0usize..48), 1..160),
    ) {
        let (audit, store) = open();
        let mut writers: Vec<_> = (0..shards).map(|s| store.writer(s as u16)).collect();
        let mut tail = StoreTail::new();
        let mut polled: Vec<OwnedFrame> = Vec::new();
        let mut take = |frames: Vec<OwnedFrame>| {
            assert!(frames.windows(2).all(|w| w[0].seq < w[1].seq), "a poll is seq-ordered");
            polled.extend(frames);
        };
        for (i, &(what, shard, fill)) in steps.iter().enumerate() {
            let w = &mut writers[shard % shards];
            match what {
                0..=5 => drop(w.append(&raw(shard as u16, i as u32, fill))),
                6..=7 => w.flush(),
                _ => take(audit.poll(&mut tail).0),
            }
        }
        drop(writers);
        take(audit.poll(&mut tail).0);

        // Shards flush independently, so a later poll may return a
        // lower seq than an earlier one — but never the same frame
        // twice, and in the end never one fewer than the store holds.
        polled.sort_by_key(|f| f.seq);
        let reader = StoreReader::load(audit.inner.as_ref(), DIR);
        let stored: Vec<OwnedFrame> = reader.scan().map(|f| OwnedFrame::of(&f)).collect();
        prop_assert_eq!(polled, stored);

        // Once everything is consumed, a poll reads the open segment
        // of each shard and nothing else.
        let open_segments = (0..shards)
            .filter(|s| !audit.inner.list(&format!("{DIR}/s{s:04}-")).is_empty())
            .count();
        let (none, reads) = audit.poll(&mut tail);
        prop_assert_eq!((none.len(), reads), (0, open_segments));
    }
}
