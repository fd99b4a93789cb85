//! The metric primitives: lock-free counters, gauges, and log2
//! latency histograms.
//!
//! Everything here follows the `WireStats` discipline the simulator
//! already uses for wire accounting: plain atomics with relaxed
//! ordering, mutated from any thread without coordination, read by
//! copying into a plain snapshot struct. Cross-counter skew in a
//! snapshot is irrelevant for coarse statistics; what matters is that
//! the hot path never takes a lock and never allocates.
//!
//! All recording calls honor the global kill switch
//! ([`crate::set_enabled`]) — with telemetry disabled a call is one
//! relaxed load and a branch, which is what the instrumentation
//! overhead experiment compares against. The `noop` cargo feature
//! compiles the bodies out entirely.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Whether recording calls should do anything. See the module docs of
/// [`crate`] for the kill switch and the `noop` feature.
#[inline]
fn on() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        crate::enabled()
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        if on() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the count.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, pending bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if on() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the level by `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        if on() {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i - 1]`. 64 power-of-two
/// buckets cover the whole `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A lock-free latency/size histogram over log2 buckets.
///
/// Recording is four relaxed atomic ops (bucket, count, sum, max);
/// readout copies into a [`HistSnapshot`], which merges and answers
/// quantile queries.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !on() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies the histogram into a plain snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`] — plain data, mergeable,
/// with quantile readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts (see [`bucket_bounds`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Merges two snapshots. Counts saturate at `u64::MAX` instead of
    /// wrapping, which keeps the merge associative and commutative
    /// even at capacity (the saturation cap is order-independent).
    #[must_use]
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_add(other.count),
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
        }
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the upper
    /// edge of the bucket holding that rank (clamped by the observed
    /// maximum, which lives inside the top occupied bucket — so the
    /// answer always stays within the rank bucket's edges). Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(n);
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// The median (see [`HistSnapshot::quantile`]).
    pub(crate) fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th percentile.
    pub(crate) fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The mean observed value (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(hi), i, "upper edge of bucket {i}");
        }
    }

    #[test]
    fn quantiles_read_out_in_order() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p50(), 3, "rank 3 of 5 lands in bucket [2,3]");
        assert!(s.p95() >= 512 && s.p95() <= 1000);
        assert!(s.p99() >= 512 && s.p99() <= 1000);
        assert_eq!(s.quantile(1.0), 1000, "p100 is the exact max");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_adds_and_saturates() {
        let a = Histogram::new();
        a.record(4);
        let b = Histogram::new();
        b.record(1000);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.max, 1000);
        let mut big = HistSnapshot {
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            max: 9,
            buckets: [0; HIST_BUCKETS],
        };
        big.buckets[1] = u64::MAX - 1;
        let m = big.merge(&big);
        assert_eq!(m.count, u64::MAX, "counts saturate at capacity");
        assert_eq!(m.buckets[1], u64::MAX);
    }
}
