//! Fault plans as pure data.
//!
//! A [`ChaosSpec`] says *what kinds* of faults may happen and how
//! often; paired with a seed (see [`crate::FaultPlan`]) it determines
//! *exactly which* events are hit. The spec is plain data with no
//! state, so the same `(seed, spec)` pair names the same failure
//! schedule forever — a failing run's banner line is enough to replay
//! it.

use std::fmt;

/// A one-way probability in `[0, 1]`, stored in basis points so the
/// spec is `Eq`/hashable and never subject to float drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prob(u32);

impl Prob {
    /// A probability from a fraction (clamped to `[0, 1]`).
    pub fn new(p: f64) -> Prob {
        Prob((p.clamp(0.0, 1.0) * 10_000.0).round() as u32)
    }

    /// The probability in basis points (`0..=10_000`).
    pub(crate) fn basis_points(self) -> u32 {
        self.0
    }

    /// Whether this probability is exactly zero.
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:02}%", self.0 / 100, self.0 % 100)
    }
}

/// A network partition between two named machines for a window of
/// virtual time. While the window is open, new connections between the
/// two are refused, datagrams between them are dropped, and bytes on
/// already-established streams are held back until the heal time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    /// One side (machine name).
    pub a: String,
    /// The other side (machine name).
    pub b: String,
    /// Window start, in virtual microseconds.
    pub from_us: u64,
    /// Window end (heal time), in virtual microseconds.
    pub until_us: u64,
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "part[{}-{}@{}..{}us]",
            self.a, self.b, self.from_us, self.until_us
        )
    }
}

/// Disk faults injected into a log store backend (see
/// [`crate::FaultyBackend`]). Counts are "every Nth append", 0 = off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DiskSpec {
    /// Every Nth append tears: a prefix of the data lands, then the
    /// call fails. 0 disables.
    pub torn_every: u32,
    /// Every Nth append fails cleanly with a transient I/O error and
    /// writes nothing. 0 disables.
    pub error_every: u32,
}

/// What kinds of faults to inject, and how often. Pure data: combine
/// with a seed via [`crate::FaultPlan`] to get a concrete, replayable
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ChaosSpec {
    /// Per-datagram drop probability.
    pub drop: Prob,
    /// Per-datagram duplication probability (the copy arrives later).
    pub duplicate: Prob,
    /// Per-datagram extra-delay probability.
    pub delay: Prob,
    /// Extra delay magnitude for delayed (and duplicated) datagrams,
    /// in virtual microseconds.
    pub delay_us: u64,
    /// Probability that a kernel meter-buffer flush is delivered
    /// twice (retransmission double).
    pub meter_dup: Prob,
    /// Partition windows between named machines.
    pub partitions: Vec<Partition>,
}

impl ChaosSpec {
    /// An empty spec (no faults).
    pub fn new() -> ChaosSpec {
        ChaosSpec::default()
    }

    /// Sets the datagram drop probability.
    #[must_use]
    pub fn drop(mut self, p: f64) -> ChaosSpec {
        self.drop = Prob::new(p);
        self
    }

    /// Sets the datagram duplication probability.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> ChaosSpec {
        self.duplicate = Prob::new(p);
        self
    }

    /// Sets the datagram extra-delay probability and magnitude.
    #[must_use]
    pub fn delay(mut self, p: f64, extra_us: u64) -> ChaosSpec {
        self.delay = Prob::new(p);
        self.delay_us = extra_us;
        self
    }

    /// Sets the meter-flush duplication probability.
    #[must_use]
    pub fn meter_dup(mut self, p: f64) -> ChaosSpec {
        self.meter_dup = Prob::new(p);
        self
    }

    /// Adds a partition window between machines `a` and `b`.
    #[must_use]
    pub fn partition(mut self, a: &str, b: &str, from_us: u64, until_us: u64) -> ChaosSpec {
        self.partitions.push(Partition {
            a: a.to_owned(),
            b: b.to_owned(),
            from_us,
            until_us,
        });
        self
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if !self.drop.is_zero() {
            parts.push(format!("drop={}", self.drop));
        }
        if !self.duplicate.is_zero() {
            parts.push(format!("dup={}", self.duplicate));
        }
        if !self.delay.is_zero() {
            parts.push(format!("delay={}+{}us", self.delay, self.delay_us));
        }
        if !self.meter_dup.is_zero() {
            parts.push(format!("meterdup={}", self.meter_dup));
        }
        for p in &self.partitions {
            parts.push(p.to_string());
        }
        if parts.is_empty() {
            return f.write_str("no-faults");
        }
        f.write_str(&parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_clamp_and_print() {
        assert_eq!(Prob::new(0.5).basis_points(), 5000);
        assert_eq!(Prob::new(-1.0).basis_points(), 0);
        assert_eq!(Prob::new(7.0).basis_points(), 10_000);
        assert!(Prob::new(0.0).is_zero());
        assert_eq!(Prob::new(0.25).to_string(), "25.00%");
    }

    #[test]
    fn spec_builds_and_displays() {
        let s = ChaosSpec::new()
            .drop(0.1)
            .duplicate(0.05)
            .delay(0.2, 3000)
            .meter_dup(0.1)
            .partition("red", "blue", 1000, 5000);
        let text = s.to_string();
        assert!(text.contains("drop=10.00%"), "{text}");
        assert!(text.contains("part[red-blue@1000..5000us]"), "{text}");
        assert_eq!(ChaosSpec::new().to_string(), "no-faults");
        // The spec is plain data: equal specs are equal.
        assert_eq!(s.clone(), s);
    }
}
