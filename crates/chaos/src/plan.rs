//! Seeded fault plans and the injector they produce.
//!
//! A [`FaultPlan`] binds a [`ChaosSpec`] to a seed and to the
//! cluster's machine roster. [`FaultPlan::injector`] turns the plan
//! into a [`ChaosInjector`] — an implementation of the simulated
//! kernel's [`FaultInjector`] hook trait whose every decision is a
//! pure hash of `(seed, event kind, link, per-link event counter)`.
//! Two injectors built from the same `(seed, spec, hosts)` make
//! identical decisions in identical order, so a failing chaos run is
//! replayed by quoting its seed and spec.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpm_simnet::{DgramFault, FaultInjector, HostId};
use parking_lot::Mutex;

use crate::spec::{ChaosSpec, Prob};

/// Event-kind tags fed into the decision hash so that e.g. the drop
/// decision and the duplicate decision for the same datagram are
/// independent coin flips.
const KIND_DROP: u8 = 1;
const KIND_DUP: u8 = 2;
const KIND_DELAY: u8 = 3;
const KIND_METER_DUP: u8 = 4;

/// A concrete, replayable fault schedule: a spec, a seed, and the
/// machine roster that partition names resolve against.
///
/// The plan itself is immutable data. Call [`FaultPlan::injector`] to
/// get the stateful decision-maker to install in a cluster (state is
/// only per-link event counters — the source of schedule determinism).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    spec: ChaosSpec,
    hosts: Vec<String>,
}

impl FaultPlan {
    /// Builds a plan from a seed, a spec, and the machine names of the
    /// cluster **in builder order** — the simulated network assigns
    /// [`HostId`]s in the order machines are added, and partition
    /// windows name machines, so the roster is how the plan maps names
    /// to ids.
    pub fn new(seed: u64, spec: ChaosSpec, hosts: &[&str]) -> FaultPlan {
        FaultPlan {
            seed,
            spec,
            hosts: hosts.iter().map(|h| (*h).to_owned()).collect(),
        }
    }

    /// One line naming the plan — print this in test failures so the
    /// schedule can be replayed (`seed` + spec fully determine it).
    pub fn describe(&self) -> String {
        format!("chaos plan seed={} spec=[{}]", self.seed, self.spec)
    }

    /// The injector for this plan, ready to install via
    /// `ClusterBuilder::fault_injector` (or
    /// `SimulationBuilder::fault_injector`).
    ///
    /// # Panics
    ///
    /// If a partition in the spec names a machine missing from the
    /// plan's roster — that is a bug in the test, not a runtime
    /// condition, so it fails loudly at build time.
    pub fn injector(&self) -> Arc<ChaosInjector> {
        let resolve = |name: &str| -> HostId {
            let idx = self
                .hosts
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("partition names unknown machine '{name}'"));
            HostId(idx as u32)
        };
        let windows = self
            .spec
            .partitions
            .iter()
            .map(|p| Window {
                a: resolve(&p.a),
                b: resolve(&p.b),
                from_us: p.from_us,
                until_us: p.until_us,
            })
            .collect();
        Arc::new(ChaosInjector {
            seed: self.seed,
            spec: self.spec.clone(),
            windows,
            counters: Mutex::new(HashMap::new()),
            tally: FaultTally::default(),
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A partition window with the machine names already resolved to ids.
#[derive(Debug, Clone, Copy)]
struct Window {
    a: HostId,
    b: HostId,
    from_us: u64,
    until_us: u64,
}

impl Window {
    /// Whether the window covers traffic between `x` and `y` (either
    /// direction) at virtual time `now_us`.
    fn covers(&self, x: HostId, y: HostId, now_us: u64) -> bool {
        let pair = (x == self.a && y == self.b) || (x == self.b && y == self.a);
        pair && (self.from_us..self.until_us).contains(&now_us)
    }
}

/// Running totals of faults actually fired, for test assertions:
/// "did this plan exercise anything?" is answerable without instru-
/// menting the system under test.
#[derive(Debug, Default)]
pub struct FaultTally {
    drops: AtomicU64,
    dups: AtomicU64,
    delays: AtomicU64,
    meter_dups: AtomicU64,
    blocked: AtomicU64,
}

impl FaultTally {
    /// Datagrams dropped (scripted drops plus partition drops).
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Datagrams duplicated.
    pub fn dups(&self) -> u64 {
        self.dups.load(Ordering::Relaxed)
    }

    /// Datagrams given extra delay.
    pub fn delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }

    /// Meter flushes delivered twice.
    pub fn meter_dups(&self) -> u64 {
        self.meter_dups.load(Ordering::Relaxed)
    }

    /// Connections refused by partition windows.
    pub fn blocked_connects(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The stateful decision-maker a [`FaultPlan`] installs into a
/// cluster. Decisions are pure hashes of the seed, the event kind, the
/// link, and a per-`(kind, link)` event counter — never of wall-clock
/// time or thread interleaving — so the schedule is identical on every
/// run with the same plan.
pub struct ChaosInjector {
    seed: u64,
    spec: ChaosSpec,
    windows: Vec<Window>,
    /// Per-`(kind, src, dst)` event counters. A mutex (not atomics per
    /// key) because the map grows lazily; contention is negligible at
    /// simulation datagram rates.
    counters: Mutex<HashMap<(u8, u32, u32), u64>>,
    tally: FaultTally,
}

impl ChaosInjector {
    /// The next counter value for `(kind, src→dst)`. Events on one
    /// link are serialised by the simulated kernel, so the counter
    /// sequence — and therefore every decision — is deterministic.
    fn next_count(&self, kind: u8, src: HostId, dst: HostId) -> u64 {
        let mut counters = self.counters.lock();
        let n = counters.entry((kind, src.0, dst.0)).or_insert(0);
        let v = *n;
        *n += 1;
        v
    }

    /// Whether the `(kind, link, count)` event fires at probability
    /// `p`: splitmix64-style counter hash reduced modulo basis points.
    fn hit(&self, p: Prob, kind: u8, src: HostId, dst: HostId) -> bool {
        if p.is_zero() {
            return false;
        }
        let count = self.next_count(kind, src, dst);
        let h = mix(
            self.seed ^ (u64::from(kind) << 56),
            u64::from(src.0),
            u64::from(dst.0),
            count,
        );
        (h % 10_000) < u64::from(p.basis_points())
    }

    fn in_partition(&self, src: HostId, dst: HostId, now_us: u64) -> Option<Window> {
        self.windows
            .iter()
            .find(|w| w.covers(src, dst, now_us))
            .copied()
    }

    /// What this injector has actually fired so far. Scheduling is
    /// deterministic but *traffic* is not (a test may send more or
    /// fewer datagrams run to run), so the tally is for "the plan did
    /// something" assertions, not exact counts.
    pub fn tally(&self) -> &FaultTally {
        &self.tally
    }
}

impl FaultInjector for ChaosInjector {
    fn dgram_fault(&self, src: HostId, dst: HostId, now_us: u64) -> DgramFault {
        if self.in_partition(src, dst, now_us).is_some() {
            FaultTally::bump(&self.tally.drops);
            return DgramFault::Drop;
        }
        // Each fault class gets its own counter stream so adding one
        // probability never perturbs the schedule of another.
        if self.hit(self.spec.drop, KIND_DROP, src, dst) {
            FaultTally::bump(&self.tally.drops);
            return DgramFault::Drop;
        }
        if self.hit(self.spec.duplicate, KIND_DUP, src, dst) {
            FaultTally::bump(&self.tally.dups);
            return DgramFault::Duplicate {
                extra_us: self.spec.delay_us.max(1),
            };
        }
        if self.hit(self.spec.delay, KIND_DELAY, src, dst) {
            FaultTally::bump(&self.tally.delays);
            return DgramFault::Delay {
                extra_us: self.spec.delay_us.max(1),
            };
        }
        DgramFault::Pass
    }

    fn connect_blocked(&self, src: HostId, dst: HostId, now_us: u64) -> bool {
        let blocked = self.in_partition(src, dst, now_us).is_some();
        if blocked {
            FaultTally::bump(&self.tally.blocked);
        }
        blocked
    }

    fn stream_extra_us(&self, src: HostId, dst: HostId, now_us: u64) -> u64 {
        // Streams are reliable: a partition holds their bytes back
        // until the heal time instead of losing them.
        match self.in_partition(src, dst, now_us) {
            Some(w) => w.until_us.saturating_sub(now_us),
            None => 0,
        }
    }

    fn duplicate_meter_flush(&self, src: HostId, dst: HostId, _now_us: u64) -> bool {
        let dup = self.hit(self.spec.meter_dup, KIND_METER_DUP, src, dst);
        if dup {
            FaultTally::bump(&self.tally.meter_dups);
        }
        dup
    }
}

impl fmt::Debug for ChaosInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosInjector")
            .field("seed", &self.seed)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// A splitmix64-style avalanche over the four decision inputs. Not
/// cryptographic — just well-mixed enough that per-link event streams
/// look independent while staying a pure function of the inputs.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChaosSpec;

    const A: HostId = HostId(0);
    const B: HostId = HostId(1);
    const C: HostId = HostId(2);

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            seed,
            ChaosSpec::new().drop(0.3).duplicate(0.2).delay(0.1, 500),
            &["red", "blue", "green"],
        )
    }

    #[test]
    fn same_plan_replays_the_same_schedule() {
        let x = lossy_plan(7).injector();
        let y = lossy_plan(7).injector();
        let seq_x: Vec<DgramFault> = (0..500).map(|t| x.dgram_fault(A, B, t)).collect();
        let seq_y: Vec<DgramFault> = (0..500).map(|t| y.dgram_fault(A, B, t)).collect();
        assert_eq!(seq_x, seq_y);
        assert!(seq_x.contains(&DgramFault::Drop), "30% drop never fired");
        assert!(
            seq_x
                .iter()
                .any(|f| matches!(f, DgramFault::Duplicate { .. })),
            "20% duplicate never fired"
        );
        // The tally mirrors what fired.
        let t = x.tally();
        assert!(t.drops() > 0 && t.dups() > 0 && t.delays() > 0);
        assert_eq!(t.meter_dups(), 0);
        assert_eq!(t.blocked_connects(), 0);
    }

    #[test]
    fn different_seeds_differ_and_links_are_independent() {
        let x = lossy_plan(7).injector();
        let z = lossy_plan(8).injector();
        let seq_x: Vec<DgramFault> = (0..500).map(|t| x.dgram_fault(A, B, t)).collect();
        let seq_z: Vec<DgramFault> = (0..500).map(|t| z.dgram_fault(A, B, t)).collect();
        assert_ne!(seq_x, seq_z, "seeds 7 and 8 produced identical schedules");
        // Counters are per-link: traffic on A→C does not perturb A→B.
        let w = lossy_plan(7).injector();
        let seq_w: Vec<DgramFault> = (0..500)
            .map(|t| {
                let _ = w.dgram_fault(A, C, t);
                w.dgram_fault(A, B, t)
            })
            .collect();
        assert_eq!(seq_x, seq_w);
    }

    #[test]
    fn partitions_block_both_directions_inside_the_window() {
        let plan = FaultPlan::new(
            1,
            ChaosSpec::new().partition("red", "blue", 1_000, 5_000),
            &["red", "blue", "green"],
        );
        let inj = plan.injector();
        assert!(!inj.connect_blocked(A, B, 999));
        assert!(inj.connect_blocked(A, B, 1_000));
        assert!(inj.connect_blocked(B, A, 4_999));
        assert!(!inj.connect_blocked(A, B, 5_000));
        assert!(!inj.connect_blocked(A, C, 3_000), "green is unaffected");
        assert_eq!(inj.dgram_fault(A, B, 3_000), DgramFault::Drop);
        assert_eq!(inj.dgram_fault(A, C, 3_000), DgramFault::Pass);
        // Stream bytes are delayed to the heal time, not dropped.
        assert_eq!(inj.stream_extra_us(A, B, 3_000), 2_000);
        assert_eq!(inj.stream_extra_us(A, B, 6_000), 0);
    }

    #[test]
    fn meter_dup_fires_at_its_own_rate() {
        let plan = FaultPlan::new(3, ChaosSpec::new().meter_dup(0.5), &["red", "blue"]);
        let inj = plan.injector();
        let hits = (0..200)
            .filter(|&t| inj.duplicate_meter_flush(A, B, t))
            .count();
        assert!(
            (60..140).contains(&hits),
            "50% dup rate wildly off: {hits}/200"
        );
        // Datagram hooks are untouched by a meter-dup-only spec.
        assert_eq!(inj.dgram_fault(A, B, 0), DgramFault::Pass);
    }

    #[test]
    fn unknown_partition_host_panics_at_build_time() {
        let plan = FaultPlan::new(
            1,
            ChaosSpec::new().partition("red", "mauve", 0, 1),
            &["red", "blue"],
        );
        let err = std::panic::catch_unwind(|| plan.injector());
        assert!(err.is_err());
    }

    #[test]
    fn describe_names_seed_and_spec() {
        let d = lossy_plan(42).describe();
        assert!(d.contains("seed=42"), "{d}");
        assert!(d.contains("drop=30.00%"), "{d}");
    }
}
