//! Network behaviour: latency, datagram loss and reordering.
//!
//! "The delivery of the messages is not guaranteed, though it is
//! likely. Nor is the order in which a set of datagrams arrive
//! guaranteed to be the order in which they were sent." (§3.1)
//!
//! Stream communication, by contrast, is reliable and ordered; the
//! kernel applies the latency model to both but the loss/reorder model
//! only to datagrams.

use crate::registry::HostId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Static description of the simulated network's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Minimum one-way latency between *different* machines, in
    /// microseconds of true time.
    pub latency_min_us: u64,
    /// Maximum one-way latency between different machines.
    pub latency_max_us: u64,
    /// Latency for local (same-machine) IPC. "Such links are reliable
    /// when used within a single machine" (§3.5.2) — loss never
    /// applies locally.
    pub local_latency_us: u64,
    /// Probability in `[0, 1]` that a cross-machine datagram is lost.
    pub datagram_loss: f64,
    /// Probability in `[0, 1]` that a cross-machine datagram is
    /// delayed an extra latency sample, modelling reordering.
    pub datagram_reorder: f64,
}

impl NetConfig {
    /// A 1980s-departmental-LAN profile: 2–8 ms one-way latency,
    /// 0.5 % datagram loss, 2 % reordering.
    pub fn lan() -> NetConfig {
        NetConfig {
            latency_min_us: 2_000,
            latency_max_us: 8_000,
            local_latency_us: 200,
            datagram_loss: 0.005,
            datagram_reorder: 0.02,
        }
    }

    /// A perfectly well-behaved network: fixed small latency, no loss,
    /// no reordering. Useful for deterministic tests.
    pub fn ideal() -> NetConfig {
        NetConfig {
            latency_min_us: 1_000,
            latency_max_us: 1_000,
            local_latency_us: 100,
            datagram_loss: 0.0,
            datagram_reorder: 0.0,
        }
    }

    /// A hostile network for failure-injection tests: high variance,
    /// heavy datagram loss and reordering.
    pub fn lossy() -> NetConfig {
        NetConfig {
            latency_min_us: 1_000,
            latency_max_us: 50_000,
            local_latency_us: 200,
            datagram_loss: 0.2,
            datagram_reorder: 0.3,
        }
    }

    /// Builds the stateful [`LatencyModel`] for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `latency_min_us > latency_max_us` or a probability is
    /// outside `[0, 1]` — configurations are validated eagerly so a
    /// bad one cannot silently skew an experiment.
    pub fn latency_model(&self, seed: u64) -> LatencyModel {
        assert!(
            self.latency_min_us <= self.latency_max_us,
            "latency_min_us {} > latency_max_us {}",
            self.latency_min_us,
            self.latency_max_us
        );
        assert!(
            (0.0..=1.0).contains(&self.datagram_loss),
            "datagram_loss {} outside [0,1]",
            self.datagram_loss
        );
        assert!(
            (0.0..=1.0).contains(&self.datagram_reorder),
            "datagram_reorder {} outside [0,1]",
            self.datagram_reorder
        );
        LatencyModel {
            cfg: self.clone(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for NetConfig {
    /// The default network is [`NetConfig::lan`].
    fn default() -> NetConfig {
        NetConfig::lan()
    }
}

/// What the network decided to do with a datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver after the given latency, in microseconds of true time.
    Deliver {
        /// One-way delay before the datagram is visible to the
        /// receiver.
        latency_us: u64,
    },
    /// Silently drop the datagram.
    Lost,
}

/// Stateful sampler of network behaviour. One per simulated cluster,
/// seeded for reproducibility.
#[derive(Debug)]
pub struct LatencyModel {
    cfg: NetConfig,
    rng: StdRng,
}

impl LatencyModel {
    /// Samples a one-way latency between two hosts, in microseconds.
    /// Same-host traffic uses the (smaller, fixed) local latency.
    pub fn sample_us(&mut self, src: HostId, dst: HostId) -> u64 {
        if src == dst {
            return self.cfg.local_latency_us;
        }
        if self.cfg.latency_min_us == self.cfg.latency_max_us {
            return self.cfg.latency_min_us;
        }
        self.rng
            .gen_range(self.cfg.latency_min_us..=self.cfg.latency_max_us)
    }

    /// Decides the fate of one cross-machine datagram: lost, delivered,
    /// or delivered late (reordered). Local datagrams are reliable and
    /// always delivered with local latency.
    pub fn datagram_fate(&mut self, src: HostId, dst: HostId) -> Fate {
        if src == dst {
            return Fate::Deliver {
                latency_us: self.cfg.local_latency_us,
            };
        }
        if self.rng.gen_bool(self.cfg.datagram_loss) {
            return Fate::Lost;
        }
        let mut latency = self.sample_us(src, dst);
        if self.rng.gen_bool(self.cfg.datagram_reorder) {
            // An extra latency sample pushes this datagram behind
            // later ones: reordering.
            latency += self.sample_us(src, dst);
        }
        Fate::Deliver {
            latency_us: latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: HostId = HostId(0);
    const B: HostId = HostId(1);

    #[test]
    fn ideal_network_is_deterministic() {
        let mut m = NetConfig::ideal().latency_model(1);
        for _ in 0..100 {
            assert_eq!(m.sample_us(A, B), 1_000);
            assert_eq!(m.datagram_fate(A, B), Fate::Deliver { latency_us: 1_000 });
        }
    }

    #[test]
    fn local_traffic_is_fast_and_reliable() {
        let mut m = NetConfig::lossy().latency_model(2);
        for _ in 0..1000 {
            assert_eq!(m.datagram_fate(A, A), Fate::Deliver { latency_us: 200 });
        }
    }

    #[test]
    fn lan_latency_stays_in_bounds() {
        let cfg = NetConfig::lan();
        let mut m = cfg.latency_model(3);
        for _ in 0..1000 {
            let l = m.sample_us(A, B);
            assert!(l >= cfg.latency_min_us && l <= cfg.latency_max_us);
        }
    }

    #[test]
    fn lossy_network_actually_loses_datagrams() {
        let mut m = NetConfig::lossy().latency_model(4);
        let lost = (0..2000)
            .filter(|_| matches!(m.datagram_fate(A, B), Fate::Lost))
            .count();
        // 20 % loss over 2000 trials: expect roughly 400; accept a wide band.
        assert!((200..700).contains(&lost), "lost {lost} of 2000");
    }

    #[test]
    fn reordering_adds_an_extra_latency_sample() {
        // A reordered datagram is delivered with two latency samples
        // stacked; with heavy reorder probability some fates must land
        // beyond the single-sample maximum, and none beyond twice it.
        let cfg = NetConfig::lossy();
        let mut m = cfg.latency_model(5);
        let mut beyond_max = 0usize;
        for _ in 0..2000 {
            if let Fate::Deliver { latency_us } = m.datagram_fate(A, B) {
                assert!(latency_us >= cfg.latency_min_us);
                assert!(latency_us <= 2 * cfg.latency_max_us);
                if latency_us > cfg.latency_max_us {
                    beyond_max += 1;
                }
            }
        }
        // 30 % reorder over ~1600 delivered: expect hundreds.
        assert!(beyond_max > 100, "only {beyond_max} reordered fates");
    }

    #[test]
    fn no_reordering_when_probability_is_zero() {
        let cfg = NetConfig {
            datagram_reorder: 0.0,
            ..NetConfig::lossy()
        };
        let mut m = cfg.latency_model(6);
        for _ in 0..2000 {
            if let Fate::Deliver { latency_us } = m.datagram_fate(A, B) {
                assert!(
                    latency_us <= cfg.latency_max_us,
                    "latency {latency_us} exceeds single-sample max"
                );
            }
        }
    }

    #[test]
    fn loss_and_reorder_fates_replay_under_one_seed() {
        // The loss and reorder draws both come from the seeded rng, so
        // the full fate sequence — not just the latency samples — must
        // replay.
        let cfg = NetConfig::lossy();
        let mut m1 = cfg.latency_model(77);
        let mut m2 = cfg.latency_model(77);
        let f1: Vec<_> = (0..500).map(|_| m1.datagram_fate(A, B)).collect();
        let f2: Vec<_> = (0..500).map(|_| m2.datagram_fate(A, B)).collect();
        assert_eq!(f1, f2);
        assert!(f1.iter().any(|f| matches!(f, Fate::Lost)));
    }

    #[test]
    fn same_seed_same_behaviour() {
        let cfg = NetConfig::lan();
        let mut m1 = cfg.latency_model(42);
        let mut m2 = cfg.latency_model(42);
        for _ in 0..100 {
            assert_eq!(m1.datagram_fate(A, B), m2.datagram_fate(A, B));
            assert_eq!(m1.sample_us(A, B), m2.sample_us(A, B));
        }
    }

    #[test]
    #[should_panic(expected = "latency_min_us")]
    fn inverted_latency_bounds_panic() {
        let cfg = NetConfig {
            latency_min_us: 10,
            latency_max_us: 5,
            ..NetConfig::ideal()
        };
        let _ = cfg.latency_model(0);
    }

    #[test]
    #[should_panic(expected = "datagram_loss")]
    fn bad_loss_probability_panics() {
        let cfg = NetConfig {
            datagram_loss: 1.5,
            ..NetConfig::ideal()
        };
        let _ = cfg.latency_model(0);
    }
}
