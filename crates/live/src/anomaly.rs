//! Online per-process anomaly scoring.
//!
//! The scheme follows the syscall-count-vector idea (Dymshits,
//! Myara & Tolpin: per-process syscall count vectors over sliding
//! windows are enough to classify behavior online): each window, every
//! process is summarized as a vector of event-kind counts, compared
//! against an exponentially-weighted profile of that process's *own*
//! past windows. The normalized distance — `profile_dev` — flags a
//! process whose behavior changed shape (a stalled peer stops sending,
//! a duplicated meter doubles its counts).
//!
//! Profile deviation alone cannot localize every fault: when a
//! partition stalls two peers, *every* process's mix shifts a little
//! (replies stop arriving everywhere), and after normalization a busy
//! healthy process can out-score a quietly-stuck one. The decisive
//! signal for communication faults is **pairing lag** — unmatched
//! sends are exactly the messages the monitor saw leave but never saw
//! arrive, and they concentrate on the faulted processes. Each
//! process's share of the current unmatched sends (`lag_share`) is
//! therefore weighted into the score at twice the profile deviation
//! (deviation is bounded by 1, lag share by 1; weight 2 makes a
//! dominant lag share decisive while keeping deviation the tiebreak).

use dpm_analysis::{EventKind, ProcKey};
use std::collections::HashMap;

/// Number of event-kind buckets in a count vector (one per
/// [`EventKind`] variant).
pub(crate) const KIND_BUCKETS: usize = 10;

/// The count-vector bucket of an event kind. The mapping is stable —
/// scores and profiles are comparable across runs.
pub(crate) fn kind_bucket(kind: &EventKind) -> usize {
    match kind {
        EventKind::Send { .. } => 0,
        EventKind::RecvCall => 1,
        EventKind::Recv { .. } => 2,
        EventKind::Socket { .. } => 3,
        EventKind::Dup { .. } => 4,
        EventKind::DestSocket => 5,
        EventKind::Fork { .. } => 6,
        EventKind::Accept { .. } => 7,
        EventKind::Connect { .. } => 8,
        EventKind::Term { .. } => 9,
    }
}

/// One process's score for one window, with its components.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyScore {
    /// The scored process.
    pub proc: ProcKey,
    /// `profile_dev + 2 × lag_share` (see the module docs).
    pub score: f64,
    /// Normalized distance of this window's count vector from the
    /// process's own EWMA profile, in `[0, 1)`.
    pub profile_dev: f64,
    /// This process's share of all currently-unmatched sends, in
    /// `[0, 1]`.
    pub lag_share: f64,
}

/// The online scorer: per-process EWMA profiles plus the per-window
/// scoring rule.
#[derive(Debug, Clone)]
pub(crate) struct AnomalyScorer {
    /// EWMA weight of the newest window in the profile.
    alpha: f64,
    profile: HashMap<ProcKey, [f64; KIND_BUCKETS]>,
    windows: u64,
}

impl Default for AnomalyScorer {
    fn default() -> AnomalyScorer {
        AnomalyScorer::new()
    }
}

fn l2(v: &[f64; KIND_BUCKETS]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

impl AnomalyScorer {
    /// A scorer with the default EWMA weight (0.4 — responsive but
    /// not dominated by any single window).
    pub(crate) fn new() -> AnomalyScorer {
        AnomalyScorer::with_alpha(0.4)
    }

    /// A scorer whose profiles give the newest window weight `alpha`.
    pub(crate) fn with_alpha(alpha: f64) -> AnomalyScorer {
        AnomalyScorer {
            alpha,
            profile: HashMap::new(),
            windows: 0,
        }
    }

    /// Scores one window and folds it into the profiles. `counts` maps
    /// each process to its event-kind count vector for the window
    /// (processes known from earlier windows but absent here are
    /// scored against a zero vector — going quiet *is* a deviation);
    /// `unmatched` maps processes to their currently-unmatched send
    /// counts. Returns scores sorted descending (ties by process key
    /// for determinism).
    pub(crate) fn score_window(
        &mut self,
        counts: &HashMap<ProcKey, [f64; KIND_BUCKETS]>,
        unmatched: &HashMap<ProcKey, u64>,
    ) -> Vec<AnomalyScore> {
        let total_unmatched: u64 = unmatched.values().sum();
        let mut keys: Vec<ProcKey> = counts.keys().chain(self.profile.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        let zero = [0.0; KIND_BUCKETS];
        let mut out = Vec::with_capacity(keys.len());
        for p in keys {
            let v = counts.get(&p).unwrap_or(&zero);
            let profile_dev = match self.profile.get(&p) {
                Some(prof) => {
                    let mut diff = [0.0; KIND_BUCKETS];
                    for i in 0..KIND_BUCKETS {
                        diff[i] = v[i] - prof[i];
                    }
                    l2(&diff) / (l2(prof) + l2(v) + 1.0)
                }
                // First sighting: no profile to deviate from yet.
                None => 0.0,
            };
            let lag_share = if total_unmatched == 0 {
                0.0
            } else {
                unmatched.get(&p).copied().unwrap_or(0) as f64 / total_unmatched as f64
            };
            out.push(AnomalyScore {
                proc: p,
                score: profile_dev + 2.0 * lag_share,
                profile_dev,
                lag_share,
            });
            // Update the profile after scoring, so a window never
            // explains itself away.
            let prof = self.profile.entry(p).or_insert(zero);
            for i in 0..KIND_BUCKETS {
                prof[i] = (1.0 - self.alpha) * prof[i] + self.alpha * v[i];
            }
        }
        self.windows += 1;
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.proc.cmp(&b.proc))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(machine: u32, pid: u32) -> ProcKey {
        ProcKey { machine, pid }
    }

    fn vec_with(sends: f64, recvs: f64) -> [f64; KIND_BUCKETS] {
        let mut v = [0.0; KIND_BUCKETS];
        v[0] = sends;
        v[2] = recvs;
        v
    }

    #[test]
    fn steady_behavior_scores_near_zero() {
        let mut s = AnomalyScorer::new();
        let counts: HashMap<_, _> = [(pk(1, 10), vec_with(8.0, 8.0))].into();
        let lag = HashMap::new();
        // EWMA warm-up: the profile needs a few windows to converge on
        // the steady vector.
        for _ in 0..3 {
            s.score_window(&counts, &lag);
        }
        for _ in 0..5 {
            let scores = s.score_window(&counts, &lag);
            assert!(scores[0].score < 0.2, "steady proc scored {scores:?}");
        }
    }

    #[test]
    fn going_quiet_deviates_from_profile() {
        let mut s = AnomalyScorer::new();
        let busy: HashMap<_, _> = [(pk(1, 10), vec_with(8.0, 8.0))].into();
        let lag = HashMap::new();
        for _ in 0..4 {
            s.score_window(&busy, &lag);
        }
        // The process disappears from the window entirely.
        let scores = s.score_window(&HashMap::new(), &lag);
        assert_eq!(scores.len(), 1, "known proc still scored");
        assert!(
            scores[0].profile_dev > 0.5,
            "quiet after busy must deviate: {scores:?}"
        );
    }

    #[test]
    fn lag_share_dominates_profile_deviation() {
        let mut s = AnomalyScorer::new();
        // Two processes with identical histories; one accumulates all
        // the unmatched sends.
        let counts: HashMap<_, _> = [
            (pk(1, 10), vec_with(8.0, 8.0)),
            (pk(2, 20), vec_with(8.0, 8.0)),
        ]
        .into();
        let lag = HashMap::new();
        for _ in 0..3 {
            s.score_window(&counts, &lag);
        }
        let lag: HashMap<_, _> = [(pk(2, 20), 6u64)].into();
        let scores = s.score_window(&counts, &lag);
        assert_eq!(scores[0].proc, pk(2, 20));
        assert!(scores[0].score > scores[1].score + 1.0, "{scores:?}");
    }

    #[test]
    fn scores_sort_deterministically() {
        let mut s = AnomalyScorer::new();
        let counts: HashMap<_, _> = [
            (pk(2, 20), vec_with(1.0, 1.0)),
            (pk(1, 10), vec_with(1.0, 1.0)),
        ]
        .into();
        let scores = s.score_window(&counts, &HashMap::new());
        assert_eq!(scores[0].proc, pk(1, 10), "tie broken by key");
    }
}
