//! Order statistics for repeated measurements, and the comparison
//! rule for two sets of runs.

/// Sorted copy of `values` (NaNs would be a bug upstream: panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    v
}

/// The median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so the spread printed here is the one the driver checks. A sample
/// of fewer than two values has no spread: both quartiles equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The `p`-th percentile (`0 < p <= 100`) by the nearest-rank rule;
/// 0 for an empty sample. `values` must already be sorted ascending.
pub fn percentile_sorted(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric on one workload across two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// Either set's spread is wider than the bound, and the sets
    /// overlap: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the comparison table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative worsening of median `b` against median `a`: positive when
/// `b` is worse, as a share of `a`.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two sets of runs of one metric (choosing-metrics §6.5):
/// regressed when `b`'s median is worse by more than `bound`;
/// unresolved when a spread is wider than the bound, unless every run
/// of `b` reads better than every run of `a`.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(median(a), median(b), better);
    if spread(a) > bound || spread(b) > bound {
        let (sa, sb) = (sorted(a), sorted(b));
        let b_all_better = match (better, sa.first(), sa.last(), sb.first(), sb.last()) {
            (Better::Lower, Some(a_min), _, _, Some(b_max)) => b_max < a_min,
            (Better::Higher, _, Some(a_max), Some(b_min), _) => b_min > a_max,
            _ => false,
        };
        if !b_all_better {
            return Verdict::Unresolved;
        }
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.5), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn compare_tells_ok_regressed_and_unresolved_apart() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(compare(&base, &same, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            compare(&base, &slow, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better flips the sign: 120 is a gain, not a loss.
        assert_eq!(compare(&base, &slow, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            compare(&slow, &base, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // A noisy set cannot settle a small difference...
        let noisy = [80.0, 100.0, 125.0, 90.0, 115.0];
        assert_eq!(
            compare(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the base.
        let fast_noisy = [40.0, 50.0, 70.0, 45.0, 60.0];
        assert_eq!(
            compare(&base, &fast_noisy, Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
    }
}
