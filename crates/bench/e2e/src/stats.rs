//! Exact order statistics over raw samples (no histograms: every reported
//! quantile is a measured value or an interpolation between two).

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples`, interpolating linearly
/// between the closest ranks. `None` when there are no samples.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * v.len().checked_sub(1)? as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The mean of `samples` without the lowest and highest `cut` share of
/// them (at least one each side once there are five or more), so that one
/// stalled session cannot move it.
pub fn trimmed_mean(samples: &[f64], cut: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = if n >= 5 {
        ((n as f64 * cut) as usize).max(1)
    } else {
        0
    };
    mean(&v[k..n - k])
}

/// Samples strictly above the `p`-quantile: a tail percentile is only
/// worth reporting when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match quantile(samples, p) {
        Some(q) => samples.iter().filter(|&&s| s > q).count(),
        None => 0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method), so repeat summaries
/// match an outside check exactly.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().map(|&x| (x, x));
    }
    // Position i/4 of the way through n+1 slots, 1-based, clamped to the
    // data (Python interpolates with the clamped index, too).
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(
            beyond(&(1..=100).map(f64::from).collect::<Vec<_>>(), 0.9),
            10
        );
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        assert_eq!(trimmed_mean(&[], 0.1), None);
        assert_eq!(trimmed_mean(&[1.0, 3.0], 0.1), Some(2.0));
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0], 0.1), Some(2.0));
        let v: Vec<f64> = (1..=20).map(f64::from).chain([1e9]).collect();
        // 21 samples: two cut from each side.
        assert_eq!(trimmed_mean(&v, 0.1), Some(11.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
    }
}
