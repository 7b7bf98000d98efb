//! Order statistics with the benchmark's percentile rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` in (0, 1): the value at rank `ceil(p * n)`.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Interquartile mean: the mean of the middle half of the sorted values
/// (all of them below four). Robust to outliers like the median, but where
/// samples fall into two modes (a host whose cores switch between a fast
/// and a slow state) it moves in proportion to the modes' shares instead of
/// jumping from one mode to the other when the shares cross one half.
pub fn iq_mean(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let q = v.len() / 4;
    mean(&v[q..v.len() - q])
}

/// Mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Samples keyed by metric name.
#[derive(Debug, Default)]
pub struct Samples(std::collections::BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Appends one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    /// All samples of `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`'s samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        median(self.get(name))
    }

    /// Interquartile mean of `name`'s samples.
    pub fn iq_mean(&self, name: &str) -> Option<f64> {
        iq_mean(self.get(name))
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_each_side() {
        assert_eq!(iq_mean(&[]), None);
        assert_eq!(iq_mean(&[5.0]), Some(5.0));
        assert_eq!(iq_mean(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(iq_mean(&[1.0, 2.0, 3.0, 1000.0]), Some(2.5));
        // Two modes: the median jumps with the majority, the interquartile
        // mean moves in proportion.
        let mix = |slow: usize| {
            let mut v = vec![1.0; 8 - slow];
            v.extend(vec![2.0; slow]);
            (median(&v).unwrap(), iq_mean(&v).unwrap())
        };
        assert_eq!(mix(3), (1.0, 1.25));
        assert_eq!(mix(4), (1.5, 1.5));
        assert_eq!(mix(5), (2.0, 1.75));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond it, so p99 is reportable.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves nine beyond it.
        assert_eq!(percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn percentile_rule_scales_with_the_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.91), None);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_counts_infinities() {
        // A failed request counts as missing every limit: +inf sorts last.
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        v[0] = f64::INFINITY;
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        let all_failed = vec![f64::INFINITY; 1000];
        assert_eq!(percentile(&all_failed, 0.99), Some(f64::INFINITY));
    }
}
