//! Summary statistics and seed derivation shared by every workload.

/// Samples that must lie beyond a percentile before it is reported: a tail
/// figure read off fewer samples is one slow job, not a tail.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `samples`, which need not be
/// sorted. Returns `None` for an empty slice and when fewer than
/// [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    // Nearest rank: the smallest rank r (1-based) with r / n >= q / 100.
    let rank = (q * n as f64 / 100.0).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of `samples` (mean of the middle pair for an even count); `None`
/// for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// SplitMix64 finaliser: a well-mixed 64-bit value for `(seed, index)`, used
/// to derive every per-job seed from the workload seed alone.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-job seed that fits a protocol number exactly (JSON numbers travel
/// as `f64`, so seeds stay below 2^53).
pub fn wire_seed(seed: u64, index: u64) -> u64 {
    mix(seed, index) >> 11
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_slice_is_none_not_a_panic() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_picks_the_nearest_rank_and_reports_its_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(percentile(&samples, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile(&samples, 1.0).unwrap().value, 1.0);
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_samples_beyond_is_omitted() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 above it.
        assert!(percentile(&hundred, 90.0).is_some());
        assert_eq!(percentile(&hundred, 91.0), None);
        assert_eq!(percentile(&hundred, 99.0), None);
        assert_eq!(percentile(&hundred, 100.0), None);
        // Small runs report no tail at all, and no median below 20 samples.
        let small: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), None);
        assert!(percentile(&[0.0; 20], 50.0).is_some());
    }

    #[test]
    fn out_of_range_quantiles_are_none() {
        let samples = [1.0; 50];
        assert_eq!(percentile(&samples, 0.0), None);
        assert_eq!(percentile(&samples, 101.0), None);
        assert_eq!(percentile(&samples, f64::NAN), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn derived_seeds_are_distinct_and_fit_a_json_number() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| wire_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert!(seeds.iter().all(|&s| s < 1 << 53));
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
