//! Order statistics, throughput arithmetic and regression bounds.

/// Nearest-rank quantile: the smallest sample with at least `q · n`
/// samples at or below it. `q` is in `(0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentiles a tail is reported at, in per-mille, highest first.
const TAIL_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// The highest reported percentile (in per-mille) that leaves at least ten
/// of `n` samples above its nearest rank, or `None` below 20 samples.
pub fn tail_per_mille(n: usize) -> Option<usize> {
    TAIL_PER_MILLE.into_iter().find(|&pm| n - (n * pm).div_ceil(1000) >= 10)
}

/// Bytes of `symbols` symbols at their native width — the MB/s basis.
pub fn native_bytes(symbols: usize, symbol_bytes: u8) -> u64 {
    symbols as u64 * u64::from(symbol_bytes)
}

/// Throughput in MB/s (10^6 bytes per second).
pub fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e6
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// True when `new` is worse than `base` by more than `bound`, a share of
/// `base`. A bound of 0 makes any worsening a regression.
pub fn regressed(better: Better, bound: f64, base: f64, new: f64) -> bool {
    match better {
        Better::Higher => new < base * (1.0 - bound),
        Better::Lower => new > base * (1.0 + bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 0.91), 10.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 0.01), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0]), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        for n in 20..3000 {
            let pm = tail_per_mille(n).unwrap();
            assert!(n - (n * pm).div_ceil(1000) >= 10, "n={n} pm={pm}");
        }
    }

    #[test]
    fn throughput_uses_native_symbol_width() {
        assert_eq!(native_bytes(8 << 20, 1), 8 << 20);
        assert_eq!(native_bytes(8 << 20, 2), 16 << 20);
        let mbps = mb_per_s(native_bytes(1_000_000, 2), 0.5);
        assert!((mbps - 4.0).abs() < 1e-12, "{mbps}");
    }

    #[test]
    fn bounds_follow_direction() {
        // Higher is better: a 10 % bound tolerates a drop to 90 % of base.
        assert!(!regressed(Better::Higher, 0.10, 100.0, 91.0));
        assert!(!regressed(Better::Higher, 0.10, 100.0, 250.0));
        assert!(regressed(Better::Higher, 0.10, 100.0, 89.0));
        // Lower is better: a rise past 110 % of base regresses.
        assert!(!regressed(Better::Lower, 0.10, 100.0, 109.0));
        assert!(!regressed(Better::Lower, 0.10, 100.0, 1.0));
        assert!(regressed(Better::Lower, 0.10, 100.0, 111.0));
        // A zero bound is exact: equal passes, any worsening fails.
        assert!(!regressed(Better::Higher, 0.0, 4.5, 4.5));
        assert!(regressed(Better::Higher, 0.0, 4.5, 4.499_999));
        assert!(regressed(Better::Lower, 0.0, 4.5, 4.500_001));
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }
}
