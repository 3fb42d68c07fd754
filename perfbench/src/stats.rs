//! Summary statistics the benchmark reports: nearest-rank percentiles, the
//! tail rule, medians, and the KV traffic computed from pruning counts.

use topick_core::{PrecisionConfig, PruneStats};

/// A tail percentile must leave at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile with the facts needed to read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Which nearest-rank percentile that is.
    pub percentile: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has [`TAIL_BEYOND`]
/// samples above it (rank `n - 10`), or `None` with too few samples.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Sorts samples ascending (every sample must be a number).
#[must_use]
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median, averaging the middle pair of an even count.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Mean of the samples (0 for none).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// DRAM bytes of K chunks and kept V rows per decoded token, computed from
/// merged pruning counts: one count per decode attention call, one head.
#[must_use]
pub fn kv_bytes_per_token(
    prune: &PruneStats,
    dim: usize,
    pc: &PrecisionConfig,
    decoded: usize,
) -> f64 {
    if decoded == 0 {
        return 0.0;
    }
    let bits = prune.k_bits_fetched(dim, pc) + prune.v_bits_fetched(dim, pc);
    bits as f64 / 8.0 / decoded as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 10.0);
        assert_eq!(nearest_rank(&s, 51.0), 11.0);
        assert_eq!(nearest_rank(&s, 95.0), 19.0);
        assert_eq!(nearest_rank(&s, 100.0), 20.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&s).expect("11 samples have a tail");
        assert_eq!((t.value, t.samples), (1.0, 11));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&s).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // The tail is the nearest-rank percentile it names.
        assert_eq!(nearest_rank(&s, t.percentile), t.value);
        let s: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = tail(&s).expect("250 samples have a tail");
        assert_eq!((t.value, t.percentile), (240.0, 96.0));
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn kv_bytes_per_token_matches_a_hand_count() {
        // Paper precision: 12-bit operands fetched as three 4-bit chunks.
        let pc = PrecisionConfig::paper();
        assert_eq!(
            (pc.num_chunks(), pc.chunk_bits(), pc.total_bits()),
            (3, 4, 12)
        );
        // Two decode calls over 100 context tokens in total: every token
        // fetched its first chunk, 40 a second, 10 all three; 10 kept.
        let prune = PruneStats {
            tokens: 100,
            kept: 10,
            chunk_fetches: vec![100, 40, 10],
            pruned_at: vec![60, 30, 0],
        };
        // K: 150 chunks x 64 dims x 4 bits = 4800 bytes. V: 10 rows x 64
        // dims x 12 bits = 960 bytes. 5760 bytes over 2 tokens.
        assert_eq!(kv_bytes_per_token(&prune, 64, &pc, 2), 2880.0);
        assert_eq!(kv_bytes_per_token(&prune, 64, &pc, 0), 0.0);
    }
}
