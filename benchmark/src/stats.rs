//! Order statistics and digests shared by every workload.

/// Median of the samples (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of the samples; 0 for no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the conventional tail percentiles that still has at least
/// ten samples beyond it, or `None` when even p90 has not (fewer than 100
/// samples).
pub fn highest_supported_percentile(sample_count: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|tenths| sample_count * (1000 - tenths) >= 10 * 1000)
        .map(|tenths| tenths as f64 / 10.0)
}

/// Incremental FNV-1a over 64-bit words: the result digest every workload
/// prints so a behaviour change is visible run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds the little-endian bytes of `word` into the digest.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Folds the bit pattern of a float into the digest.
    pub fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(6000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.float(2.5);
        let mut b = Digest::default();
        b.word(1);
        b.float(2.5);
        assert_eq!(a, b);
        // FNV-1a of the empty input is the offset basis; of "a" is the
        // published test vector.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut v = Digest::default();
        v.bytes(b"a");
        assert_eq!(v.value(), 0xaf63_dc4c_8601_ec8c);
        let mut c = Digest::default();
        c.float(2.5);
        c.word(1);
        assert_ne!(a, c);
    }
}
