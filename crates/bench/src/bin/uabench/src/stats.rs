//! Order statistics and operation accounting.

/// Percentiles the tail rule considers, in thousandths of a percent,
/// highest first.
const TAIL_CANDIDATES_MILLI: [u64; 3] = [99_900, 99_000, 90_000];

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it. `p` is in thousandths of
/// a percent (`99_000` is p99). `None` for an empty slice.
pub fn percentile_milli(sorted: &[f64], p_milli: u64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p_milli) - 1])
}

/// 1-based nearest rank `⌈p·n / 100⌉`, clamped to `[1, n]`.
fn nearest_rank(n: usize, p_milli: u64) -> usize {
    let n = n as u64;
    let rank = (p_milli * n).div_ceil(100_000);
    rank.clamp(1, n) as usize
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_milli(&sorted, 50_000)
}

/// The highest percentile that still has at least ten samples beyond its
/// rank, in thousandths of a percent; the median when even p90 has fewer.
pub fn tail_percentile_milli(n: usize) -> u64 {
    TAIL_CANDIDATES_MILLI
        .into_iter()
        .find(|&p| n >= 10 && n - nearest_rank(n, p) >= 10)
        .unwrap_or(50_000)
}

/// Operations attempted in a run, split into those that succeeded and
/// those that failed (transport error, bad status, per-query error or a
/// failed correctness check). Failure messages are kept, capped, for the
/// report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

const MAX_MESSAGES: usize = 8;

impl Tally {
    pub fn succeed(&mut self) {
        self.ok += 1;
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message.into());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_on_hand_made_vectors() {
        let v = ascending(10);
        assert_eq!(percentile_milli(&v, 50_000), Some(5.0));
        assert_eq!(percentile_milli(&v, 90_000), Some(9.0));
        assert_eq!(percentile_milli(&v, 91_000), Some(10.0));
        assert_eq!(percentile_milli(&v, 99_000), Some(10.0));
        assert_eq!(percentile_milli(&v, 1), Some(1.0));
        assert_eq!(percentile_milli(&[4.0], 99_900), Some(4.0));
        assert_eq!(percentile_milli(&[], 50_000), None);
        let v = ascending(1000);
        assert_eq!(percentile_milli(&v, 99_000), Some(990.0));
        assert_eq!(percentile_milli(&v, 99_900), Some(999.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // 10 000 samples: p99.9 has exactly 10 beyond it.
        assert_eq!(tail_percentile_milli(10_000), 99_900);
        assert_eq!(tail_percentile_milli(9_999), 99_000);
        // 1 000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail_percentile_milli(1_000), 99_000);
        assert_eq!(tail_percentile_milli(999), 90_000);
        assert_eq!(tail_percentile_milli(100), 90_000);
        assert_eq!(tail_percentile_milli(99), 50_000);
        assert_eq!(tail_percentile_milli(3), 50_000);
        assert_eq!(tail_percentile_milli(0), 50_000);
        for n in [100, 999, 1_000, 5_000, 10_000, 123_457] {
            let p = tail_percentile_milli(n);
            assert!(n - nearest_rank(n, p) >= 10, "n {n} p {p}");
        }
    }

    #[test]
    fn attempted_is_ok_plus_failed() {
        let mut t = Tally::default();
        for i in 0..25 {
            if i % 5 == 0 {
                t.fail(format!("op {i}"));
            } else {
                t.succeed();
            }
        }
        assert_eq!((t.ok, t.failed, t.attempted()), (20, 5, 25));
        for i in 0..10 {
            t.fail(format!("more {i}"));
        }
        assert_eq!((t.ok, t.failed, t.attempted()), (20, 15, 35));
        assert_eq!(t.messages.len(), MAX_MESSAGES);
        assert_eq!(t.messages[0], "op 0");
    }
}
