//! Sample statistics, interval arithmetic and the output digest.

/// Nearest-rank `q`-quantile (0 < q <= 1) of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

/// A tail percentile together with what it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub label: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Samples above the percentile's nearest rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile's rank before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.9 / p99 / p90 that still has [`MIN_BEYOND`]
/// samples beyond its nearest rank: a percentile with fewer beyond it is
/// one or two outliers, not a tail. A sample too small even for p90 (the
/// video workloads' 24 ops) still reports p90, so the metric is never a
/// second copy of the median; `beyond` says how thin it is.
pub fn tail(samples: &[f64]) -> Tail {
    const CANDIDATES: [(&str, f64); 3] = [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)];
    let s = sorted(samples);
    let beyond = |q: f64| s.len() - rank(s.len(), q);
    let (label, q) =
        CANDIDATES.into_iter().find(|&(_, q)| beyond(q) >= MIN_BEYOND).unwrap_or(CANDIDATES[2]);
    Tail { label, value: nearest_rank(&s, q), samples: s.len(), beyond: beyond(q) }
}

/// Total length covered by a set of `[start, end)` intervals.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    covered + open.map_or(0.0, |(s, e)| e - s)
}

/// FNV-1a over 64-bit words: the digest of everything a workload outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf29ce484222325)
    }
}

impl Fnv {
    pub fn eat(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100000001b3);
    }

    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.eat(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 0.91), 10.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        let of = |n: usize| {
            let t = tail(&ramp(n));
            (t.label, t.value, t.beyond)
        };
        // Too few samples for any percentile: p90, flagged as thin.
        assert_eq!(of(24), ("p90", 22.0, 2));
        assert_eq!(of(99), ("p90", 90.0, 9));
        // 100 samples: p90 is rank 90, exactly 10 beyond.
        assert_eq!(of(100), ("p90", 90.0, 10));
        // 999 -> p99 is rank 990, 9 beyond; 1000 -> rank 990, 10 beyond.
        assert_eq!(of(999), ("p90", 900.0, 99));
        assert_eq!(of(1000), ("p99", 990.0, 10));
        assert_eq!(of(10_000), ("p99.9", 9990.0, 10));
        assert_eq!(tail(&[7.0]), Tail { label: "p90", value: 7.0, samples: 1, beyond: 0 });
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut []), 0.0);
        assert_eq!(union_len(&mut [(0.0, 2.0), (5.0, 6.0)]), 3.0);
        assert_eq!(union_len(&mut [(4.0, 6.0), (0.0, 3.0), (1.0, 2.0), (2.5, 5.0)]), 6.0);
        // Touching intervals merge without double counting.
        assert_eq!(union_len(&mut [(0.0, 1.0), (1.0, 2.0)]), 2.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.eat(1);
        a.eat(2);
        b.eat(2);
        b.eat(1);
        assert_ne!(a, b);
    }
}
