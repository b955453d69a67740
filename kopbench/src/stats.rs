//! Summary statistics under the benchmark's reporting rules.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile the benchmark will report as a tail.
pub const TAIL_CEILING: u32 = 99;

/// A latency distribution reduced to what the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail value: the highest percentile up to p99 that leaves at
    /// least [`MIN_BEYOND`] samples above it.
    pub tail: f64,
    /// Which percentile `tail` is (50 when too few samples for any tail).
    pub tail_pct: u32,
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: u32, n: usize) -> usize {
    ((pct as usize * n).div_ceil(100)).max(1)
}

/// The highest whole percentile `p <= 99` whose nearest-rank position
/// leaves at least [`MIN_BEYOND`] samples strictly above it, or `None`
/// when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=TAIL_CEILING)
        .rev()
        .find(|&p| n >= rank(p, n) + MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
fn percentile_sorted(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(pct, sorted.len()) - 1]
}

/// Summarize samples (any order). `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(&v, 50);
    let (tail, tail_pct) = match tail_percentile(v.len()) {
        Some(p) => (percentile_sorted(&v, p), p),
        None => (p50, 50),
    };
    Some(Summary {
        n: v.len(),
        p50,
        tail,
        tail_pct,
    })
}

/// A histogram of non-negative integer samples (ns latencies, queue
/// depths) that is exact: values below [`Hist::EXACT`] are counted per
/// value, larger ones kept as they are. Memory stays flat over a run
/// of millions of requests, so the benchmark's own bookkeeping does not
/// grow the process's peak memory with the run length.
#[derive(Clone, Debug)]
pub struct Hist {
    small: Vec<u64>,
    large: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            small: vec![0; Hist::EXACT as usize],
            large: Vec::new(),
            n: 0,
        }
    }
}

impl Hist {
    /// Values below this are counted per value.
    pub const EXACT: u64 = 1 << 16;

    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        if v < Hist::EXACT {
            self.small[v as usize] += 1;
        } else {
            self.large.push(v);
        }
        self.n += 1;
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.small.fill(0);
        self.large.clear();
        self.n = 0;
    }

    /// The `k`-th smallest sample, 1-based.
    fn kth(&self, k: u64) -> u64 {
        let mut seen = 0;
        for (v, &c) in self.small.iter().enumerate() {
            seen += c;
            if seen >= k {
                return v as u64;
            }
        }
        let mut large = self.large.clone();
        large.sort_unstable();
        large[(k - seen - 1) as usize]
    }

    /// Median and tail under the benchmark's percentile rule, exactly
    /// as [`summarize`] gives them for the raw samples.
    pub fn summary(&self) -> Option<Summary> {
        let n = self.n as usize;
        if n == 0 {
            return None;
        }
        let p50 = self.kth(rank(50, n) as u64) as f64;
        let (tail, tail_pct) = match tail_percentile(n) {
            Some(p) => (self.kth(rank(p, n) as u64) as f64, p),
            None => (p50, 50),
        };
        Some(Summary {
            n,
            p50,
            tail,
            tail_pct,
        })
    }
}

/// Median of a set of values (nearest rank); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// Attempted and failed requests. Every timed request — data or
/// control — and every output check is one attempt; an `Err`, an output
/// mismatch or a failed check is one failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Tally {
    /// Count one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted; `None` when nothing was attempted.
    pub fn failed_ratio(&self) -> Option<f64> {
        (self.attempted > 0).then(|| self.failed as f64 / self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 above.
        assert_eq!(tail_percentile(1000), Some(99));
        // 999 samples: rank ceil(989.01) = 990 leaves only 9 — fall back.
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        // 11 samples: p1..p9 keep rank 1, which leaves 10 above.
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..3000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
            if p < TAIL_CEILING {
                assert!(
                    n - rank(p + 1, n) < MIN_BEYOND,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn summary_reports_count_and_chosen_percentile() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples).expect("nonempty");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!((s.tail, s.tail_pct), (990.0, 99));

        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&few).expect("nonempty");
        assert_eq!((s.n, s.tail, s.tail_pct), (100, 90.0, 90));

        let tiny = [3.0, 1.0, 2.0];
        let s = summarize(&tiny).expect("nonempty");
        assert_eq!((s.p50, s.tail, s.tail_pct), (2.0, 2.0, 50));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn histogram_matches_raw_samples() {
        let mut r = 0x1234_5678u64;
        let mut raw = Vec::new();
        let mut h = Hist::default();
        for i in 0..5000 {
            r = r
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly small values, a tail beyond the exact range.
            let v = if i % 97 == 0 {
                Hist::EXACT + (r >> 40)
            } else {
                (r >> 33) % 5000
            };
            raw.push(v as f64);
            h.record(v);
        }
        assert_eq!(h.summary(), summarize(&raw));
        h.clear();
        assert!(h.summary().is_none());
    }

    #[test]
    fn failed_ratio_counts_every_request_and_check() {
        let mut data = Tally::default();
        for i in 0..97 {
            data.record(i != 5);
        }
        let mut control = Tally::default();
        control.record(true);
        control.record(false);
        control.record(true);
        let mut checks = Tally::default();
        checks.record(true);
        checks.record(true);
        checks.record(true);

        let mut all = Tally::default();
        for t in [data, control, checks] {
            all.absorb(t);
        }
        assert_eq!(all.attempted, 103, "data + control + checks");
        assert_eq!(all.failed, 2);
        assert_eq!(all.failed_ratio(), Some(2.0 / 103.0));
        assert_eq!(Tally::default().failed_ratio(), None);
    }
}
