//! Latency quantiles from log-linear histograms.
//!
//! Every latency the benchmark reports is read off a [`Hist`]: 64 linear
//! sub-buckets per power of two, so a reported quantile is within 1/128
//! (0.8 %) of the latency some request really saw, and a histogram's
//! memory does not grow with the number of requests. Ranks are integer
//! nearest ranks, so p99 of 1000 samples is the 990th.

/// Linear sub-buckets per power of two: `2^SUB_BITS`.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values of `2^(MAX_EXP + 1)` ns (about 37 minutes) and more share the
/// last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS + 1) as usize * SUB;

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    if e > MAX_EXP {
        return BUCKETS - 1;
    }
    let m = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + m
}

/// The value a bucket stands for: the middle of its range.
fn value(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let k = b - SUB;
    let shift = (k / SUB) as u32;
    let low = ((SUB + k % SUB) as u64) << shift;
    low + (1u64 << shift) / 2
}

/// A log-linear histogram of nanosecond latencies. Its buckets are
/// allocated at the first sample, at full size.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value at 1-based nearest `rank`.
    pub fn at_rank(&self, rank: u64) -> u64 {
        assert!(rank >= 1 && rank <= self.n, "rank out of range");
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value(b);
            }
        }
        unreachable!("counts sum to n")
    }

    /// Median and tail; `None` when empty.
    pub fn summary(&self) -> Option<Summary> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        let mid = rank(n, 500);
        let tail_rank = if n > 10 {
            rank(n, 990).min(n - 10).max(mid)
        } else {
            mid
        };
        Some(Summary {
            n,
            p50: self.at_rank(mid),
            tail: self.at_rank(tail_rank),
            tail_q: tail_rank as f64 / n as f64,
        })
    }
}

impl FromIterator<u64> for Hist {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Hist {
        let mut h = Hist::default();
        iter.into_iter().for_each(|v| h.record(v));
        h
    }
}

/// 1-based nearest rank of the `per_mille`/1000 quantile among `n`
/// samples: the smallest rank `r` with `r / n >= per_mille / 1000`.
pub fn rank(n: u64, per_mille: u32) -> u64 {
    let r = (n * u64::from(per_mille)).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Median and tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: u64,
    pub p50: u64,
    /// The highest quantile, at most p99, with at least ten samples
    /// strictly beyond its rank; the median when fewer than 21 samples
    /// leave no such rank above it.
    pub tail: u64,
    /// The quantile `tail` stands for, as a fraction (0.99 for p99).
    pub tail_q: f64,
}

/// Median of a small set of floats (odd or even length); `NaN` if empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Rng;

    /// The oracle: sort everything and index the nearest rank.
    fn oracle(samples: &[u64], per_mille: u32) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        s[rank(s.len() as u64, per_mille) as usize - 1]
    }

    #[test]
    fn quantiles_match_sorted_array_oracle_within_one_percent() {
        let mut rng = Rng::new(7);
        for n in [1usize, 2, 3, 10, 11, 99, 100, 101, 1000, 4321] {
            // latencies from 1 ns to about 1 s, log-uniform
            let data: Vec<u64> = (0..n)
                .map(|_| {
                    let bits = rng.below(30);
                    1 + rng.below(1 << bits)
                })
                .collect();
            let h: Hist = data.iter().copied().collect();
            for pm in [1u32, 250, 500, 900, 990, 999, 1000] {
                let got = h.at_rank(rank(n as u64, pm));
                let want = oracle(&data, pm);
                let err = got.abs_diff(want) as f64 / want as f64;
                assert!(err <= 1.0 / 128.0, "n={n} per_mille={pm}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_saturate() {
        for v in 0..SUB as u64 {
            assert_eq!(value(bucket(v)), v);
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        // every bucket's value falls back into that bucket
        for b in 0..BUCKETS {
            assert_eq!(bucket(value(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn nearest_rank_is_exact_without_float_error() {
        // 0.99 × 1000 is not representable; integer ranks are
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(rank(100, 500), 50);
        assert_eq!(rank(101, 500), 51);
        assert_eq!(rank(1, 990), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [21u64, 50, 500, 999, 1000, 1001, 20_000] {
            let h: Hist = (1..=n).map(|v| v * 1000).collect();
            let s = h.summary().unwrap();
            let tail_rank = (s.tail_q * n as f64).round() as u64;
            assert!(
                n - tail_rank >= 10,
                "n={n}: only {} beyond the tail",
                n - tail_rank
            );
            let want = tail_rank * 1000;
            assert!(s.tail.abs_diff(want) as f64 <= want as f64 / 128.0, "n={n}");
            if n >= 1000 {
                assert!(s.tail_q >= 0.99 && s.tail_q < 0.99 + 1.0 / n as f64);
            }
        }
        for n in [3u64, 11, 20] {
            let h: Hist = (1..=n).rev().collect();
            let s = h.summary().unwrap();
            assert_eq!(s.tail, s.p50, "n={n}: too small for a tail, so the median");
        }
    }

    #[test]
    fn merging_equals_recording_everything() {
        let a: Hist = (0..500u64).map(|v| v * 37).collect();
        let b: Hist = (0..300u64).map(|v| v * 91 + 5).collect();
        let mut m = a.clone();
        m.merge(&b);
        let all: Hist = (0..500u64)
            .map(|v| v * 37)
            .chain((0..300u64).map(|v| v * 91 + 5))
            .collect();
        assert_eq!(m.len(), 800);
        assert_eq!(m.summary(), all.summary());
        m.merge(&Hist::default());
        assert_eq!(m.len(), 800);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_f64(&[]).is_nan());
    }
}
