//! Measurement arithmetic shared by every workload: nearest-rank
//! percentiles with the ten-samples-beyond tail rule, output
//! fingerprints and failure accounting, the open-loop backlog detector
//! and the rate-ladder search. Pure functions, unit-tested below.

use ringcnn_tensor::prelude::Tensor;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 · n)`.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

/// Ascending copy of a sample.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank p50).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50.0)
}

/// A reported tail percentile: which percentile the sample supports,
/// over how many samples, and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile actually reported (whole percent; 100 = the maximum).
    pub pct: u32,
    /// Sample count.
    pub n: usize,
    /// Value at that percentile.
    pub value: f64,
}

impl Tail {
    /// `p90 (n=170)`-style label for the human-readable report.
    pub fn label(&self) -> String {
        if self.pct == 100 {
            format!("max (n={}, too few for a percentile)", self.n)
        } else {
            format!("p{} (n={})", self.pct, self.n)
        }
    }
}

/// The highest whole percentile at or below `want` that leaves at least
/// ten samples beyond its nearest rank. A sample too small for even p50
/// reports its maximum, the conservative reading.
pub fn tail(samples: &[f64], want: u32) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    for pct in (50..=want).rev() {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        if n >= rank + 10 {
            return Tail {
                pct,
                n,
                value: s[rank - 1],
            };
        }
    }
    Tail {
        pct: 100,
        n,
        value: s.last().copied().unwrap_or(0.0),
    }
}

/// FNV-1a fingerprint of a tensor's shape and exact f32 bits: two
/// outputs share a fingerprint only if they are bit-identical (up to
/// hash collisions).
pub fn fingerprint(t: &Tensor) -> u64 {
    let s = t.shape();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in [s.n, s.c, s.h, s.w] {
        eat(d as u64);
    }
    for v in t.as_slice() {
        eat(v.to_bits() as u64);
    }
    h
}

/// Operations attempted and failed. A failure is an error reply, a
/// refusal, a timeout, or an output that does not match its oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed for any reason (includes `rejected`).
    pub failed: u64,
    /// Of the failures, the ones the server refused (`overloaded`,
    /// `deadline`, `shutting_down`).
    pub rejected: u64,
    /// Of the failures, the ones whose output differed from the oracle.
    pub mismatched: u64,
}

/// Wire error codes that mean the server refused the work.
pub fn is_refusal(code: &str) -> bool {
    matches!(code, "overloaded" | "deadline" | "shutting_down")
}

/// Tallies operation results against an oracle: `results` holds each
/// operation's key and either its output fingerprint or its error code;
/// `expected` gives the oracle fingerprint for a key (`None` = no
/// oracle, which is itself a failure).
pub fn tally<K>(
    results: &[(K, Result<u64, String>)],
    expected: impl Fn(&K) -> Option<u64>,
) -> Tally {
    let mut t = Tally::default();
    for (key, res) in results {
        t.attempted += 1;
        match res {
            Ok(got) if expected(key) == Some(*got) => {}
            Ok(_) => {
                t.failed += 1;
                t.mismatched += 1;
            }
            Err(code) => {
                t.failed += 1;
                if is_refusal(code) {
                    t.rejected += 1;
                }
            }
        }
    }
    t
}

/// Whether an open-loop phase built a growing backlog: `lateness_ms[i]`
/// is how late request `i` left the client relative to its due time, in
/// send order. A sustainable rate keeps lateness stationary; an
/// unsustainable one makes it grow for as long as the phase lasts. The
/// detector compares the medians of the first and last quarters, so a
/// single stall does not trip it.
pub fn backlog_growing(lateness_ms: &[f64], interval_ms: f64) -> bool {
    let n = lateness_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&lateness_ms[..q]);
    let last = median(&lateness_ms[n - q..]);
    last - first > (2.0 * interval_ms).max(2.0)
}

/// The rate ladder: a coarse geometric climb from `start` until the
/// first rate that misses the objective, then `refine` bisection steps
/// (geometric midpoints) between the last pass and the first miss.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    /// First rate tried (requests per second).
    pub start: f64,
    /// Coarse step factor (> 1).
    pub factor: f64,
    /// Bisection steps after the coarse climb.
    pub refine: usize,
    /// Highest rate ever offered.
    pub max_rate: f64,
}

/// Runs the ladder. `probe(rate)` offers `rate` for one step and returns
/// `Some(achieved rate)` when the step met the objective, else `None`.
/// Returns the highest offered rate that met the objective with what
/// its probe reported, or `None` when not even the first step did.
pub fn ladder_search(l: Ladder, mut probe: impl FnMut(f64) -> Option<f64>) -> Option<(f64, f64)> {
    assert!(l.factor > 1.0 && l.start > 0.0, "ladder must climb");
    let mut best: Option<(f64, f64)> = None;
    let mut fail: Option<f64> = None;
    let mut rate = l.start;
    while rate <= l.max_rate {
        match probe(rate) {
            Some(achieved) => {
                best = Some((rate, achieved));
                rate *= l.factor;
            }
            None => {
                fail = Some(rate);
                break;
            }
        }
    }
    if let (Some(_), Some(mut hi)) = (best, fail) {
        for _ in 0..l.refine {
            let lo = best.map(|b| b.0).unwrap_or(l.start);
            let mid = (lo * hi).sqrt();
            match probe(mid) {
                Some(achieved) => best = Some((mid, achieved)),
                None => hi = mid,
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_tensor::prelude::Shape4;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples support p99: rank 990 leaves exactly ten beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s, 99);
        assert_eq!((t.pct, t.n, t.value), (99, 1000, 990.0));
        // 500 samples: p99 leaves 5, p98 leaves 10.
        let t = tail(&s[..500], 99);
        assert_eq!((t.pct, t.value), (98, 490.0));
        // 170 samples asked for p90: rank 153 leaves 17, so p90 stands.
        let t = tail(&s[..170], 90);
        assert_eq!(t.pct, 90);
        // 83 samples: p90 (rank 75) leaves 8; p87 (rank 73) leaves 10.
        let t = tail(&s[..83], 90);
        assert_eq!((t.pct, t.value), (87, 73.0));
        // Fewer than 20 samples cannot support even p50.
        let t = tail(&s[..19], 99);
        assert_eq!((t.pct, t.n, t.value), (100, 19, 19.0));
        assert!(t.label().contains("n=19"));
        // Order of the input does not matter.
        let mut rev = s[..500].to_vec();
        rev.reverse();
        assert_eq!(tail(&rev, 99), tail(&s[..500], 99));
    }

    #[test]
    fn corrupted_output_counts_as_a_failure() {
        let a = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![0.25, 0.5, 0.75, 1.0]);
        let mut b = a.clone();
        // Flip the lowest mantissa bit of one sample.
        let v = b.as_slice()[2];
        b.as_mut_slice()[2] = f32::from_bits(v.to_bits() ^ 1);
        let want = fingerprint(&a);
        assert_ne!(fingerprint(&b), want);

        let results = vec![
            (0usize, Ok(fingerprint(&a))),
            (0, Ok(fingerprint(&b))),
            (0, Err("overloaded".to_string())),
            (0, Err("timeout".to_string())),
            (1, Ok(fingerprint(&a))),
        ];
        let t = tally(&results, |k| (*k == 0).then_some(want));
        assert_eq!(t.attempted, 5);
        // corrupted + refused + timed out + no oracle for key 1
        assert_eq!(t.failed, 4);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.mismatched, 2);
    }

    #[test]
    fn backlog_detector_separates_steady_from_growing_lateness() {
        // Stationary jitter around 0.3 ms with rare 6 ms stalls.
        let steady: Vec<f64> = (0..400)
            .map(|i| {
                0.3 + 0.2 * ((i * 37 % 11) as f64 / 11.0) + if i % 97 == 0 { 6.0 } else { 0.0 }
            })
            .collect();
        assert!(!backlog_growing(&steady, 2.5));
        // A stall at the very end is not a trend.
        let mut late_spike = steady.clone();
        for v in late_spike.iter_mut().skip(390) {
            *v += 40.0;
        }
        assert!(!backlog_growing(&late_spike, 2.5));
        // 5% overload at 400 req/s: each request leaves 0.125 ms later
        // than the one before.
        let ramp: Vec<f64> = (0..400).map(|i| 0.3 + 0.125 * i as f64).collect();
        assert!(backlog_growing(&ramp, 2.5));
        // Too few samples to judge.
        assert!(!backlog_growing(&ramp[..6], 2.5));
    }

    #[test]
    fn ladder_climbs_then_bisects_to_the_knee() {
        let knee = 730.0;
        let mut offered = Vec::new();
        let (best, achieved) = ladder_search(
            Ladder {
                start: 100.0,
                factor: 1.5,
                refine: 4,
                max_rate: 5000.0,
            },
            |r| {
                offered.push(r);
                (r <= knee).then_some(r * 0.99)
            },
        )
        .expect("the first step passes");
        assert!(best <= knee);
        // Four halvings of a 1.5× bracket (in log space) land within 2.6%.
        assert!(best >= knee / 1.5f64.powf(1.0 / 16.0), "best {best}");
        assert_eq!(achieved, best * 0.99);
        // Coarse: 100, 150, 225, 337.5, 506.25 pass, 759.4 fails; then 4 refinements.
        assert_eq!(offered.len(), 6 + 4);
        assert_eq!(offered[5], 759.375);
    }

    #[test]
    fn ladder_reports_none_when_the_first_step_fails_and_caps_at_max_rate() {
        let ladder = Ladder {
            start: 100.0,
            factor: 2.0,
            refine: 3,
            max_rate: 1000.0,
        };
        let mut probes = 0;
        let res = ladder_search(ladder, |_| {
            probes += 1;
            None
        });
        assert_eq!((res, probes), (None, 1));

        let mut probes = 0;
        let res = ladder_search(ladder, |r| {
            probes += 1;
            Some(r)
        });
        // 100, 200, 400, 800 pass; 1600 is above the cap and never offered.
        assert_eq!((res, probes), (Some((800.0, 800.0)), 4));
    }
}
