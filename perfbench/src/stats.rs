//! Order statistics for the benchmark's timings.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentiles a tail may be reported at, highest first, in tenths of
/// a percent.
const LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 800, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The tail of `samples`. With fewer than 20 samples no percentile has
/// ten beyond it; the median is reported then, with its true `beyond`
/// count, so the shortfall is visible rather than hidden.
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let at = |p: u64| {
        // Nearest rank, 1-based: ceil(p/1000 * n), in integers.
        let rank = ((p as usize * n).div_ceil(1000)).max(1);
        (rank, n - rank)
    };
    let p = LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| at(p).1 >= MIN_BEYOND)
        .unwrap_or(500);
    let (rank, beyond) = at(p);
    Tail {
        pct: p as f64 / 10.0,
        value: s[rank - 1],
        beyond,
        samples: n,
    }
}

/// Steps per block when a pass is too short for a tail of its own
/// (`batch-analyze`, one step a pass): its tail is then p80.
pub const BLOCK: usize = 5 * MIN_BEYOND;

/// Cuts a run's steps, given per pass, into the blocks whose tails are
/// taken: the passes themselves when each has at least `2 * MIN_BEYOND`
/// steps, and otherwise consecutive blocks of [`BLOCK`] steps, the
/// remainder dropped. A block's size, and so its tail's percentile,
/// never depends on how many passes the host's speed let a run make.
/// A run with fewer than [`BLOCK`] steps gets one block of all of them.
pub fn tail_blocks(passes: &[&[f64]]) -> Vec<Vec<f64>> {
    if passes.iter().all(|p| p.len() >= 2 * MIN_BEYOND) {
        return passes.iter().map(|p| p.to_vec()).collect();
    }
    let steps: Vec<f64> = passes.concat();
    if steps.len() < BLOCK {
        return vec![steps];
    }
    steps.chunks_exact(BLOCK).map(<[f64]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        // 10_000 samples: p99.9 has exactly 10 beyond it.
        let t = tail(&ramp(10_000));
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.9, 9_990.0, 10, 10_000)
        );
        // 9_999 samples: p99.9 would leave only 9, so p99 is reported.
        let t = tail(&ramp(9_999));
        assert_eq!((t.pct, t.beyond), (99.0, 99));
        // 2_086 samples (one pass of rounds): p99 leaves 20.
        let t = tail(&ramp(2_086));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 2_066.0, 20));
        // 60 samples: p90 leaves 6, p80 leaves 12.
        let t = tail(&ramp(60));
        assert_eq!((t.pct, t.value, t.beyond), (80.0, 48.0, 12));
    }

    #[test]
    fn tail_of_every_size_has_ten_beyond_or_falls_back_to_the_median() {
        for n in 1..3_000 {
            let t = tail(&ramp(n));
            assert_eq!(t.samples, n);
            assert!(t.beyond >= MIN_BEYOND || t.pct == 50.0, "n={n}: {t:?}");
            // The reported value is the sample at that rank.
            assert_eq!(t.value as usize, n - t.beyond);
        }
    }

    #[test]
    fn tail_blocks_keep_the_percentile_fixed() {
        // Long passes are their own blocks.
        let long = ramp(2_086);
        assert_eq!(tail_blocks(&[&long, &long]), vec![long.clone(), long]);
        // Single-step passes pool into blocks of BLOCK, remainder dropped;
        // each block's tail is p80 with ten beyond, at 85 steps as at 160.
        for n in [85, 104, 160] {
            let steps = ramp(n);
            let passes: Vec<&[f64]> = steps.chunks(1).collect();
            let blocks = tail_blocks(&passes);
            assert_eq!(blocks.len(), n / BLOCK, "n={n}");
            for b in &blocks {
                let t = tail(b);
                assert_eq!((t.pct, t.beyond, t.samples), (80.0, 10, BLOCK), "n={n}");
            }
        }
        // Too few steps for one block: one block of all of them.
        let steps = ramp(30);
        let passes: Vec<&[f64]> = steps.chunks(1).collect();
        assert_eq!(tail_blocks(&passes), vec![steps]);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(500)));
    }
}
