//! Sample arithmetic: medians and the tail rule.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile, so the tail is a measured value and not a single outlier.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `samples` (total order; NaN sorts last).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); NaN
/// for no samples, which the result line refuses to print.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples strictly above its rank: the sample at sorted index
/// `n - 1 - TAIL_BEYOND`, reported with its percentile `100·(rank)/n`
/// where `rank = index + 1`. `None` below `TAIL_BEYOND + 1` samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - 1 - TAIL_BEYOND;
    Some((v[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // 11 samples: the minimum, with all ten others above it.
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let (v, pct) = tail(&eleven).unwrap();
        assert_eq!(v, 0.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // 1000 samples: the 99th percentile exactly (990 at or below).
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, pct) = tail(&many).unwrap();
        assert_eq!(v, 990.0);
        assert_eq!(pct, 99.0);
        let beyond = many.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        let mut s = vec![1.0; 5];
        s.extend(vec![2.0; 10]);
        // Index 4 is the last 1.0; ten 2.0s lie beyond it.
        assert_eq!(tail(&s).unwrap().0, 1.0);
    }
}
