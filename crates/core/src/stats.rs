//! Per-dimension statistics over subsets of a [`Dataset`].
//!
//! The VAMSplit strategy (paper §4.1) picks the dimension of **maximum
//! variance** at every partitioning step. These helpers compute variances
//! with `f64` accumulation over an id-subset without materializing the
//! subset.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::simd::{self, Isa};

/// Per-dimension mean and (population) variance of a point subset.
#[derive(Debug, Clone, PartialEq)]
pub struct DimStats {
    /// Mean per dimension.
    pub mean: Vec<f64>,
    /// Population variance per dimension.
    pub variance: Vec<f64>,
}

/// Computes per-dimension mean/variance of the points at `ids`.
///
/// Uses the shifted two-pass formulation: one pass for means, one for central
/// second moments. Population (1/n) normalization — only the argmax matters
/// to the split, so the normalization choice is irrelevant there, but it is
/// documented for the tests.
///
/// Runs on the [`simd::active`] ISA; see [`dim_stats_with`].
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
pub fn dim_stats(data: &Dataset, ids: &[u32]) -> Result<DimStats> {
    dim_stats_with(simd::active(), data, ids)
}

/// [`dim_stats`] on an explicit ISA. Every ISA gives the same bits: each
/// dimension keeps its own `f64` chain over `ids` in order (a lane per
/// dimension, never a sum across dimensions), and the variance pass keeps
/// its subtract, multiply and add as separate ops. AVX2 runs four
/// dimensions per instruction; SSE2 shares the scalar loops, which the
/// compiler already vectorizes two-wide. Both passes prefetch the row
/// [`simd::PREFETCH_AHEAD`] ids ahead, since split segments gather their
/// rows from anywhere in the dataset.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn dim_stats_with(isa: Isa, data: &Dataset, ids: &[u32]) -> Result<DimStats> {
    if ids.is_empty() {
        return Err(Error::EmptyInput("ids for dim_stats"));
    }
    let d = data.dim();
    let n = ids.len() as f64;
    let mut mean = vec![0.0f64; d];
    if isa == Isa::Avx2 {
        simd::sum_rows_avx2(data, ids, &mut mean);
    } else {
        for (i, &id) in ids.iter().enumerate() {
            simd::prefetch_ahead(data, ids, i);
            for (m, &x) in mean.iter_mut().zip(data.point(id as usize)) {
                *m += f64::from(x);
            }
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut variance = vec![0.0f64; d];
    if isa == Isa::Avx2 {
        simd::sum_sq_devs_avx2(data, ids, &mean, &mut variance);
    } else {
        for (i, &id) in ids.iter().enumerate() {
            simd::prefetch_ahead(data, ids, i);
            for ((v, &x), &m) in variance.iter_mut().zip(data.point(id as usize)).zip(&mean) {
                let dev = f64::from(x) - m;
                *v += dev * dev;
            }
        }
    }
    for v in &mut variance {
        *v /= n;
    }
    Ok(DimStats { mean, variance })
}

/// Returns the dimension with the largest variance among the points at
/// `ids` (ties broken towards the lower index).
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] if `ids` is empty.
pub fn max_variance_dim(data: &Dataset, ids: &[u32]) -> Result<usize> {
    let stats = dim_stats(data, ids)?;
    let mut best = 0usize;
    let mut best_v = stats.variance[0];
    for (j, &v) in stats.variance.iter().enumerate().skip(1) {
        if v > best_v {
            best = j;
            best_v = v;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        // dim 0: {0, 0, 0, 0} — zero variance
        // dim 1: {0, 2, 4, 6} — mean 3, variance 5
        Dataset::from_flat(2, vec![0.0, 0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 6.0]).unwrap()
    }

    #[test]
    fn stats_match_hand_computation() {
        let d = data();
        let s = dim_stats(&d, &[0, 1, 2, 3]).unwrap();
        assert_eq!(s.mean, vec![0.0, 3.0]);
        assert_eq!(s.variance[0], 0.0);
        assert!((s.variance[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn subset_stats_use_only_listed_ids() {
        let d = data();
        let s = dim_stats(&d, &[1, 3]).unwrap();
        assert_eq!(s.mean[1], 4.0);
        assert!((s.variance[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_variance_dim_picks_spread_axis() {
        let d = data();
        assert_eq!(max_variance_dim(&d, &[0, 1, 2, 3]).unwrap(), 1);
        // Single point: all variances zero, tie breaks to dim 0.
        assert_eq!(max_variance_dim(&d, &[2]).unwrap(), 0);
    }

    #[test]
    fn empty_ids_error() {
        let d = data();
        assert!(dim_stats(&d, &[]).is_err());
        assert!(max_variance_dim(&d, &[]).is_err());
    }
}
