//! Hyper-rectangles (minimal bounding boxes) and the geometric predicates
//! used by the index structures and the prediction model.
//!
//! Coordinates are stored as `f32` (matching [`crate::Dataset`]); all derived
//! quantities (volumes, distances) are computed in `f64`. Volumes in 60+
//! dimensions underflow/overflow `f64` easily, so a *log-volume* accessor is
//! provided alongside the plain product.

use crate::error::{Error, Result};

/// An axis-aligned hyper-rectangle `[lo, hi]` in `dim` dimensions.
///
/// Invariant: `lo.len() == hi.len()` and `lo[j] <= hi[j]` for every `j`.
/// Degenerate (zero-extent) rectangles are allowed — a page holding a single
/// point has one.
///
/// # Examples
///
/// ```
/// use hdidx_core::HyperRect;
///
/// let page = HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
/// assert_eq!(page.mindist2(&[2.0, 1.0]), 1.0);
/// assert!(page.intersects_sphere(&[2.0, 1.0], 1.0)); // tangent counts
/// // Theorem-1 style growth around the center:
/// let grown = page.scaled_about_center(2.0).unwrap();
/// assert!(grown.contains_point(&[-0.5, -0.5]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HyperRect {
    lo: Vec<f32>,
    hi: Vec<f32>,
}

impl HyperRect {
    /// Creates a rectangle from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the bound vectors differ in
    /// length and [`Error::InvalidParameter`] if any `lo[j] > hi[j]` or any
    /// coordinate is non-finite.
    pub fn new(lo: Vec<f32>, hi: Vec<f32>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(Error::DimensionMismatch {
                expected: lo.len(),
                actual: hi.len(),
            });
        }
        if lo.is_empty() {
            return Err(Error::invalid("lo", "dimensionality must be positive"));
        }
        for j in 0..lo.len() {
            if !lo[j].is_finite() || !hi[j].is_finite() {
                return Err(Error::invalid("bounds", "coordinates must be finite"));
            }
            if lo[j] > hi[j] {
                return Err(Error::invalid(
                    "bounds",
                    format!("lo[{j}] = {} exceeds hi[{j}] = {}", lo[j], hi[j]),
                ));
            }
        }
        Ok(HyperRect { lo, hi })
    }

    /// The degenerate rectangle containing exactly one point.
    pub fn point(p: &[f32]) -> Self {
        HyperRect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// Lower bounds per dimension.
    #[inline]
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Upper bounds per dimension.
    #[inline]
    pub fn hi(&self) -> &[f32] {
        &self.hi
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Extent (`hi - lo`) along dimension `j`.
    #[inline]
    pub fn extent(&self, j: usize) -> f64 {
        f64::from(self.hi[j]) - f64::from(self.lo[j])
    }

    /// Center coordinate along dimension `j`.
    #[inline]
    pub fn center(&self, j: usize) -> f64 {
        0.5 * (f64::from(self.hi[j]) + f64::from(self.lo[j]))
    }

    /// Index of the dimension with the largest extent (ties broken towards
    /// the lower index). Under in-page uniformity this is also the dimension
    /// of maximum variance, which is why the cutoff tree (paper §4.3) splits
    /// along it.
    pub fn longest_dim(&self) -> usize {
        let mut best = 0usize;
        let mut best_ext = self.extent(0);
        for j in 1..self.dim() {
            let e = self.extent(j);
            if e > best_ext {
                best = j;
                best_ext = e;
            }
        }
        best
    }

    /// Volume as a plain product of extents. Returns 0 for degenerate boxes
    /// and may under/overflow in high dimensions — prefer
    /// [`HyperRect::log2_volume`] there.
    pub fn volume(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j)).product()
    }

    /// Base-2 logarithm of the volume; `-inf` for degenerate boxes.
    pub fn log2_volume(&self) -> f64 {
        (0..self.dim()).map(|j| self.extent(j).log2()).sum()
    }

    /// Grows the rectangle to include point `p`.
    ///
    /// # Panics
    ///
    /// Debug-asserts matching dimensionality.
    #[inline]
    pub fn expand_to_point(&mut self, p: &[f32]) {
        debug_assert_eq!(p.len(), self.dim());
        for ((lo, hi), &x) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    }

    /// Grows the rectangle to include another rectangle.
    ///
    /// # Panics
    ///
    /// Debug-asserts matching dimensionality.
    pub fn expand_to_rect(&mut self, other: &HyperRect) {
        debug_assert_eq!(other.dim(), self.dim());
        for j in 0..self.dim() {
            if other.lo[j] < self.lo[j] {
                self.lo[j] = other.lo[j];
            }
            if other.hi[j] > self.hi[j] {
                self.hi[j] = other.hi[j];
            }
        }
    }

    /// Whether the rectangle contains point `p` (closed bounds).
    #[inline]
    pub fn contains_point(&self, p: &[f32]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        p.iter()
            .enumerate()
            .all(|(j, &x)| x >= self.lo[j] && x <= self.hi[j])
    }

    /// Whether two rectangles intersect (closed bounds).
    pub fn intersects_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(other.dim(), self.dim());
        (0..self.dim()).all(|j| self.lo[j] <= other.hi[j] && other.lo[j] <= self.hi[j])
    }

    /// MINDIST²: squared Euclidean distance from point `q` to the nearest
    /// point of the rectangle (0 if `q` lies inside). This is the classic
    /// R-tree lower bound used by best-first nearest-neighbor search and by
    /// the sphere-intersection counting of the prediction model.
    #[inline]
    pub fn mindist2(&self, q: &[f32]) -> f64 {
        debug_assert_eq!(q.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(q) {
            let x = f64::from(x);
            let lo = f64::from(lo);
            let hi = f64::from(hi);
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                continue;
            };
            acc += d * d;
        }
        acc
    }

    /// Early-exit MINDIST²: `Some(self.mindist2(q))` when it is at most
    /// `r2`, `None` as soon as the partial sum exceeds `r2`. Every
    /// per-dimension term is non-negative and `f64` addition of
    /// non-negative terms is monotone, so a partial sum above `r2` can
    /// never come back down — the verdict is exactly `mindist2(q) <= r2`,
    /// and a returned value is bit-identical to [`HyperRect::mindist2`]
    /// (same terms, same order), at a fraction of the work for far
    /// rectangles in high dimensions. Best-first k-NN search uses the
    /// value for its frontier order once it holds a k-th bound.
    #[inline]
    pub fn mindist2_within(&self, q: &[f32], r2: f64) -> Option<f64> {
        debug_assert_eq!(q.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(q) {
            let x = f64::from(x);
            let lo = f64::from(lo);
            let hi = f64::from(hi);
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                continue;
            };
            acc += d * d;
            if acc > r2 {
                return None;
            }
        }
        // Catches a NaN `r2`, which no partial sum exceeds.
        (acc <= r2).then_some(acc)
    }

    /// Containment in the MINDIST sense: exactly `self.mindist2(p) == 0.0`,
    /// decided by comparisons alone and stopping at the first dimension
    /// where `p` lies outside.
    ///
    /// A dimension is outside only when `x < lo || x > hi`, so a NaN
    /// coordinate counts as inside, as it does in [`HyperRect::mindist2`]
    /// (unlike [`HyperRect::contains_point`], which says outside). The
    /// verdict is exact: an outside dimension has `x` and the bound
    /// ordered, so they are distinct `f32` values at least 2⁻¹⁴⁹ apart
    /// (or one is infinite), and the `f64` term it adds to MINDIST² is at
    /// least 2⁻²⁹⁸ — no underflow — or `+inf`. A sum of non-negative
    /// terms with one positive term is positive, so MINDIST² is zero
    /// exactly when no dimension is outside.
    #[inline]
    pub fn covers(&self, p: &[f32]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        !self
            .lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .any(|((&lo, &hi), &x)| x < lo || x > hi)
    }

    /// Early-exit MINDIST² predicate: whether the squared distance from `q`
    /// to the rectangle exceeds `r2` — exactly `self.mindist2(q) > r2`,
    /// decided by [`HyperRect::mindist2_within`].
    #[inline]
    pub fn mindist2_exceeds(&self, q: &[f32], r2: f64) -> bool {
        self.mindist2_within(q, r2).is_none()
    }

    /// Whether the closed ball `{x : |x - center| <= radius}` intersects the
    /// rectangle. A query whose final k-NN sphere intersects a leaf page must
    /// read that page (and an optimal NN algorithm reads exactly those
    /// pages), so this predicate *is* the page-access model of the paper.
    /// Decided with the early-exit [`HyperRect::mindist2_exceeds`] — same
    /// result as `mindist2(center) <= radius * radius`, bit for bit.
    #[inline]
    pub fn intersects_sphere(&self, center: &[f32], radius: f64) -> bool {
        !self.mindist2_exceeds(center, radius * radius)
    }

    /// Scales the rectangle about its center by `factor` independently in
    /// every dimension. `factor > 1` grows the box — this is how the
    /// compensation factor of Theorem 1 is applied (the paper grows each
    /// mini-index leaf page so its expected volume matches the full index).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `factor` is not finite and
    /// positive.
    pub fn scaled_about_center(&self, factor: f64) -> Result<HyperRect> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(Error::invalid(
                "factor",
                format!("scale factor must be finite and positive, got {factor}"),
            ));
        }
        let mut lo = Vec::with_capacity(self.dim());
        let mut hi = Vec::with_capacity(self.dim());
        for j in 0..self.dim() {
            let c = self.center(j);
            let half = 0.5 * self.extent(j) * factor;
            lo.push((c - half) as f32);
            hi.push((c + half) as f32);
        }
        Ok(HyperRect { lo, hi })
    }

    /// Splits the rectangle along dimension `dim` at coordinate `at`,
    /// returning the `(low, high)` halves. `at` is clamped into the box so
    /// the result always satisfies the bound invariant.
    pub fn split_at(&self, dim: usize, at: f32) -> (HyperRect, HyperRect) {
        debug_assert!(dim < self.dim());
        let at = at.clamp(self.lo[dim], self.hi[dim]);
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = at;
        right.lo[dim] = at;
        (left, right)
    }

    /// Squared distance from `q` to the farthest corner of the rectangle
    /// (MAXDIST²). Used as a pruning upper bound.
    pub fn maxdist2(&self, q: &[f32]) -> f64 {
        debug_assert_eq!(q.len(), self.dim());
        let mut acc = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(q) {
            let x = f64::from(x);
            let dlo = (x - f64::from(lo)).abs();
            let dhi = (x - f64::from(hi)).abs();
            let d = dlo.max(dhi);
            acc += d * d;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit2() -> HyperRect {
        HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap()
    }

    #[test]
    fn new_validates_bounds() {
        assert!(HyperRect::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(HyperRect::new(vec![], vec![]).is_err());
        assert!(HyperRect::new(vec![2.0], vec![1.0]).is_err());
        assert!(HyperRect::new(vec![f32::NAN], vec![1.0]).is_err());
        assert!(HyperRect::new(vec![0.0], vec![f32::INFINITY]).is_err());
        assert!(HyperRect::new(vec![1.0], vec![1.0]).is_ok());
    }

    #[test]
    fn extent_center_longest() {
        let r = HyperRect::new(vec![0.0, -2.0], vec![1.0, 4.0]).unwrap();
        assert_eq!(r.extent(0), 1.0);
        assert_eq!(r.extent(1), 6.0);
        assert_eq!(r.center(1), 1.0);
        assert_eq!(r.longest_dim(), 1);
    }

    #[test]
    fn longest_dim_tie_breaks_low() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![2.0, 2.0, 1.0]).unwrap();
        assert_eq!(r.longest_dim(), 0);
    }

    #[test]
    fn volume_and_log_volume_agree() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![2.0, 4.0, 0.5]).unwrap();
        assert!((r.volume() - 4.0).abs() < 1e-12);
        assert!((r.log2_volume() - 2.0).abs() < 1e-12);
        let degenerate = HyperRect::point(&[1.0, 2.0]);
        assert_eq!(degenerate.volume(), 0.0);
        assert_eq!(degenerate.log2_volume(), f64::NEG_INFINITY);
    }

    #[test]
    fn expansion_covers_inputs() {
        let mut r = HyperRect::point(&[0.0, 0.0]);
        r.expand_to_point(&[2.0, -1.0]);
        assert!(r.contains_point(&[1.0, -0.5]));
        assert!(!r.contains_point(&[3.0, 0.0]));
        let other = HyperRect::new(vec![-5.0, 0.0], vec![-4.0, 0.5]).unwrap();
        r.expand_to_rect(&other);
        assert!(r.contains_point(&[-4.5, 0.2]));
    }

    #[test]
    fn mindist2_inside_edge_outside() {
        let r = unit2();
        assert_eq!(r.mindist2(&[0.5, 0.5]), 0.0);
        assert_eq!(r.mindist2(&[1.0, 1.0]), 0.0);
        assert_eq!(r.mindist2(&[2.0, 1.0]), 1.0);
        assert_eq!(r.mindist2(&[2.0, 2.0]), 2.0);
        assert_eq!(r.mindist2(&[-1.0, 0.5]), 1.0);
    }

    #[test]
    fn maxdist2_is_farthest_corner() {
        let r = unit2();
        assert_eq!(r.maxdist2(&[0.0, 0.0]), 2.0);
        assert_eq!(r.maxdist2(&[0.5, 0.5]), 0.5);
    }

    #[test]
    fn sphere_intersection_boundary_cases() {
        let r = unit2();
        assert!(r.intersects_sphere(&[2.0, 1.0], 1.0)); // tangent
        assert!(!r.intersects_sphere(&[2.0, 1.0], 0.99));
        assert!(r.intersects_sphere(&[0.5, 0.5], 0.0)); // center inside
    }

    #[test]
    fn mindist2_exceeds_agrees_with_full_mindist2() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 0.5]).unwrap();
        let qs: [&[f32]; 4] = [
            &[0.5, 1.0, 0.25], // inside
            &[2.0, 1.0, 0.25], // one dim out
            &[2.0, 4.0, 3.0],  // all dims out
            &[-1.0, 3.0, 0.5], // mixed
        ];
        for q in qs {
            let d2 = r.mindist2(q);
            for r2 in [0.0, 0.5, d2, d2 + 1e-12, 10.0] {
                assert_eq!(r.mindist2_exceeds(q, r2), d2 > r2, "q = {q:?}, r2 = {r2}");
            }
        }
        // Tangency: mindist2 == r2 must not count as exceeding.
        let unit = unit2();
        assert!(!unit.mindist2_exceeds(&[2.0, 1.0], 1.0));
        assert!(unit.mindist2_exceeds(&[2.0, 1.0], 0.999));
    }

    #[test]
    fn covers_agrees_with_zero_mindist2() {
        let special = [
            0.0,
            -0.0,
            1.0e-45,
            -1.0e-45,
            f32::MIN_POSITIVE,
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Expansion can adopt infinite bounds (never NaN ones).
        let mut unbounded = unit2();
        unbounded.expand_to_point(&[f32::INFINITY, f32::NEG_INFINITY]);
        let rects = [
            unit2(),
            unbounded,
            HyperRect::point(&[0.0, 1.0e-45]), // point box
            HyperRect::new(vec![-1.0, 0.0], vec![1.0, 0.0]).unwrap(), // flat box
            HyperRect::new(vec![-0.0, 1.0e-45], vec![0.0, 2.0e-45]).unwrap(),
            HyperRect::new(vec![f32::MIN, -1.0], vec![f32::MAX, 1.0]).unwrap(),
        ];
        for r in &rects {
            let (lo, hi) = (r.lo(), r.hi());
            for &a in special.iter().chain(lo).chain(hi) {
                for &b in special.iter().chain(lo).chain(hi) {
                    // Also one f32 step above `a` and one below `b`.
                    for p in [[a, b], [a.next_up(), b], [a, b.next_down()]] {
                        assert_eq!(r.covers(&p), r.mindist2(&p) == 0.0, "{r:?} {p:?}");
                    }
                }
            }
        }
        // NaN is inside, as in mindist2 (contains_point says outside).
        assert!(unit2().covers(&[f32::NAN, 0.5]));
        assert!(!unit2().contains_point(&[f32::NAN, 0.5]));
        // Faces and corners are inside; the next f32 out is not.
        assert!(unit2().covers(&[1.0, 0.0]));
        assert!(!unit2().covers(&[1.0f32.next_up(), 0.0]));
        assert!(!unit2().covers(&[0.5, (-0.0f32).next_down()]));
    }

    #[test]
    fn mindist2_within_returns_the_full_value_or_none() {
        let r = HyperRect::new(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 0.5]).unwrap();
        let qs: [&[f32]; 4] = [
            &[0.5, 1.0, 0.25],
            &[2.0, 1.0, 0.25],
            &[2.0, 4.0, 3.0],
            &[-1.0, 3.0, 0.5],
        ];
        for q in qs {
            let d2 = r.mindist2(q);
            for r2 in [0.0, 0.5, d2, d2 + 1e-12, 10.0, f64::INFINITY] {
                let within = r.mindist2_within(q, r2);
                assert_eq!(within.is_some(), d2 <= r2, "q = {q:?}, r2 = {r2}");
                if let Some(v) = within {
                    assert_eq!(v.to_bits(), d2.to_bits(), "q = {q:?}, r2 = {r2}");
                }
            }
        }
        // Tangency is within; the early exit stops before the last dims.
        assert_eq!(unit2().mindist2_within(&[2.0, 1.0], 1.0), Some(1.0));
        assert_eq!(unit2().mindist2_within(&[3.0, 3.0], 3.9), None);
    }

    #[test]
    fn rect_intersection() {
        let r = unit2();
        let touching = HyperRect::new(vec![1.0, 0.0], vec![2.0, 1.0]).unwrap();
        assert!(r.intersects_rect(&touching));
        let disjoint = HyperRect::new(vec![1.1, 0.0], vec![2.0, 1.0]).unwrap();
        assert!(!r.intersects_rect(&disjoint));
    }

    #[test]
    fn scaling_preserves_center_and_scales_extent() {
        let r = HyperRect::new(vec![0.0, 2.0], vec![2.0, 6.0]).unwrap();
        let g = r.scaled_about_center(1.5).unwrap();
        assert!((g.center(0) - 1.0).abs() < 1e-6);
        assert!((g.center(1) - 4.0).abs() < 1e-6);
        assert!((g.extent(0) - 3.0).abs() < 1e-5);
        assert!((g.extent(1) - 6.0).abs() < 1e-5);
        assert!(r.scaled_about_center(0.0).is_err());
        assert!(r.scaled_about_center(f64::NAN).is_err());
    }

    #[test]
    fn split_clamps_position() {
        let r = unit2();
        let (a, b) = r.split_at(0, 0.25);
        assert_eq!(a.hi()[0], 0.25);
        assert_eq!(b.lo()[0], 0.25);
        let (a, _b) = r.split_at(0, -3.0);
        assert_eq!(a.hi()[0], 0.0); // clamped to lo
    }
}
