//! Bulk-loaded SS-tree-style index (White & Jain, ICDE'96): pages are
//! summarized by **bounding spheres** (centroid + covering radius) instead
//! of rectangles.
//!
//! The partitioning reuses the VAMSplit strategy, so the only difference
//! from [`crate::RTree`] is the page geometry — which is exactly the degree
//! of freedom the paper's §4.7 claims its sampling predictor is insensitive
//! to. The prediction model's sphere-intersection counting works unchanged:
//! a query ball intersects a page sphere iff the center distance is at most
//! the sum of the radii.

use crate::split::{partition_by_rank_in, Keyed};
use crate::topology::Topology;
use hdidx_core::stats::max_variance_dim;
use hdidx_core::{dataset::dist2, Dataset, Error, Result};

/// A bounding sphere: centroid and covering radius.
#[derive(Debug, Clone, PartialEq)]
pub struct Sphere {
    /// Centroid of the covered points.
    pub center: Vec<f32>,
    /// Distance from the centroid to the farthest covered point.
    pub radius: f64,
}

impl Sphere {
    /// Minimal bounding sphere (centroid-based, as in the SS-tree) of the
    /// points at `ids`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] if `ids` is empty.
    pub fn of_points(data: &Dataset, ids: &[u32]) -> Result<Self> {
        if ids.is_empty() {
            return Err(Error::EmptyInput("ids for bounding sphere"));
        }
        let d = data.dim();
        let mut center = vec![0.0f64; d];
        for &id in ids {
            let p = data.point(id as usize);
            for j in 0..d {
                center[j] += f64::from(p[j]);
            }
        }
        for c in &mut center {
            *c /= ids.len() as f64;
        }
        let center_f32: Vec<f32> = center.iter().map(|&c| c as f32).collect();
        let radius = ids
            .iter()
            .map(|&id| dist2(data.point(id as usize), &center_f32).sqrt())
            .fold(0.0f64, f64::max);
        Ok(Sphere {
            center: center_f32,
            radius,
        })
    }

    /// Whether a query ball intersects this sphere.
    pub fn intersects_ball(&self, q: &[f32], radius: f64) -> bool {
        dist2(&self.center, q).sqrt() <= self.radius + radius
    }

    /// Grows the covering radius by `factor` (the sampling compensation,
    /// applied to the single radial degree of freedom).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a non-positive/non-finite
    /// factor.
    pub fn scaled(&self, factor: f64) -> Result<Sphere> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(Error::invalid("factor", "must be finite and positive"));
        }
        Ok(Sphere {
            center: self.center.clone(),
            radius: self.radius * factor,
        })
    }
}

/// A flat SS-tree "leaf layout": the list of leaf-page spheres produced by
/// VAMSplit partitioning. (The prediction model only ever consumes leaf
/// geometry, so the directory levels are not materialized.)
#[derive(Debug, Clone)]
pub struct SsLeafLayout {
    /// One bounding sphere per data page.
    pub pages: Vec<Sphere>,
}

impl SsLeafLayout {
    /// Partitions `ids` into data pages with the VAMSplit strategy and
    /// summarizes each page by its bounding sphere. `n_full` scales ranks
    /// for sample inputs exactly as the R-tree loader does.
    ///
    /// # Errors
    ///
    /// Rejects empty inputs and dimension mismatches.
    pub fn build(data: &Dataset, mut ids: Vec<u32>, topo: &Topology, n_full: f64) -> Result<Self> {
        if ids.is_empty() {
            return Err(Error::EmptyInput("SS-tree build over zero points"));
        }
        if data.dim() != topo.dim() {
            return Err(Error::DimensionMismatch {
                expected: topo.dim(),
                actual: data.dim(),
            });
        }
        let mut pages = Vec::new();
        split_to_pages(data, &mut ids, n_full, topo, &mut Vec::new(), &mut pages)?;
        Ok(SsLeafLayout { pages })
    }

    /// Number of page spheres intersected by the query ball.
    pub fn count_intersections(&self, q: &[f32], radius: f64) -> u64 {
        self.pages
            .iter()
            .filter(|s| s.intersects_ball(q, radius))
            .count() as u64
    }
}

/// Recursively halves `ids` (binary max-variance splits, ranks
/// proportional to full-scale page counts) until each piece corresponds to
/// one full-scale data page, then emits its bounding sphere. Every split
/// of the build reuses the one key buffer `keys`.
fn split_to_pages(
    data: &Dataset,
    ids: &mut [u32],
    n_full: f64,
    topo: &Topology,
    keys: &mut Vec<Keyed>,
    out: &mut Vec<Sphere>,
) -> Result<()> {
    if ids.is_empty() {
        return Ok(());
    }
    let pages_full = (n_full / topo.cap_data() as f64).ceil().max(1.0) as u64;
    if pages_full <= 1 {
        out.push(Sphere::of_points(data, ids)?);
        return Ok(());
    }
    let pages_left = pages_full / 2;
    let left_full = (pages_left as f64) * topo.cap_data() as f64;
    let len = ids.len();
    let rank = (((len as f64) * left_full / n_full).round() as usize).min(len);
    if rank > 0 && rank < len {
        let dim = max_variance_dim(data, ids)?;
        partition_by_rank_in(data, ids, dim, rank, keys);
    }
    let (left, right) = ids.split_at_mut(rank);
    split_to_pages(data, left, left_full, topo, keys, out)?;
    split_to_pages(data, right, n_full - left_full, topo, keys, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::rng::seeded;
    use hdidx_core::rng::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn sphere_covers_its_points() {
        let data = random_dataset(50, 3, 30);
        let ids: Vec<u32> = (0..50).collect();
        let s = Sphere::of_points(&data, &ids).unwrap();
        for id in 0..50usize {
            let d = dist2(data.point(id), &s.center).sqrt();
            assert!(d <= s.radius + 1e-5, "point {id} at {d} > {}", s.radius);
        }
        assert!(Sphere::of_points(&data, &[]).is_err());
    }

    #[test]
    fn sphere_ball_intersection() {
        let s = Sphere {
            center: vec![0.0, 0.0],
            radius: 1.0,
        };
        assert!(s.intersects_ball(&[3.0, 0.0], 2.0)); // touching
        assert!(!s.intersects_ball(&[3.0, 0.0], 1.9));
        let g = s.scaled(2.0).unwrap();
        assert!(g.intersects_ball(&[3.0, 0.0], 1.0));
        assert!(s.scaled(-1.0).is_err());
    }

    #[test]
    fn layout_pages_partition_and_cover() {
        let data = random_dataset(500, 4, 31);
        let topo = Topology::from_capacities(4, 500, 10, 5).unwrap();
        let ids: Vec<u32> = (0..500).collect();
        let layout = SsLeafLayout::build(&data, ids, &topo, 500.0).unwrap();
        assert_eq!(layout.pages.len(), 50);
        // A huge ball hits every page.
        assert_eq!(layout.count_intersections(&[0.5; 4], 100.0), 50);
        // A zero ball far away hits none.
        assert_eq!(layout.count_intersections(&[50.0; 4], 0.0), 0);
    }

    #[test]
    fn layout_validation() {
        let data = random_dataset(10, 2, 32);
        let topo = Topology::from_capacities(3, 10, 4, 4).unwrap();
        assert!(SsLeafLayout::build(&data, vec![0, 1], &topo, 10.0).is_err());
        let topo2 = Topology::from_capacities(2, 10, 4, 4).unwrap();
        assert!(SsLeafLayout::build(&data, vec![], &topo2, 10.0).is_err());
    }
}
