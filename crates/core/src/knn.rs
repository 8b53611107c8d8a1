//! Exact k-nearest-neighbor scan over a [`Dataset`].
//!
//! Ground truth for query radii: the paper computes the k-NN sphere of each
//! query point with a full scan of the dataset (§4.2) and feeds the radius
//! to every predictor. Index-based k-NN lives in `hdidx-vamsplit`; this
//! linear scan is index-free and so belongs to the kernel crate, where the
//! workload generator, the serve path and the search tests can reach it.
//!
//! # One batched scan
//!
//! Every entry point runs the same kernel over a block of queries
//! ([`knn_radii`] is the batch entry; [`scan_knn`] is a block of one):
//!
//! * each pool worker takes a contiguous block of queries, and walks the
//!   points in tiles, so a tile read from memory once serves every query
//!   of the block from cache;
//! * within a tile, each group of 16 points is transposed into a
//!   dim-major `f64` buffer (64 KiB per worker) the first time any query
//!   of the block needs a dimension tile of it, and every later query
//!   reads that buffer;
//! * the SIMD group kernel (`simd::KnnKernel`) is only a filter: each
//!   lane runs the exact `dist2_below` chain and early exit against the
//!   bound the query held when it entered the tile, and every lane it
//!   lets through is re-checked in id order with `dist2_below` against
//!   the live bound before insertion.
//!
//! The bound only shrinks, so the filter never drops a point the scalar
//! scan would insert, and the re-check makes every insert/skip decision
//! the scalar one: neighbors and distance bits are identical at any ISA,
//! thread count or batch split.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::simd::{self, Isa, KnnKernel, KNN_GROUP};
use hdidx_pool::Pool;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dimensions per tile of the early-exit distance kernel (matches
/// [`crate::soup::DIM_TILE`]).
const DIM_TILE: usize = 8;

/// Bytes of the transposed `f64` buffer one worker keeps for a point
/// tile (more only when a single group is larger, past 512 dimensions).
/// Well below 128 KiB, the size at which the allocator would map it
/// separately and raise the process's peak RSS when freed.
const TILE_BYTES: usize = 64 << 10;

#[derive(Debug, PartialEq)]
struct Candidate {
    dist2: f64,
    id: u32,
}
impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Squared distance from the stored point `p` to `q`, early-exiting once
/// the partial sum reaches `bound`. Returns `Some(d2)` exactly when the
/// fully accumulated `d2 < bound` — and that value is bit-identical to
/// [`crate::dataset::dist2`] (same per-dimension `f64` accumulation order;
/// the early exit is sound because squared terms are non-negative and
/// their `f64` accumulation is monotone). Checked every 8 dimensions so
/// the inner loop stays unroll-friendly.
///
/// This is the one insert/skip test of every exact k-NN search in the
/// workspace: the linear scan here and the best-first tree probe in
/// `hdidx-vamsplit` both replace their k-th candidate exactly when it
/// returns `Some`.
#[inline]
pub fn dist2_below(p: &[f32], q: &[f32], bound: f64) -> Option<f64> {
    debug_assert_eq!(p.len(), q.len());
    let mut acc = 0.0f64;
    let mut j = 0usize;
    while j < p.len() {
        let tile_end = (j + DIM_TILE).min(p.len());
        for (&x, &y) in p[j..tile_end].iter().zip(&q[j..tile_end]) {
            let d = f64::from(x) - f64::from(y);
            acc += d * d;
        }
        if acc >= bound {
            return None;
        }
        j = tile_end;
    }
    // Catches a NaN sum or bound, which never reaches the exit above.
    (acc < bound).then_some(acc)
}

/// One query's scan state: its k best candidates so far and the live
/// k-th distance bound.
struct Scan<'q> {
    q: &'q [f32],
    best: BinaryHeap<Candidate>,
    /// `best.peek()`'s distance, updated on every insertion.
    bound: f64,
    /// First id not yet offered (the fill phase took `0..from`).
    from: usize,
}

impl<'q> Scan<'q> {
    /// Validates the query and runs the fill phase: the first `k` points
    /// enter unconditionally, with full distances.
    fn new(data: &Dataset, q: &'q [f32], k: usize) -> Result<Scan<'q>> {
        if q.len() != data.dim() {
            return Err(Error::DimensionMismatch {
                expected: data.dim(),
                actual: q.len(),
            });
        }
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        if data.is_empty() {
            return Err(Error::EmptyInput("dataset for scan_knn"));
        }
        let from = k.min(data.len());
        let mut best = BinaryHeap::with_capacity(from + 1);
        for id in 0..from {
            best.push(Candidate {
                dist2: data.dist2_to(id, q),
                id: id as u32,
            });
        }
        let bound = best.peek().expect("k > 0 and n > 0").dist2;
        Ok(Scan {
            q,
            best,
            bound,
            from,
        })
    }

    /// Offers point `id` against the live bound — the scalar scan's exact
    /// insert/skip decision.
    #[inline]
    fn offer(&mut self, data: &Dataset, id: usize) {
        if let Some(d2) = dist2_below(data.point(id), self.q, self.bound) {
            self.best.pop();
            self.best.push(Candidate {
                dist2: d2,
                id: id as u32,
            });
            self.bound = self.best.peek().expect("non-empty").dist2;
        }
    }

    /// First group every point of which this scan still has to offer.
    fn first_group(&self) -> usize {
        self.from.div_ceil(KNN_GROUP)
    }

    /// Distance to the k-th neighbor (the farthest, when `k >= n`).
    fn radius(&self) -> f64 {
        self.best.peek().expect("non-empty").dist2.sqrt()
    }

    /// `(distance, id)` pairs in ascending distance order, ties by id.
    fn into_neighbors(self) -> Vec<(f64, u32)> {
        // `into_sorted_vec` already yields ascending (dist2, id) order —
        // the heap's `Ord` — and `sqrt` is monotone, so no re-sort.
        self.best
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.dist2.sqrt(), c.id))
            .collect()
    }
}

/// Offers every point past each scan's fill phase, in id order per scan:
/// a scalar prefix up to the scan's first whole group, the whole groups
/// tile by tile (see the module docs), then the scalar tail.
fn scan_block(isa: Isa, data: &Dataset, scans: &mut [Scan<'_>]) {
    let (n, dim) = (data.len(), data.dim());
    let groups = n / KNN_GROUP;
    let group_len = KNN_GROUP * dim;
    let tile_groups = (TILE_BYTES / (8 * group_len)).max(1);
    let kernel = KnnKernel::new(isa);
    let mut tposed = vec![0.0f64; kernel.map_or(0, |_| tile_groups * group_len)];
    let mut ready = vec![0usize; tile_groups];
    let mut masks = vec![0u32; tile_groups];
    for s in scans.iter_mut() {
        for id in s.from..(s.first_group() * KNN_GROUP).min(n) {
            s.offer(data, id);
        }
    }
    let start = scans.iter().map(Scan::first_group).min().unwrap_or(groups);
    for t0 in (start..groups).step_by(tile_groups) {
        let t1 = (t0 + tile_groups).min(groups);
        ready.fill(0);
        for s in scans.iter_mut() {
            let g0 = t0.max(s.first_group());
            if g0 >= t1 {
                continue;
            }
            let Some(kernel) = kernel else {
                for id in g0 * KNN_GROUP..t1 * KNN_GROUP {
                    s.offer(data, id);
                }
                continue;
            };
            let slots = g0 - t0..t1 - t0;
            kernel.tile_below(
                data.rows(g0 * KNN_GROUP, (t1 - g0) * KNN_GROUP),
                &mut tposed[slots.start * group_len..slots.end * group_len],
                &mut ready[slots.clone()],
                s.q,
                s.bound,
                &mut masks[slots.clone()],
            );
            for (g, &mask) in (g0..t1).zip(&masks[slots]) {
                let mut mask = mask;
                while mask != 0 {
                    s.offer(data, g * KNN_GROUP + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
            }
        }
    }
    for s in scans.iter_mut() {
        for id in (s.first_group().max(groups) * KNN_GROUP)..n {
            s.offer(data, id);
        }
    }
}

/// Exact k-NN by linear scan, returning `(distance, id)` pairs in ascending
/// distance order (ties broken by id). Returns fewer than `k` pairs only if
/// the dataset is smaller than `k`.
///
/// After the first `k` points fill the heap, each candidate distance is
/// accumulated in 8-dimension tiles and abandoned as soon as the partial
/// sum reaches the current k-th distance, which skips most of the
/// per-point work in high dimensions without changing a single reported
/// neighbor or distance bit.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] for a wrong-length query,
/// [`Error::InvalidParameter`] for `k == 0`, and [`Error::EmptyInput`] for
/// an empty dataset.
pub fn scan_knn(data: &Dataset, q: &[f32], k: usize) -> Result<Vec<(f64, u32)>> {
    scan_knn_with(simd::active(), data, q, k)
}

/// [`scan_knn`] pinned to one SIMD ISA — the entry point identity tests
/// and per-ISA bench rows use. It is the batched scan with a block of one
/// query (see the module docs for why every ISA reports the same bits).
///
/// # Errors
///
/// Same conditions as [`scan_knn`].
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn scan_knn_with(isa: Isa, data: &Dataset, q: &[f32], k: usize) -> Result<Vec<(f64, u32)>> {
    let mut scan = [Scan::new(data, q, k)?];
    scan_block(isa, data, &mut scan);
    let [scan] = scan;
    Ok(scan.into_neighbors())
}

/// Radius of the exact k-NN sphere of `q` (distance to the k-th neighbor).
///
/// # Errors
///
/// Same conditions as [`scan_knn`].
pub fn scan_knn_radius(data: &Dataset, q: &[f32], k: usize) -> Result<f64> {
    let mut scan = [Scan::new(data, q, k)?];
    scan_block(simd::active(), data, &mut scan);
    Ok(scan[0].radius())
}

/// Exact k-NN radii of many `(center, k)` queries in one batched scan,
/// fanned out over `pool` in contiguous query blocks (one per worker).
/// `out[i]` is [`scan_knn_radius`] of `queries[i]`, bit for bit, for any
/// thread count; a malformed query fails alone.
pub fn knn_radii(data: &Dataset, queries: &[(&[f32], usize)], pool: &Pool) -> Vec<Result<f64>> {
    knn_radii_with(simd::active(), data, queries, pool)
}

/// [`knn_radii`] pinned to one SIMD ISA.
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn knn_radii_with(
    isa: Isa,
    data: &Dataset,
    queries: &[(&[f32], usize)],
    pool: &Pool,
) -> Vec<Result<f64>> {
    let block = queries.len().div_ceil(pool.threads()).max(1);
    pool.par_flat_chunks(queries, block, |_, block| {
        let mut out = Vec::with_capacity(block.len());
        let mut scans = Vec::with_capacity(block.len());
        for &(q, k) in block {
            match Scan::new(data, q, k) {
                Ok(scan) => {
                    scans.push(scan);
                    out.push(Ok(0.0));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        scan_block(isa, data, &mut scans);
        let mut radii = scans.iter().map(Scan::radius);
        for slot in out.iter_mut().filter(|r| r.is_ok()) {
            *slot = Ok(radii.next().expect("one scan per valid query"));
        }
        out
    })
}

/// Exact k-NN radii for the dataset points at `ids` — the batch entry
/// behind workload radius generation ([`knn_radii`] over those points;
/// `out[i]` belongs to `ids[i]`, identical for any thread count).
///
/// # Errors
///
/// Same conditions as [`scan_knn`]; the first failing id fails the batch.
pub fn scan_knn_radii(data: &Dataset, ids: &[u32], k: usize, pool: &Pool) -> Result<Vec<f64>> {
    let queries: Vec<(&[f32], usize)> =
        ids.iter().map(|&id| (data.point(id as usize), k)).collect();
    knn_radii(data, &queries, pool).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Dataset {
        // Points at x = 0, 1, 2, ..., 9.
        Dataset::from_flat(1, (0..10).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn scan_knn_orders_by_distance() {
        let d = line_data();
        let nn = scan_knn(&d, &[2.2], 3).unwrap();
        let ids: Vec<u32> = nn.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!((nn[0].0 - 0.2).abs() < 1e-6);
    }

    #[test]
    fn radius_is_kth_distance() {
        let d = line_data();
        let r = scan_knn_radius(&d, &[0.0], 3).unwrap();
        assert!((r - 2.0).abs() < 1e-9);
        // Self-query: nearest is itself at distance 0.
        let r1 = scan_knn_radius(&d, &[5.0], 1).unwrap();
        assert_eq!(r1, 0.0);
    }

    #[test]
    fn validation() {
        let d = line_data();
        assert!(scan_knn(&d, &[0.0, 0.0], 1).is_err());
        assert!(scan_knn(&d, &[0.0], 0).is_err());
        let empty = Dataset::with_capacity(1, 0).unwrap();
        assert!(scan_knn(&empty, &[0.0], 1).is_err());
    }

    #[test]
    fn k_exceeding_dataset_returns_all() {
        let d = line_data();
        let nn = scan_knn(&d, &[0.0], 25).unwrap();
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn tie_break_order_is_distance_then_id() {
        // Regression pin for the tail ordering: `into_sorted_vec` must come
        // out ascending by (distance, id) with no extra sort. Duplicated
        // points produce exact distance ties at several ids.
        let d = Dataset::from_flat(
            1,
            vec![5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 9.0], // ids 1..=5 all at distance 1
        )
        .unwrap();
        let nn = scan_knn(&d, &[2.0], 6).unwrap();
        let ids: Vec<u32> = nn.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 0]);
        for w in nn.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "order violated: {w:?}"
            );
        }
    }

    #[test]
    fn pruned_scan_matches_exhaustive_distances() {
        // The early-exit kernel must reproduce the unpruned scan bit for
        // bit, including in dimensions beyond one DIM_TILE.
        let mut rng = crate::rng::seeded(99);
        use crate::rng::Rng;
        for &dim in &[3usize, 8, 19, 64] {
            let n = 400;
            let data =
                Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap();
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            let nn = scan_knn(&data, &q, 9).unwrap();
            // Exhaustive reference: all distances, fully accumulated.
            let mut all: Vec<(f64, u32)> = (0..n)
                .map(|i| (data.dist2_to(i, &q).sqrt(), i as u32))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(nn, all[..9].to_vec(), "dim {dim}");
        }
    }

    #[test]
    fn batch_radii_match_serial_at_any_thread_count() {
        let mut rng = crate::rng::seeded(7);
        use crate::rng::Rng;
        let data = Dataset::from_flat(5, (0..300 * 5).map(|_| rng.gen::<f32>()).collect()).unwrap();
        let ids: Vec<u32> = (0..40).map(|i| i * 7).collect();
        let expect: Vec<f64> = ids
            .iter()
            .map(|&id| scan_knn_radius(&data, data.point(id as usize), 5).unwrap())
            .collect();
        for t in [1usize, 2, 8] {
            let got = scan_knn_radii(&data, &ids, 5, &Pool::new(t)).unwrap();
            assert_eq!(got, expect, "t={t}");
        }
        // Errors propagate.
        assert!(scan_knn_radii(&data, &ids, 0, &Pool::serial()).is_err());
    }

    #[test]
    fn batch_radii_empty_batch_is_ok() {
        // An empty id batch is a valid (empty) request, not an error —
        // even with a k that would fail on a non-empty batch, because no
        // per-id scan ever runs.
        let d = line_data();
        for t in [1usize, 2, 8] {
            assert_eq!(scan_knn_radii(&d, &[], 3, &Pool::new(t)).unwrap(), vec![]);
            assert_eq!(scan_knn_radii(&d, &[], 0, &Pool::new(t)).unwrap(), vec![]);
        }
    }

    #[test]
    fn batch_radii_k_zero_fails_at_every_thread_count() {
        let d = line_data();
        let ids = [0u32, 3, 7];
        for t in [1usize, 2, 8] {
            let err = scan_knn_radii(&d, &ids, 0, &Pool::new(t)).unwrap_err();
            assert!(err.to_string().contains('k'), "t={t}: {err}");
        }
    }

    #[test]
    fn batch_radii_k_beyond_n_saturates_at_farthest() {
        // k > n: the per-id scan returns all n neighbors and the radius is
        // the distance to the farthest point, pinned across thread counts.
        let d = line_data();
        let ids = [0u32, 9];
        let mut expect = None;
        for t in [1usize, 2, 8] {
            let got = scan_knn_radii(&d, &ids, 25, &Pool::new(t)).unwrap();
            // From x = 0 (and by symmetry x = 9) the farthest point is 9 away.
            assert_eq!(got, vec![9.0, 9.0], "t={t}");
            let prev = expect.get_or_insert_with(|| got.clone());
            assert_eq!(&got, prev, "t={t}");
        }
    }

    #[test]
    fn batch_radii_duplicate_points_tie_break_is_thread_invariant() {
        // Duplicated points create exact (distance, id) ties; the reported
        // radius must be bitwise identical at 1, 2, and 8 threads.
        let d = Dataset::from_flat(1, vec![1.0, 1.0, 1.0, 2.0]).unwrap();
        let ids = [0u32, 1, 2, 3];
        let reference = scan_knn_radii(&d, &ids, 2, &Pool::serial()).unwrap();
        // From any of the three points at x = 1 the 2nd neighbor is another
        // duplicate at distance 0; from x = 2 it is one of them at 1.
        assert_eq!(reference, vec![0.0, 0.0, 0.0, 1.0]);
        for t in [1usize, 2, 8] {
            let got = scan_knn_radii(&d, &ids, 2, &Pool::new(t)).unwrap();
            let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, ref_bits, "t={t}");
            // At k = 4 the radius from a duplicate reaches x = 2.
            let wide = scan_knn_radii(&d, &ids, 4, &Pool::new(t)).unwrap();
            assert_eq!(wide, vec![1.0, 1.0, 1.0, 1.0], "t={t}");
        }
    }
}
