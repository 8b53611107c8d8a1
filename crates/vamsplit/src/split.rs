//! Rank-based partitioning (Hoare's *find* / quickselect) over point-id
//! slices, keyed by one coordinate dimension.
//!
//! The bulk loader partitions a set of points into left/right halves such
//! that the left half holds exactly `rank` points with the smallest
//! coordinates along the split dimension. The paper (§4.1) uses Hoare's
//! `find` for this; we implement the iterative three-way (Dutch national
//! flag) variant, which keeps the expected cost linear even on data with
//! many duplicate coordinates.

use hdidx_core::{simd, Dataset};

/// One split candidate: its coordinate along the split dimension and its
/// point id. The bulk loaders gather a segment's keys once into a reused
/// buffer of these, so the quickselect reads a dense array instead of
/// gathering a row per comparison.
pub type Keyed = (f32, u32);

/// Reorders `ids` so that the `rank` smallest elements along dimension
/// `dim` occupy `ids[..rank]` and everything `>=` the implied pivot value
/// occupies `ids[rank..]`. Equal keys may land on either side of the cut,
/// but the rank property always holds exactly.
///
/// `rank` is clamped to `0..=ids.len()`; the boundary values are no-ops.
/// Allocates a key buffer per call; loops that split repeatedly use
/// [`partition_by_rank_in`] with one buffer.
///
/// # Panics
///
/// Debug-asserts `dim < data.dim()`; panics on an out-of-range id (via
/// slice indexing).
pub fn partition_by_rank(data: &Dataset, ids: &mut [u32], dim: usize, rank: usize) {
    partition_by_rank_in(data, ids, dim, rank, &mut Vec::new());
}

/// [`partition_by_rank`] with a caller-owned key buffer: [`gather_keys`]
/// then [`partition_keyed`]. The permutation is exactly the one the
/// quickselect produces on `ids` keyed by row lookups: every pivot,
/// comparison and swap sees the same key.
pub fn partition_by_rank_in(
    data: &Dataset,
    ids: &mut [u32],
    dim: usize,
    rank: usize,
    keys: &mut Vec<Keyed>,
) {
    debug_assert!(dim < data.dim());
    let rank = rank.min(ids.len());
    if rank == 0 || rank == ids.len() {
        return;
    }
    gather_keys(data, ids, dim, keys);
    partition_keyed(keys, ids, rank);
}

/// Fills `keys` with `(coordinate dim, id)` for every id, in order. The
/// key's cache line is prefetched [`simd::PREFETCH_AHEAD`] ids ahead, since
/// the ids of a split segment point anywhere in the dataset.
///
/// # Panics
///
/// Panics if `dim >= data.dim()` or an id is out of range.
pub fn gather_keys(data: &Dataset, ids: &[u32], dim: usize, keys: &mut Vec<Keyed>) {
    assert!(dim < data.dim(), "split dimension {dim} out of range");
    keys.clear();
    keys.reserve(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        if let Some(&ahead) = ids.get(i + simd::PREFETCH_AHEAD) {
            simd::prefetch(&data.point(ahead as usize)[dim..=dim]);
        }
        keys.push((data.point(id as usize)[dim], id));
    }
}

/// The quickselect behind [`partition_by_rank`], on the keys
/// [`gather_keys`] took from `ids`: reorders `keys` so that the `rank`
/// smallest occupy `keys[..rank]`, then writes the new id order back into
/// `ids`. `rank` is clamped to `0..=keys.len()`; the boundary values are
/// no-ops.
///
/// # Panics
///
/// Panics if `keys` and `ids` differ in length.
pub fn partition_keyed(keys: &mut [Keyed], ids: &mut [u32], rank: usize) {
    assert_eq!(keys.len(), ids.len(), "one key per id");
    select(keys, rank.min(keys.len()));
    for (id, &(_, k)) in ids.iter_mut().zip(keys.iter()) {
        *id = k;
    }
}

/// Three-way quickselect of `keys` around rank `rank`.
fn select(keys: &mut [Keyed], rank: usize) {
    if rank == 0 || rank == keys.len() {
        return;
    }
    let mut lo = 0usize;
    let mut hi = keys.len();
    let mut target = rank;
    // Invariant: the answer index `target` (relative to `lo`) lies within
    // keys[lo..hi]; everything left of `lo` is <= everything in keys[lo..hi],
    // which is <= everything right of `hi`.
    loop {
        let len = hi - lo;
        if len <= 1 {
            return;
        }
        if len <= 16 {
            // Small segment: insertion sort finishes the job exactly.
            keys[lo..hi].sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            return;
        }
        let pivot = median_of_three(keys[lo].0, keys[lo + len / 2].0, keys[hi - 1].0);
        // Three-way partition of keys[lo..hi] around `pivot`:
        // [lo, lt) < pivot, [lt, i) == pivot, (gt, hi) > pivot.
        let mut lt = lo;
        let mut i = lo;
        let mut gt = hi;
        while i < gt {
            let k = keys[i].0;
            if k < pivot {
                keys.swap(lt, i);
                lt += 1;
                i += 1;
            } else if k > pivot {
                gt -= 1;
                keys.swap(i, gt);
            } else {
                i += 1;
            }
        }
        let n_less = lt - lo;
        let n_eq = gt - lt;
        if target < n_less {
            hi = lt;
        } else if target < n_less + n_eq {
            // The cut falls inside the run of equal keys — already placed.
            return;
        } else {
            target -= n_less + n_eq;
            lo = gt;
        }
    }
}

/// The quickselect's pivot: the median of the first, middle and last
/// key. Public so the external builder's pass accounting picks the same
/// pivots.
#[inline]
pub fn median_of_three(a: f32, b: f32, c: f32) -> f32 {
    if a <= b {
        if b <= c {
            b
        } else if a <= c {
            c
        } else {
            a
        }
    } else if a <= c {
        a
    } else if b <= c {
        c
    } else {
        b
    }
}

/// Verifies the rank property (used by tests and `debug_assert!` call
/// sites): `max(key(ids[..rank])) <= min(key(ids[rank..]))`.
pub fn rank_property_holds(data: &Dataset, ids: &[u32], dim: usize, rank: usize) -> bool {
    if rank == 0 || rank >= ids.len() {
        return true;
    }
    let key = |id: u32| data.point(id as usize)[dim];
    let left_max = ids[..rank].iter().map(|&i| key(i)).fold(f32::MIN, f32::max);
    let right_min = ids[rank..].iter().map(|&i| key(i)).fold(f32::MAX, f32::min);
    left_max <= right_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::Rng;

    fn dataset_from_column(vals: &[f32]) -> Dataset {
        Dataset::from_flat(1, vals.to_vec()).unwrap()
    }

    #[test]
    fn median_of_three_all_orders() {
        let perms: [[f32; 3]; 6] = [
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [2.0, 1.0, 3.0],
            [2.0, 3.0, 1.0],
            [3.0, 1.0, 2.0],
            [3.0, 2.0, 1.0],
        ];
        for p in perms {
            assert_eq!(median_of_three(p[0], p[1], p[2]), 2.0, "{p:?}");
        }
        assert_eq!(median_of_three(5.0, 5.0, 1.0), 5.0);
    }

    #[test]
    fn partitions_simple_sequences() {
        let d = dataset_from_column(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let mut ids: Vec<u32> = (0..5).collect();
        partition_by_rank(&d, &mut ids, 0, 2);
        assert!(rank_property_holds(&d, &ids, 0, 2));
        let mut left: Vec<f32> = ids[..2].iter().map(|&i| d.point(i as usize)[0]).collect();
        left.sort_by(f32::total_cmp);
        assert_eq!(left, vec![1.0, 2.0]);
    }

    #[test]
    fn boundary_ranks_are_noops() {
        let d = dataset_from_column(&[3.0, 1.0, 2.0]);
        let mut ids: Vec<u32> = vec![0, 1, 2];
        partition_by_rank(&d, &mut ids, 0, 0);
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 3);
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 99); // clamped
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn handles_all_equal_keys() {
        let d = dataset_from_column(&[7.0; 100]);
        let mut ids: Vec<u32> = (0..100).collect();
        partition_by_rank(&d, &mut ids, 0, 37);
        assert!(rank_property_holds(&d, &ids, 0, 37));
        // Must remain a permutation.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn randomized_ranks_on_random_data() {
        let mut rng = hdidx_rand::seeded(99);
        for trial in 0..50 {
            let n = rng.gen_range(2..400usize);
            let vals: Vec<f32> = (0..n)
                .map(|_| (rng.gen_range(0..40) as f32) * 0.25)
                .collect();
            let d = dataset_from_column(&vals);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            let rank = rng.gen_range(0..=n);
            partition_by_rank(&d, &mut ids, 0, rank);
            assert!(
                rank_property_holds(&d, &ids, 0, rank),
                "trial {trial}: rank {rank} of {n}"
            );
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partitions_on_selected_dimension_only() {
        // dim 0 constant, dim 1 descending; partition on dim 1.
        let d =
            Dataset::from_flat(2, vec![0.0, 9.0, 0.0, 8.0, 0.0, 7.0, 0.0, 6.0, 0.0, 5.0]).unwrap();
        let mut ids: Vec<u32> = (0..5).collect();
        partition_by_rank(&d, &mut ids, 1, 3);
        assert!(rank_property_holds(&d, &ids, 1, 3));
    }
}
