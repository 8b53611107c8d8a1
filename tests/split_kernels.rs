//! Exactness of the VAMSplit split kernels shared by both bulk loaders.
//!
//! `dim_stats` prefetches ahead and runs AVX2 lanes across dimensions;
//! `partition_by_rank` gathers the split keys once and runs its
//! quickselect on the gathered `(key, id)` pairs. Neither may change a
//! single bit of its output, so both are checked against the versions
//! they replaced, kept verbatim below (`reference`):
//!
//! * `dim_stats`: the mean and variance bit patterns at every supported
//!   ISA (and through the dispatching entry point), over dims 1–70 and
//!   1–600 ids that are permuted, duplicated or in order, on uniform,
//!   duplicate-heavy and special-value coordinates (±0.0, subnormals and
//!   values near `f32::MAX`);
//! * `partition_by_rank`: the resulting id permutation itself, not just
//!   the rank property, at every rank `0..=len` (and past it), on keys
//!   with many duplicates and with NaN and infinite keys; also through a
//!   reused, dirty key buffer.

use hdidx_check::{check, prop_assume, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::simd;
use hdidx_repro::core::stats::{dim_stats, dim_stats_with, max_variance_dim};
use hdidx_repro::core::Dataset;
use hdidx_repro::vamsplit::split::{
    gather_keys, partition_by_rank, partition_by_rank_in, partition_keyed, Keyed,
};

/// The split kernels as they were before the prefetch, the AVX2 arm and
/// the gathered keys, kept verbatim as the references the new kernels
/// must reproduce.
mod reference {
    use hdidx_repro::core::stats::DimStats;
    use hdidx_repro::core::{Dataset, Error, Result};

    pub fn dim_stats(data: &Dataset, ids: &[u32]) -> Result<DimStats> {
        if ids.is_empty() {
            return Err(Error::EmptyInput("ids for dim_stats"));
        }
        let d = data.dim();
        let n = ids.len() as f64;
        let mut mean = vec![0.0f64; d];
        for &id in ids {
            let p = data.point(id as usize);
            for j in 0..d {
                mean[j] += f64::from(p[j]);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut variance = vec![0.0f64; d];
        for &id in ids {
            let p = data.point(id as usize);
            for j in 0..d {
                let dev = f64::from(p[j]) - mean[j];
                variance[j] += dev * dev;
            }
        }
        for v in &mut variance {
            *v /= n;
        }
        Ok(DimStats { mean, variance })
    }

    pub fn partition_by_rank(data: &Dataset, ids: &mut [u32], dim: usize, rank: usize) {
        debug_assert!(dim < data.dim());
        let rank = rank.min(ids.len());
        if rank == 0 || rank == ids.len() {
            return;
        }
        let key = |id: u32| data.point(id as usize)[dim];
        let mut lo = 0usize;
        let mut hi = ids.len();
        let mut target = rank;
        // Invariant: the answer index `target` (relative to `lo`) lies within
        // ids[lo..hi]; everything left of `lo` is <= everything in ids[lo..hi],
        // which is <= everything right of `hi`.
        loop {
            let len = hi - lo;
            if len <= 1 {
                return;
            }
            if len <= 16 {
                // Small segment: insertion sort finishes the job exactly.
                ids[lo..hi].sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)));
                return;
            }
            let pivot = median_of_three(key(ids[lo]), key(ids[lo + len / 2]), key(ids[hi - 1]));
            // Three-way partition of ids[lo..hi] around `pivot`:
            // [lo, lt) < pivot, [lt, i) == pivot, (gt, hi) > pivot.
            let mut lt = lo;
            let mut i = lo;
            let mut gt = hi;
            while i < gt {
                let k = key(ids[i]);
                if k < pivot {
                    ids.swap(lt, i);
                    lt += 1;
                    i += 1;
                } else if k > pivot {
                    gt -= 1;
                    ids.swap(i, gt);
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

    #[inline]
    fn median_of_three(a: f32, b: f32, c: f32) -> f32 {
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
}

/// How a case's coordinates are drawn.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Uniform in the unit interval.
    Uniform,
    /// Four distinct values per dimension: long runs of equal keys.
    Duplicates,
    /// Signed zeros, subnormals, large magnitudes and ordinary values.
    Special,
    /// Duplicates plus NaN and infinite keys (partition cases only:
    /// `dim_stats` is not defined bit-for-bit on NaN payloads).
    NonFinite,
}

fn values_of(code: u8, non_finite: bool) -> Values {
    match code % if non_finite { 4 } else { 3 } {
        0 => Values::Uniform,
        1 => Values::Duplicates,
        2 => Values::Special,
        _ => Values::NonFinite,
    }
}

const SPECIAL: [f32; 10] = [
    0.0,
    -0.0,
    1.0e-40,  // subnormal
    -1.0e-45, // smallest subnormal
    f32::MIN_POSITIVE,
    3.0e38,
    -3.4e38,
    1.5,
    -2.25,
    7.0e-3,
];

fn coordinate(rng: &mut impl Rng, values: Values) -> f32 {
    match values {
        Values::Uniform => rng.gen::<f32>(),
        Values::Duplicates => rng.gen_range(0..4u32) as f32 * 0.5,
        Values::Special => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        Values::NonFinite => match rng.gen_range(0..8u32) {
            0 => f32::NAN,
            1 => -f32::NAN,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => -0.0,
            k => k as f32,
        },
    }
}

fn dataset(n: usize, dim: usize, values: Values, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let flat = (0..n * dim).map(|_| coordinate(&mut rng, values)).collect();
    Dataset::from_flat(dim, flat).unwrap()
}

/// `len` ids into `0..n`: a shuffled subset (mode 0, when `len <= n`),
/// draws with repeats (mode 1), or ascending with wrap-around (mode 2).
fn ids_for(n: usize, len: usize, mode: u8, seed: u64) -> Vec<u32> {
    let mut rng = seeded(seed ^ 0x1D5);
    match mode % 3 {
        0 if len <= n => {
            let mut all: Vec<u32> = (0..n as u32).collect();
            rng.fill_shuffle(&mut all);
            all.truncate(len);
            all
        }
        2 => (0..len).map(|i| (i % n) as u32).collect(),
        _ => (0..len).map(|_| rng.gen_range(0..n) as u32).collect(),
    }
}

fn stat_bits(s: &hdidx_repro::core::stats::DimStats) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (bits(&s.mean), bits(&s.variance))
}

/// Every ISA's `dim_stats` (and the dispatching one, and the argmax over
/// it) against the reference.
fn check_dim_stats(data: &Dataset, ids: &[u32]) -> Result<(), String> {
    let want = stat_bits(&reference::dim_stats(data, ids).map_err(|e| e.to_string())?);
    for isa in simd::supported() {
        let got = stat_bits(&dim_stats_with(isa, data, ids).map_err(|e| e.to_string())?);
        if got != want {
            return Err(format!("{isa}: {got:?} != reference {want:?}"));
        }
    }
    if stat_bits(&dim_stats(data, ids).unwrap()) != want {
        return Err(format!("dispatched ({}) differs", simd::describe()));
    }
    let reference_argmax = {
        let v = reference::dim_stats(data, ids).unwrap().variance;
        (1..v.len()).fold(0, |best, j| if v[j] > v[best] { j } else { best })
    };
    if max_variance_dim(data, ids).unwrap() != reference_argmax {
        return Err("max_variance_dim differs".into());
    }
    Ok(())
}

/// `partition_by_rank`, the buffered variant through a dirty buffer, and
/// the explicit gather + select, against the reference permutation.
fn check_partition(
    data: &Dataset,
    ids: &[u32],
    dim: usize,
    rank: usize,
    keys: &mut Vec<Keyed>,
) -> Result<(), String> {
    let mut want = ids.to_vec();
    reference::partition_by_rank(data, &mut want, dim, rank);
    let mut got = ids.to_vec();
    partition_by_rank(data, &mut got, dim, rank);
    if got != want {
        return Err(format!("rank {rank}: {got:?} != reference {want:?}"));
    }
    let mut buffered = ids.to_vec();
    partition_by_rank_in(data, &mut buffered, dim, rank, keys);
    if buffered != want {
        return Err(format!("rank {rank}: buffered variant differs"));
    }
    let mut split = ids.to_vec();
    gather_keys(data, &split, dim, keys);
    partition_keyed(keys, &mut split, rank);
    if split != want {
        return Err(format!("rank {rank}: gather + partition_keyed differs"));
    }
    Ok(())
}

#[test]
fn dim_stats_bits_match_the_reference_at_every_isa() {
    check(
        "dim_stats_bits_match_the_reference_at_every_isa",
        &Config::with_cases(160),
        |rng| {
            (
                (rng.gen_range(1..=70usize), rng.gen_range(1..=300usize)),
                rng.gen_range(1..=600usize),
                rng.gen_range(0..3u8),
                rng.gen_range(0..3u8),
                rng.next_u64(),
            )
        },
        |&((dim, n), len, values, mode, seed)| {
            prop_assume!(dim >= 1 && n >= 1 && len >= 1);
            let data = dataset(n, dim, values_of(values, false), seed);
            let ids = ids_for(n, len, mode, seed);
            match check_dim_stats(&data, &ids) {
                Ok(()) => Verdict::Pass,
                Err(msg) => Verdict::Fail(msg),
            }
        },
    );
}

#[test]
fn dim_stats_matches_across_lane_and_prefetch_boundaries() {
    // Every dimension count up to 70 (each remainder of the 4-wide lanes)
    // at id counts around the prefetch distance, on each value kind.
    for dim in 1..=70usize {
        for &len in &[1usize, 2, 7, 8, 9, 17, 600] {
            for values in [Values::Uniform, Values::Duplicates, Values::Special] {
                let seed = (dim * 1_000 + len) as u64;
                let data = dataset(64, dim, values, seed);
                let ids = ids_for(64, len, 1, seed);
                check_dim_stats(&data, &ids)
                    .unwrap_or_else(|e| panic!("dim={dim} len={len} {values:?}: {e}"));
            }
        }
    }
}

#[test]
fn dim_stats_rejects_empty_ids_at_every_isa() {
    let data = dataset(4, 3, Values::Uniform, 1);
    for isa in simd::supported() {
        assert!(dim_stats_with(isa, &data, &[]).is_err(), "{isa}");
    }
}

#[test]
fn partition_permutation_matches_the_reference() {
    check(
        "partition_permutation_matches_the_reference",
        &Config::with_cases(200),
        |rng| {
            let len = if rng.gen_bool(0.3) {
                rng.gen_range(1..=40usize)
            } else {
                rng.gen_range(1..=600usize)
            };
            (
                (rng.gen_range(1..=6usize), rng.gen_range(1..=400usize)),
                len,
                rng.gen_range(0..=len + 2),
                (rng.gen_range(0..4u8), rng.gen_range(0..3u8)),
                rng.next_u64(),
            )
        },
        |&((dim, n), len, rank, (values, mode), seed)| {
            prop_assume!(dim >= 1 && n >= 1 && len >= 1);
            let data = dataset(n, dim, values_of(values, true), seed);
            let ids = ids_for(n, len, mode, seed);
            let split_dim = (seed % dim as u64) as usize;
            // A buffer left over from an unrelated, longer gather.
            let mut keys: Vec<Keyed> = vec![(f32::NAN, u32::MAX); len + 5];
            match check_partition(&data, &ids, split_dim, rank, &mut keys) {
                Ok(()) => Verdict::Pass,
                Err(msg) => Verdict::Fail(msg),
            }
        },
    );
}

#[test]
fn partition_matches_the_reference_at_every_rank() {
    // Every rank of every length up to 70 (across the 16-key insertion
    // sort cutoff) and of a few longer ones, on each key kind, with one
    // buffer reused throughout.
    let mut keys = Vec::new();
    for &len in &[1usize, 2, 3, 15, 16, 17, 18, 33, 70, 257] {
        for values in [
            Values::Uniform,
            Values::Duplicates,
            Values::Special,
            Values::NonFinite,
        ] {
            for mode in 0..3u8 {
                let seed = (len * 10 + mode as usize) as u64;
                let data = dataset(300, 2, values, seed);
                let ids = ids_for(300, len, mode, seed);
                for rank in 0..=len + 1 {
                    check_partition(&data, &ids, 1, rank, &mut keys)
                        .unwrap_or_else(|e| panic!("len={len} {values:?} mode={mode}: {e}"));
                }
            }
        }
    }
}
