//! Bit-identity of the batched k-NN radius scan (`knn_radii_with`): every
//! radius of a batch must equal the one-query scan (`scan_knn_radius`,
//! `scan_knn_with`) and an exhaustive sort of all distances, bit for bit,
//! under every supported ISA and at 1, 2 and 8 worker threads.
//!
//! The shapes cross every boundary of the batched kernel: datasets
//! smaller than one 16-point group and not a multiple of it, several
//! point tiles, dimensions 1–70 (partial last dimension tiles included),
//! `k` from 1 past `n`, mixed `k` within a batch, duplicate points whose
//! ties break by id, and a batch of one. A malformed query (`k == 0`, a
//! wrong-length centre) must fail alone, with the error the one-query
//! scan gives.

use hdidx_check::{check, prop_assume, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::knn::{knn_radii_with, scan_knn_radius, scan_knn_with};
use hdidx_repro::core::{simd, Dataset, Result};
use hdidx_repro::pool::Pool;

/// Worker-pool sizes every batch runs at.
const THREADS: [usize; 3] = [1, 2, 8];

/// A dataset of `n` points in `dim` dimensions. With `dups`, coordinates
/// come from a coarse grid and every fourth point copies an earlier one,
/// so exact distance ties are common.
fn dataset(n: usize, dim: usize, seed: u64, dups: bool) -> Dataset {
    let mut rng = seeded(seed);
    let mut flat: Vec<f32> = Vec::with_capacity(n * dim);
    for i in 0..n {
        if dups && i >= 4 && i % 4 == 0 {
            let src = rng.gen_range(0..i);
            let row: Vec<f32> = flat[src * dim..(src + 1) * dim].to_vec();
            flat.extend_from_slice(&row);
        } else if dups {
            flat.extend((0..dim).map(|_| rng.gen_range(0..4u32) as f32 * 0.5));
        } else {
            flat.extend((0..dim).map(|_| rng.gen::<f32>()));
        }
    }
    Dataset::from_flat(dim, flat).unwrap()
}

/// Query centres: mostly dataset points (the workload generator's
/// centres), every third one a fresh random point.
fn centres(data: &Dataset, count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed ^ 0xC3);
    (0..count)
        .map(|i| {
            if i % 3 == 2 {
                (0..data.dim()).map(|_| rng.gen::<f32>()).collect()
            } else {
                data.point(rng.gen_range(0..data.len())).to_vec()
            }
        })
        .collect()
}

/// The k-th smallest distance by exhaustive sort — independent of the
/// scan kernel. `dist2_to` accumulates in the scan's exact order.
fn exhaustive_radius(data: &Dataset, q: &[f32], k: usize) -> f64 {
    let mut all: Vec<(f64, usize)> = (0..data.len()).map(|i| (data.dist2_to(i, q), i)).collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all[k.min(all.len()) - 1].0.sqrt()
}

fn same(a: &Result<f64>, b: &Result<f64>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Checks one batch against every reference; `Err` names the first
/// mismatch.
fn check_batch(data: &Dataset, queries: &[(&[f32], usize)]) -> std::result::Result<(), String> {
    let single: Vec<Result<f64>> = queries
        .iter()
        .map(|&(q, k)| scan_knn_radius(data, q, k))
        .collect();
    for (i, (&(q, k), r)) in queries.iter().zip(&single).enumerate() {
        if let Ok(r) = r {
            let exhaustive = exhaustive_radius(data, q, k);
            if r.to_bits() != exhaustive.to_bits() {
                return Err(format!(
                    "query {i} (k={k}): scan {r} != exhaustive {exhaustive}"
                ));
            }
        }
    }
    for isa in simd::supported() {
        for (i, (&(q, k), r)) in queries.iter().zip(&single).enumerate() {
            let one = scan_knn_with(isa, data, q, k).map(|nn| nn.last().unwrap().0);
            if !same(&one, r) {
                return Err(format!(
                    "{isa} one-query scan differs at query {i}: {one:?} vs {r:?}"
                ));
            }
        }
        for threads in THREADS {
            let batch = knn_radii_with(isa, data, queries, &Pool::new(threads));
            if batch.len() != queries.len() {
                return Err(format!("{isa} t{threads}: {} results", batch.len()));
            }
            for (i, (b, r)) in batch.iter().zip(&single).enumerate() {
                if !same(b, r) {
                    return Err(format!(
                        "{isa} t{threads} query {i} (k={}): batch {b:?} != single {r:?}",
                        queries[i].1
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn batched_radii_match_single_scans_bit_for_bit() {
    check(
        "batched_radii_match_single_scans_bit_for_bit",
        &Config::with_cases(48),
        |rng| {
            let n = rng.gen_range(1..=600usize);
            (
                n,
                rng.gen_range(1..=70usize),
                // Mixed k per query: 1, around 21, at n, and past n.
                (0..rng.gen_range(1..=12usize))
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => 1,
                        1 => rng.gen_range(1..=25usize),
                        2 => n,
                        _ => n + rng.gen_range(1..=5usize),
                    })
                    .collect::<Vec<usize>>(),
                rng.next_u64(),
                rng.gen_bool(0.4),
            )
        },
        |(n, dim, ks, seed, dups)| {
            prop_assume!(*n >= 1 && *dim >= 1 && !ks.is_empty());
            let data = dataset(*n, *dim, *seed, *dups);
            let cs = centres(&data, ks.len(), *seed);
            let queries: Vec<(&[f32], usize)> =
                cs.iter().zip(ks).map(|(c, &k)| (c.as_slice(), k)).collect();
            match check_batch(&data, &queries) {
                Ok(()) => Verdict::Pass,
                Err(msg) => Verdict::Fail(msg),
            }
        },
    );
}

#[test]
fn batched_radii_cover_group_tile_and_dimension_boundaries() {
    // Deterministic sweep of the kernel's boundaries: n below, at and
    // past one 16-point group and across several point tiles; dims
    // around the 8-dimension tile; a batch of one and a mixed-k batch.
    for &n in &[1usize, 5, 15, 16, 17, 31, 33, 130, 513] {
        for &dim in &[1usize, 7, 8, 9, 16, 60, 64, 70] {
            for dups in [false, true] {
                let data = dataset(n, dim, (n * 131 + dim) as u64, dups);
                let cs = centres(&data, 5, n as u64);
                let one = [(cs[0].as_slice(), 21)];
                check_batch(&data, &one)
                    .unwrap_or_else(|e| panic!("n={n} dim={dim} dups={dups} batch of one: {e}"));
                let ks = [1, 21, n, n + 3, 2];
                let mixed: Vec<(&[f32], usize)> =
                    cs.iter().zip(ks).map(|(c, k)| (c.as_slice(), k)).collect();
                check_batch(&data, &mixed)
                    .unwrap_or_else(|e| panic!("n={n} dim={dim} dups={dups} mixed k: {e}"));
            }
        }
    }
}

#[test]
fn malformed_queries_fail_alone() {
    let data = dataset(200, 9, 5, true);
    let good = centres(&data, 4, 9);
    let wrong_dim = vec![0.5f32; 10];
    let queries: Vec<(&[f32], usize)> = vec![
        (&good[0], 21),
        (&wrong_dim, 21),
        (&good[1], 0),
        (&good[2], 3),
        (&good[3], 250),
    ];
    check_batch(&data, &queries).unwrap();
    for isa in simd::supported() {
        for threads in THREADS {
            let batch = knn_radii_with(isa, &data, &queries, &Pool::new(threads));
            let failed: Vec<usize> = (0..batch.len()).filter(|&i| batch[i].is_err()).collect();
            assert_eq!(failed, vec![1, 2], "{isa} t{threads}");
        }
    }
    let empty = Dataset::with_capacity(9, 0).unwrap();
    let batch = knn_radii_with(simd::Isa::Scalar, &empty, &queries[..1], &Pool::new(2));
    assert!(batch[0].is_err(), "an empty dataset has no k-NN radius");
}

#[test]
fn empty_batch_is_empty() {
    let data = dataset(20, 3, 1, false);
    for isa in simd::supported() {
        for threads in THREADS {
            assert!(knn_radii_with(isa, &data, &[], &Pool::new(threads)).is_empty());
        }
    }
}
