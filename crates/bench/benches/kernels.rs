//! Micro-benchmarks for the hot kernels underneath every experiment:
//! MINDIST, quickselect partitioning, the VAMSplit split kernels and the
//! on-disk build, bulk loading, k-NN search, sphere/leaf intersection
//! counting, the resampled predictor's box routing, and the fractal
//! estimator.
//!
//! Runs on the workspace's own `hdidx-check` bench runner; results are
//! printed and written to `BENCH_kernels.json` (one JSON object per
//! kernel: median/p95/min/mean ns and throughput).

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_core::knn::{knn_radii_with, scan_knn_radius, scan_knn_with};
use hdidx_core::stats::{dim_stats_with, max_variance_dim};
use hdidx_core::{simd, Dataset, HyperRect, LeafSoup};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_model::hupper::recommended_h_upper;
use hdidx_model::resampled::assign_to_box;
use hdidx_model::upper::build_upper_phase;
use hdidx_pool::Pool;
use hdidx_rand::{seeded, Rng};
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::kdtree::bulk_load_midsplit;
use hdidx_vamsplit::query::{count_sphere_intersections, knn};
use hdidx_vamsplit::split::{partition_by_rank, rank_property_holds};
use hdidx_vamsplit::topology::{PageConfig, Topology};

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

fn bench_mindist(suite: &mut BenchSuite) {
    let data = random_dataset(50_000, 60, 7);
    let topo = Topology::new(60, 50_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let rects = tree.leaf_rects();
    let q = data.point(3).to_vec();
    suite.bench(&format!("mindist2/{}x60", rects.len()), || {
        rects.iter().map(|r| black_box(r.mindist2(&q))).sum::<f64>()
    });
}

fn bench_partition(suite: &mut BenchSuite) {
    for &n in &[1_000usize, 10_000, 100_000] {
        let data = random_dataset(n, 16, 1);
        let ids: Vec<u32> = (0..n as u32).collect();
        suite.bench_with_setup(
            &format!("partition_by_rank/{n}"),
            || ids.clone(),
            |mut ids| {
                partition_by_rank(&data, black_box(&mut ids), 3, n / 2);
                ids
            },
        );
    }
}

/// The split kernels of the VAMSplit bulk loaders on the full-size
/// TEXTURE60 analog (66 MB of coordinates): `dim_stats` per ISA and the
/// rank partition over all ids in shuffled order (as a segment's ids are
/// once earlier splits have permuted them), and the whole on-disk build at
/// the end-to-end benchmark's M = 10,000. Identity first: every ISA's
/// mean and variance bits must equal the scalar path's, the partition
/// must be a permutation with the rank property, and the on-disk tree
/// must equal the in-memory loader's.
fn bench_split_kernels(suite: &mut BenchSuite) {
    const M: usize = 10_000;
    let spec = NamedDataset::Texture60.spec();
    let (n, dim) = (spec.n(), spec.dim());
    let rows = [
        format!("dim_stats/{n}x{dim}/gathered"),
        format!("partition_by_rank/{n}x{dim}"),
        format!("build_on_disk/{n}x{dim}/m{M}"),
    ];
    if let Some(f) = suite.filter() {
        if !rows.iter().any(|r| r.contains(f)) {
            return;
        }
    }
    let data = spec.generate().unwrap();
    let mut ids: Vec<u32> = (0..n as u32).collect();
    seeded(8).fill_shuffle(&mut ids);

    let stat_bits = |isa| {
        let s = dim_stats_with(isa, &data, &ids).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(&s.mean), bits(&s.variance))
    };
    let scalar = stat_bits(simd::Isa::Scalar);
    for isa in simd::supported() {
        assert_eq!(stat_bits(isa), scalar, "{isa} dim_stats must match scalar");
        suite.bench(&format!("{}/{isa}", rows[0]), || {
            dim_stats_with(isa, black_box(&data), &ids).unwrap()
        });
    }

    let split_dim = max_variance_dim(&data, &ids).unwrap();
    let mut parted = ids.clone();
    partition_by_rank(&data, &mut parted, split_dim, n / 2);
    assert!(rank_property_holds(&data, &parted, split_dim, n / 2));
    parted.sort_unstable();
    assert!(parted.iter().copied().eq(0..n as u32), "not a permutation");
    suite.bench_with_setup(
        &rows[1],
        || ids.clone(),
        |mut ids| {
            partition_by_rank(&data, black_box(&mut ids), split_dim, n / 2);
            ids
        },
    );

    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let cfg = ExternalConfig::with_mem_points(M).unwrap();
    let built = build_on_disk(&data, &topo, &cfg).unwrap();
    assert_eq!(
        built.tree,
        bulk_load(&data, &topo).unwrap(),
        "on-disk tree must equal the in-memory tree"
    );
    suite.bench(&rows[2], || {
        build_on_disk(black_box(&data), &topo, &cfg).unwrap()
    });
}

fn bench_bulk_load(suite: &mut BenchSuite) {
    for &(n, dim) in &[(10_000usize, 16usize), (10_000, 60), (50_000, 16)] {
        let data = random_dataset(n, dim, 2);
        let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
        suite.bench(&format!("bulk_load/{n}x{dim}"), || {
            bulk_load(black_box(&data), &topo).unwrap()
        });
    }
}

fn bench_midsplit(suite: &mut BenchSuite) {
    let data = random_dataset(20_000, 16, 3);
    let topo = Topology::new(16, 20_000, &PageConfig::DEFAULT).unwrap();
    suite.bench("bulk_load_midsplit/20000x16", || {
        bulk_load_midsplit(black_box(&data), &topo).unwrap()
    });
}

fn bench_knn(suite: &mut BenchSuite) {
    let data = random_dataset(50_000, 16, 4);
    let topo = Topology::new(16, 50_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let q: Vec<f32> = data.point(17).to_vec();
    // Identity first: every supported ISA must reproduce the scalar scan
    // bit for bit — distances compared by bit pattern, not approximately.
    let knn_bits = |isa| -> Vec<(u64, u32)> {
        scan_knn_with(isa, &data, &q, 21)
            .unwrap()
            .iter()
            .map(|&(d, id)| (d.to_bits(), id))
            .collect()
    };
    let scalar_nn = knn_bits(simd::Isa::Scalar);
    for isa in simd::supported() {
        assert_eq!(
            knn_bits(isa),
            scalar_nn,
            "{isa} k-NN scan must be byte-identical to scalar"
        );
    }
    suite.bench("knn_tree/50000x16/k21", || {
        knn(black_box(&tree), &data, &q, 21).unwrap()
    });
    bench_knn_tree_clustered(suite);
    for isa in simd::supported() {
        suite.bench(&format!("knn_scan/50000x16/k21/{isa}"), || {
            scan_knn_with(isa, black_box(&data), &q, 21).unwrap()
        });
    }
}

/// The best-first tree probe where `measure` spends its time: the
/// full-size clustered TEXTURE60 analog (66 MB of coordinates, past the
/// last-level cache, as in the end-to-end benchmark), 100 centres drawn
/// from the data (as the workload's density-biased queries are), k = 21.
/// Each iteration runs the next centre of the cycle, so the row is the
/// mean per-query cost. Identity first: every centre's neighbors must
/// carry the linear scan's distance bits, and its leaf accesses must be
/// exactly the leaves within the k-th distance.
fn bench_knn_tree_clustered(suite: &mut BenchSuite) {
    const K: usize = 21;
    let data = NamedDataset::Texture60.spec().generate().unwrap();
    let (n, dim) = (data.len(), data.dim());
    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let leaves = tree.leaf_rects();
    let centres: Vec<&[f32]> = (0..100).map(|i| data.point(i * n / 100)).collect();
    for q in &centres {
        let res = knn(&tree, &data, q, K).unwrap();
        let scan: Vec<u64> = scan_knn_with(simd::Isa::Scalar, &data, q, K)
            .unwrap()
            .iter()
            .map(|nn| nn.0.to_bits())
            .collect();
        let probe: Vec<u64> = res.neighbors.iter().map(|nn| nn.0.to_bits()).collect();
        assert_eq!(probe, scan, "tree probe distances must equal the scan's");
        let kth = res.neighbors[K - 1].1 as usize;
        let kth2 = data.dist2_to(kth, q);
        let within = leaves.iter().filter(|r| r.mindist2(q) <= kth2).count() as u64;
        assert_eq!(res.stats.leaf_accesses, within, "optimal leaf accesses");
    }
    let mut next = centres.iter().cycle();
    suite.bench(&format!("knn_tree/{n}x{dim}/k{K}"), || {
        knn(black_box(&tree), &data, next.next().unwrap(), K).unwrap()
    });
}

/// Batched k-NN radii against the per-query loop they replace: 500
/// dataset points spread evenly over the ids as centres, k = 21, one
/// worker, per ISA.
/// Identity first: every ISA's batch must equal the scalar per-query
/// loop bit for bit.
fn bench_knn_radii(suite: &mut BenchSuite) {
    const QUERIES: usize = 500;
    for &(n, dim) in &[(50_000usize, 16usize), (20_000, 64)] {
        let data = random_dataset(n, dim, 6);
        let centres: Vec<(&[f32], usize)> = (0..QUERIES)
            .map(|i| (data.point(i * (n / QUERIES)), 21))
            .collect();
        let pool = Pool::serial();
        let per_query = |isa| -> Vec<u64> {
            centres
                .iter()
                .map(|&(q, k)| {
                    scan_knn_with(isa, &data, q, k)
                        .unwrap()
                        .last()
                        .unwrap()
                        .0
                        .to_bits()
                })
                .collect()
        };
        let batched = |isa| -> Vec<u64> {
            knn_radii_with(isa, &data, &centres, &pool)
                .into_iter()
                .map(|r| r.unwrap().to_bits())
                .collect()
        };
        let reference = per_query(simd::Isa::Scalar);
        for isa in simd::supported() {
            assert_eq!(
                per_query(isa),
                reference,
                "{isa} per-query radii must match scalar"
            );
            assert_eq!(
                batched(isa),
                reference,
                "{isa} batched radii must match the loop"
            );
        }
        for isa in simd::supported() {
            suite.bench(
                &format!("knn_radii_loop/{n}x{dim}/q{QUERIES}/k21/{isa}"),
                || {
                    centres
                        .iter()
                        .map(|&(q, k)| scan_knn_with(isa, black_box(&data), q, k).unwrap().len())
                        .sum::<usize>()
                },
            );
            suite.bench(&format!("knn_radii/{n}x{dim}/q{QUERIES}/k21/{isa}"), || {
                knn_radii_with(isa, black_box(&data), &centres, &pool)
            });
        }
    }
}

fn bench_intersections(suite: &mut BenchSuite) {
    let data = random_dataset(100_000, 60, 5);
    let topo = Topology::new(60, 100_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let pages = tree.leaf_rects();
    let q = data.point(9).to_vec();
    suite.bench(
        &format!("count_sphere_intersections/{}x60", pages.len()),
        || count_sphere_intersections(black_box(&pages), &q, 0.5),
    );
}

/// Density-biased ball queries for the soup benches: dataset points with
/// exact k-NN radii, the same query shape every predictor consumes.
fn soup_queries(data: &Dataset, n_queries: usize, k: usize) -> Vec<(Vec<f32>, f64)> {
    let stride = (data.len() / n_queries).max(1);
    (0..n_queries)
        .map(|i| {
            let center = data.point((i * stride) % data.len()).to_vec();
            let radius = scan_knn_radius(data, &center, k).unwrap();
            (center, radius)
        })
        .collect()
}

/// Batch-vs-single tolerance for [`run_soup_shape`]'s pinned shapes: the
/// batched kernel must not fall behind single-query by more than this
/// ratio in the *best* of [`PIN_ROUNDS`] paired rounds. Each round's
/// ratio is computed from two back-to-back sweeps, so even a sustained
/// machine-noise phase lands on both sides; one quiet round is enough to
/// prove parity. The regression this guards against (the PR-5 leaf-major
/// batch order at thousands of leaves) was more than 2x and systematic —
/// it fails every round no matter the noise phase.
const BATCH_PIN_SLACK: f64 = 1.25;

/// Rounds of the paired batch-vs-single pin. Each round times one
/// single-query sweep and one batched sweep back to back and keeps the
/// per-round ratio; the pin compares the smallest ratio across rounds.
const PIN_ROUNDS: usize = 12;

/// Asserts the AoS loop and — for **every supported ISA** — the
/// single-query and batched SoA kernels all agree on every query (batch
/// at several thread counts), then times the AoS-vs-SoA matchup per ISA
/// on this shape. Identity first: a speedup bought with a different count
/// would be meaningless. With `pin_batch` a paired head-to-head must also
/// satisfy batch ≤ single-query (the PR-5 baseline regressed this at
/// large leaf counts).
fn run_soup_shape(
    suite: &mut BenchSuite,
    prefix: &str,
    n: usize,
    dim: usize,
    seed: u64,
    n_queries: usize,
    pin_batch: bool,
) {
    let data = random_dataset(n, dim, seed);
    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let pages = tree.leaf_rects();
    let soup = LeafSoup::from_rects(dim, &pages).unwrap();
    let queries = soup_queries(&data, n_queries, 21);

    let aos: Vec<u64> = queries
        .iter()
        .map(|(c, r)| count_sphere_intersections(&pages, c, *r))
        .collect();
    for isa in simd::supported() {
        let single: Vec<u64> = queries
            .iter()
            .map(|(c, r)| soup.count_intersecting_with(isa, c, r * r))
            .collect();
        assert_eq!(aos, single, "{isa} SoA must be byte-identical to AoS");
        for t in [1usize, 2, 8] {
            let batch =
                soup.count_batch_with(isa, &Pool::new(t), &queries, |q| (q.0.as_slice(), q.1));
            assert_eq!(
                aos, batch,
                "batched {isa} SoA must be byte-identical at t={t}"
            );
        }
    }

    let tag = format!("{prefix}{}x{dim}", pages.len());
    suite.bench(&format!("aos_count/{tag}"), || {
        queries
            .iter()
            .map(|(c, r)| count_sphere_intersections(black_box(&pages), c, *r))
            .sum::<u64>()
    });
    let serial = Pool::serial();
    for isa in simd::supported() {
        suite.bench(&format!("soa_count/{tag}/{isa}"), || {
            queries
                .iter()
                .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                .sum::<u64>()
        });
        suite.bench(&format!("soa_count_batch/{tag}/{isa}"), || {
            black_box(&soup)
                .count_batch_with(isa, &serial, &queries, |q| (q.0.as_slice(), q.1))
                .iter()
                .sum::<u64>()
        });
    }
    if pin_batch {
        for isa in simd::supported() {
            let mut best_ratio = f64::INFINITY;
            for _ in 0..PIN_ROUNDS {
                let t = std::time::Instant::now();
                let s: u64 = queries
                    .iter()
                    .map(|(c, r)| black_box(&soup).count_intersecting_with(isa, c, r * r))
                    .sum();
                let single_t = t.elapsed().as_secs_f64();
                black_box(s);
                let t = std::time::Instant::now();
                let b: u64 = black_box(&soup)
                    .count_batch_with(isa, &serial, &queries, |q| (q.0.as_slice(), q.1))
                    .iter()
                    .sum();
                let batch_t = t.elapsed().as_secs_f64();
                black_box(b);
                if single_t > 0.0 {
                    best_ratio = best_ratio.min(batch_t / single_t);
                }
            }
            assert!(
                best_ratio <= BATCH_PIN_SLACK,
                "{tag}/{isa}: batched count regressed below single-query \
                 throughput in every paired round (best batch/single ratio \
                 {best_ratio:.2})",
            );
        }
    }
}

fn bench_soup(suite: &mut BenchSuite) {
    // d ∈ {16, 64}; 1613x64 is the acceptance-criterion shape (the
    // committed-baseline comparison), 3226x64 the large-leaf-count shape
    // that pins batch ≥ single-query throughput.
    run_soup_shape(suite, "", 50_000, 16, 11, 64, false);
    run_soup_shape(suite, "", 12_000, 64, 12, 64, false);
    run_soup_shape(suite, "", 50_000, 64, 13, 64, true);
    run_soup_shape(suite, "", 100_000, 64, 15, 64, true);
}

/// Tiny CI leg (`cargo bench --bench kernels -- soup_smoke`): one small
/// shape that exercises the full identity assertion (AoS == per-ISA SoA ==
/// batched SoA at 1/2/8 threads) before a single fast timing pass, so
/// every CI run proves the bit-identity contract without paying for the
/// large benchmark datasets. No batch pin here: smoke timing budgets are
/// too noisy to compare medians meaningfully.
fn bench_soup_smoke(suite: &mut BenchSuite) {
    run_soup_shape(suite, "soup_smoke/", 2_000, 8, 14, 16, false);
}

/// The resampled predictor's Fig. 6 routing where `predict` spends its
/// time: the full-size COLOR64 analog at the end-to-end benchmark's
/// M = 10,000, where `σ_lower = 1`, so every point is routed, in id
/// order, through the grown upper-leaf boxes (each iteration starts from
/// a fresh copy of them). Identity first: the chosen boxes and the grown
/// boxes must equal a full-MINDIST first-minimum scan's.
fn bench_assign(suite: &mut BenchSuite) {
    const M: usize = 10_000;
    let spec = NamedDataset::Color64.spec();
    let (n, dim) = (spec.n(), spec.dim());
    if suite
        .filter()
        .is_some_and(|f| !format!("assign/{n}x{dim}").contains(f))
    {
        return;
    }
    let data = spec.generate().unwrap();
    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let h_upper = recommended_h_upper(&topo, M).unwrap();
    let boxes = build_upper_phase(&data, &topo, M, h_upper, 42)
        .unwrap()
        .grown_leaves;
    let route = |boxes: &mut [HyperRect]| -> Vec<usize> {
        (0..n)
            .map(|i| assign_to_box(boxes, data.point(i)))
            .collect()
    };
    let mut routed = boxes.clone();
    let mut scanned = boxes.clone();
    let full_scan: Vec<usize> = (0..n)
        .map(|i| {
            let p = data.point(i);
            let d: Vec<f64> = scanned.iter().map(|b| b.mindist2(p)).collect();
            let best = (1..d.len()).fold(0, |b, j| if d[j] < d[b] { j } else { b });
            if d[best] > 0.0 {
                scanned[best].expand_to_point(p);
            }
            best
        })
        .collect();
    assert_eq!(
        route(&mut routed),
        full_scan,
        "routing must equal the full scan"
    );
    assert_eq!(routed, scanned, "grown boxes must equal the full scan's");
    suite.bench_with_setup(
        &format!("assign/{n}x{dim}/k{}", boxes.len()),
        || boxes.clone(),
        |mut boxes| route(black_box(&mut boxes)),
    );
}

fn bench_fractal(suite: &mut BenchSuite) {
    let data = random_dataset(20_000, 16, 6);
    suite.bench("fractal_dims/20000x16/6levels", || {
        hdidx_baselines::fractal::estimate_fractal_dims(black_box(&data), 6).unwrap()
    });
}

fn main() {
    let mut suite = BenchSuite::new("kernels");
    suite.set_isa(&simd::describe());
    if suite.filter() == Some("soup_smoke") {
        bench_soup_smoke(&mut suite);
        suite.finish();
        return;
    }
    bench_mindist(&mut suite);
    bench_partition(&mut suite);
    bench_split_kernels(&mut suite);
    bench_bulk_load(&mut suite);
    bench_midsplit(&mut suite);
    bench_knn(&mut suite);
    bench_knn_radii(&mut suite);
    bench_intersections(&mut suite);
    bench_soup(&mut suite);
    bench_assign(&mut suite);
    bench_fractal(&mut suite);
    suite.finish();
}
