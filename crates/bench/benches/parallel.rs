//! Scaling suite for the deterministic parallel layer (`hdidx-pool`):
//! the wired hot paths — bulk loading, per-query sphere counting, the
//! batched SoA counting kernel, and the resampled predictor — timed at
//! 1, 2 and 4 worker threads.
//!
//! Results go to `BENCH_parallel.json`; the speedup at `tN` is the
//! `t1` median divided by the `tN` median of the same group. On a
//! single hardware thread the curve is flat (the pool still runs, the
//! OS just cannot schedule the workers concurrently) — run on 4+ cores
//! to see the speedup the pool is designed for. Before timing, the
//! suite asserts that every thread count produces byte-identical
//! results, so the speedup is never bought with a different answer.

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_core::{Dataset, LeafSoup};
use hdidx_model::{QueryBall, Resampled, ResampledParams};
use hdidx_pool::Pool;
use hdidx_rand::{seeded, Rng};
use hdidx_vamsplit::bulkload::bulk_load_with;
use hdidx_vamsplit::query::count_sphere_intersections;
use hdidx_vamsplit::topology::{PageConfig, Topology};

const THREAD_COUNTS: &[usize] = &[1, 2, 4];

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

fn bench_bulk_load(suite: &mut BenchSuite, data: &Dataset, topo: &Topology) {
    let serial = bulk_load_with(&Pool::serial(), data, topo).unwrap();
    for &t in THREAD_COUNTS {
        let pool = Pool::new(t);
        assert_eq!(
            serial,
            bulk_load_with(&pool, data, topo).unwrap(),
            "bulk load must be byte-identical at t={t}"
        );
        suite.bench(
            &format!("bulk_load/{}x{}/t{t}", data.len(), data.dim()),
            || bulk_load_with(&pool, black_box(data), topo).unwrap(),
        );
    }
}

fn bench_per_query_eval(
    suite: &mut BenchSuite,
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
) {
    let tree = bulk_load_with(&Pool::serial(), data, topo).unwrap();
    let pages = tree.leaf_rects();
    let count = |pool: &Pool| {
        pool.par_map(queries, |q| {
            count_sphere_intersections(black_box(&pages), &q.center, q.radius)
        })
    };
    let serial = count(&Pool::serial());
    for &t in THREAD_COUNTS {
        let pool = Pool::new(t);
        assert_eq!(
            serial,
            count(&pool),
            "per-query counts must be identical at t={t}"
        );
        suite.bench(&format!("per_query_eval/{}q/t{t}", queries.len()), || {
            count(&pool)
        });
    }
}

/// The SoA batch kernel the predictors now run on: one `LeafSoup` shared
/// by all workers, queries fanned out in `QUERY_BLOCK` chunks. Identity
/// against the per-query scalar kernel is asserted at every thread count
/// before timing.
fn bench_batched_counting(
    suite: &mut BenchSuite,
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
) {
    let tree = bulk_load_with(&Pool::serial(), data, topo).unwrap();
    let pages = tree.leaf_rects();
    let soup = LeafSoup::from_rects(data.dim(), &pages).unwrap();
    let serial: Vec<u64> = queries
        .iter()
        .map(|q| soup.count_intersecting(&q.center, q.radius * q.radius))
        .collect();
    for &t in THREAD_COUNTS {
        let pool = Pool::new(t);
        assert_eq!(
            serial,
            soup.count_batch(&pool, queries, |q| (q.center.as_slice(), q.radius)),
            "batched counts must be identical at t={t}"
        );
        suite.bench(&format!("batched_counting/{}q/t{t}", queries.len()), || {
            black_box(&soup)
                .count_batch(&pool, queries, |q| (q.center.as_slice(), q.radius))
                .iter()
                .sum::<u64>()
        });
    }
}

fn bench_resampled(suite: &mut BenchSuite, data: &Dataset, topo: &Topology, queries: &[QueryBall]) {
    let model = Resampled::new(ResampledParams {
        m: 2_000,
        h_upper: 2,
        seed: 9,
    });
    let baseline = {
        hdidx_pool::set_threads(1);
        model.run(data, topo, queries).unwrap()
    };
    for &t in THREAD_COUNTS {
        // The predictor picks its pool up from the global configuration,
        // exactly like the CLI's --threads flag.
        hdidx_pool::set_threads(t);
        let p = model.run(data, topo, queries).unwrap();
        assert_eq!(
            baseline.prediction.per_query, p.prediction.per_query,
            "resampled prediction must be identical at t={t}"
        );
        suite.bench(
            &format!("resampled/{}x{}/t{t}", data.len(), data.dim()),
            || model.run(black_box(data), topo, queries).unwrap(),
        );
    }
    hdidx_pool::set_threads(1);
}

fn main() {
    let mut suite = BenchSuite::new("parallel");
    suite.set_isa(&hdidx_core::simd::describe());
    let data = random_dataset(30_000, 16, 2);
    let topo = Topology::new(16, data.len(), &PageConfig::DEFAULT).unwrap();
    let queries: Vec<QueryBall> = (0..96)
        .map(|i| QueryBall::new(data.point(i * 101).to_vec(), 0.35))
        .collect();
    bench_bulk_load(&mut suite, &data, &topo);
    bench_per_query_eval(&mut suite, &data, &topo, &queries);
    bench_batched_counting(&mut suite, &data, &topo, &queries);
    bench_resampled(&mut suite, &data, &topo, &queries);
    suite.finish();
}
