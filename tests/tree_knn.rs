//! Exactness of the early-exit, prefetching best-first k-NN probe
//! (`vamsplit::query::knn`).
//!
//! The probe prunes leaf entries with `dist2_below` and children with
//! `HyperRect::mindist2_within` once it holds k candidates. Every such
//! decision must be the one the full distance gives, so each query is
//! checked against:
//!
//! * the exhaustive best-first search kept verbatim below (`reference`):
//!   equal neighbor ids, equal distance bit patterns, equal
//!   `AccessStats`;
//! * the page-access model: the leaves visited are exactly those whose
//!   MINDIST² is at most the final k-th squared distance, which is what
//!   `count_sphere_intersections` counts at the k-NN radius;
//! * the linear scan `scan_knn`: equal distance bits, and the same
//!   neighbors wherever the k-th distance is not tied.
//!
//! Shapes: dims 1–70 (across the 8-dimension tile of `dist2_below`),
//! n 1–2,000, k from 1 past n, uniform, clustered and duplicate-heavy
//! grid data (exact ties at the k-th bound), query centres on the data,
//! off it, on the grid's half-steps and far outside the data, and trees
//! from both `bulk_load` and `build_on_disk`.

use hdidx_check::{check, prop_assume, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::knn::scan_knn;
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::build_on_disk;
use hdidx_repro::diskio::external::ExternalConfig;
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::{count_sphere_intersections, knn, KnnResult};
use hdidx_repro::vamsplit::topology::Topology;
use hdidx_repro::vamsplit::tree::RTree;

/// The best-first search as it was before the early exits and the
/// prefetch, kept verbatim as the reference the probe must reproduce.
mod reference {
    use hdidx_repro::core::{Dataset, Error, Result};
    use hdidx_repro::vamsplit::query::{AccessStats, KnnResult};
    use hdidx_repro::vamsplit::tree::{NodeKind, RTree};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Max-heap entry for the current k best candidates.
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

    /// Min-heap entry (via reversed ordering) for the node frontier.
    #[derive(Debug, PartialEq)]
    struct Frontier {
        mindist2: f64,
        node: u32,
    }
    impl Eq for Frontier {}
    impl Ord for Frontier {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .mindist2
                .total_cmp(&self.mindist2)
                .then(other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Frontier {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub fn knn(tree: &RTree, data: &Dataset, q: &[f32], k: usize) -> Result<KnnResult> {
        if q.len() != tree.dim() {
            return Err(Error::DimensionMismatch {
                expected: tree.dim(),
                actual: q.len(),
            });
        }
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        let mut stats = AccessStats::default();
        let mut best: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
        let mut frontier: BinaryHeap<Frontier> = BinaryHeap::new();
        frontier.push(Frontier {
            mindist2: tree.root().rect.mindist2(q),
            node: 0,
        });
        while let Some(Frontier { mindist2, node }) = frontier.pop() {
            if best.len() == k && mindist2 > best.peek().expect("k > 0").dist2 {
                break;
            }
            let n = &tree.nodes()[node as usize];
            match &n.kind {
                NodeKind::Inner { children } => {
                    stats.dir_accesses += 1;
                    for &c in children {
                        let md = tree.nodes()[c as usize].rect.mindist2(q);
                        if best.len() < k || md <= best.peek().expect("non-empty").dist2 {
                            frontier.push(Frontier {
                                mindist2: md,
                                node: c,
                            });
                        }
                    }
                }
                NodeKind::Leaf { .. } => {
                    stats.leaf_accesses += 1;
                    for &id in tree.leaf_entries(n) {
                        let d2 = data.dist2_to(id as usize, q);
                        if best.len() < k {
                            best.push(Candidate { dist2: d2, id });
                        } else if d2 < best.peek().expect("non-empty").dist2 {
                            best.pop();
                            best.push(Candidate { dist2: d2, id });
                        }
                    }
                }
            }
        }
        // `into_sorted_vec` yields ascending (dist2, id) — the order
        // `scan_knn` reports. Re-sorting by the rounded `sqrt` would swap two
        // neighbors whose distinct `dist2` share one square root.
        let neighbors: Vec<(f64, u32)> = best
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.dist2.sqrt(), c.id))
            .collect();
        Ok(KnnResult { neighbors, stats })
    }
}

/// How a case's points are drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Uniform in the unit cube.
    Uniform,
    /// A few tight Gaussian-like clusters (sums of uniforms), like the
    /// paper's real datasets.
    Clustered,
    /// A coarse half-step grid where every fourth point copies an earlier
    /// one: exact distance ties everywhere, including at the k-th bound.
    Grid,
}

fn shape_of(code: u8) -> Shape {
    match code % 3 {
        0 => Shape::Uniform,
        1 => Shape::Clustered,
        _ => Shape::Grid,
    }
}

fn dataset(n: usize, dim: usize, shape: Shape, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let centres: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
        .collect();
    let mut flat: Vec<f32> = Vec::with_capacity(n * dim);
    for i in 0..n {
        match shape {
            Shape::Uniform => flat.extend((0..dim).map(|_| rng.gen::<f32>())),
            Shape::Clustered => {
                let c = &centres[rng.gen_range(0..centres.len())];
                for &x in c {
                    let noise: f32 = (0..3).map(|_| rng.gen::<f32>() - 0.5).sum();
                    flat.push(x + 0.05 * noise);
                }
            }
            Shape::Grid if i >= 4 && i % 4 == 0 => {
                let src = rng.gen_range(0..i);
                let row = flat[src * dim..(src + 1) * dim].to_vec();
                flat.extend_from_slice(&row);
            }
            Shape::Grid => flat.extend((0..dim).map(|_| rng.gen_range(0..4u32) as f32 * 0.5)),
        }
    }
    Dataset::from_flat(dim, flat).unwrap()
}

/// Query centres: a data point, a fresh point, a grid half-step point
/// (equidistant from many grid points) and a point far outside the data.
fn centres(data: &Dataset, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed ^ 0x7EE);
    let dim = data.dim();
    vec![
        data.point(rng.gen_range(0..data.len())).to_vec(),
        (0..dim).map(|_| rng.gen::<f32>()).collect(),
        (0..dim)
            .map(|_| rng.gen_range(0..8u32) as f32 * 0.25)
            .collect(),
        (0..dim)
            .map(|j| if j % 2 == 0 { 1.0e3 } else { -250.0 })
            .collect(),
    ]
}

/// One tree over `data`: in-memory bulk load, or the external build.
fn tree_over(data: &Dataset, cap_data: usize, cap_dir: usize, on_disk: bool) -> RTree {
    let topo = Topology::from_capacities(data.dim(), data.len(), cap_data, cap_dir).unwrap();
    let tree = if on_disk {
        let cfg = ExternalConfig::with_mem_points((3 * cap_data).max(data.len() / 3)).unwrap();
        build_on_disk(data, &topo, &cfg).unwrap().tree
    } else {
        bulk_load(data, &topo).unwrap()
    };
    tree.check_invariants().unwrap();
    tree
}

fn bits(r: &KnnResult) -> Vec<(u64, u32)> {
    r.neighbors
        .iter()
        .map(|&(d, id)| (d.to_bits(), id))
        .collect()
}

/// Checks one query against every reference; `Err` names the mismatch.
fn check_query(tree: &RTree, data: &Dataset, q: &[f32], k: usize) -> Result<(), String> {
    let got = knn(tree, data, q, k).map_err(|e| e.to_string())?;
    let want = reference::knn(tree, data, q, k).map_err(|e| e.to_string())?;
    if bits(&got) != bits(&want) {
        return Err(format!(
            "k={k}: neighbors {:?} != reference {:?}",
            got.neighbors, want.neighbors
        ));
    }
    if got.stats != want.stats {
        return Err(format!(
            "k={k}: stats {:?} != reference {:?}",
            got.stats, want.stats
        ));
    }
    // The page-access model. The k-th squared distance is the stored one;
    // `count_sphere_intersections` squares the radius back, which is the
    // same value unless `sqrt` rounded.
    let (_, kth) = *got.neighbors.last().ok_or("no neighbors")?;
    let kth2 = data.dist2_to(kth as usize, q);
    let leaves = tree.leaf_rects();
    let within = leaves.iter().filter(|r| r.mindist2(q) <= kth2).count() as u64;
    if got.stats.leaf_accesses != within {
        return Err(format!(
            "k={k}: {} leaf accesses, {within} leaves within the k-th distance",
            got.stats.leaf_accesses
        ));
    }
    let radius = got.radius();
    if radius * radius == kth2 {
        let counted = count_sphere_intersections(&leaves, q, radius);
        if counted != got.stats.leaf_accesses {
            return Err(format!(
                "k={k}: {} leaf accesses, {counted} sphere intersections",
                got.stats.leaf_accesses
            ));
        }
    }
    // The linear scan: same distances bit for bit; the same neighbors
    // strictly inside the k-th distance (ties at it may keep other ids).
    let scan = scan_knn(data, q, k).map_err(|e| e.to_string())?;
    let scan_bits: Vec<u64> = scan.iter().map(|n| n.0.to_bits()).collect();
    let tree_bits: Vec<u64> = got.neighbors.iter().map(|n| n.0.to_bits()).collect();
    if scan_bits != tree_bits {
        return Err(format!("k={k}: distances differ from scan_knn"));
    }
    let inside = |nn: &[(f64, u32)]| -> Vec<u32> {
        nn.iter()
            .map(|&(_, id)| id)
            .filter(|&id| data.dist2_to(id as usize, q) < kth2)
            .collect()
    };
    if inside(&got.neighbors) != inside(&scan) {
        return Err(format!(
            "k={k}: neighbors inside the k-th distance differ from scan_knn"
        ));
    }
    Ok(())
}

/// Every query of one case: each centre at k = 1, a small k, n, and past
/// n.
fn check_case(tree: &RTree, data: &Dataset, ks: &[usize], seed: u64) -> Result<(), String> {
    for (i, q) in centres(data, seed).iter().enumerate() {
        for &k in ks {
            check_query(tree, data, q, k).map_err(|e| format!("centre {i}: {e}"))?;
        }
    }
    Ok(())
}

#[test]
fn early_exit_probe_matches_the_exhaustive_search() {
    check(
        "early_exit_probe_matches_the_exhaustive_search",
        &Config::with_cases(64),
        |rng| {
            let n = if rng.gen_bool(0.3) {
                rng.gen_range(1..=40usize)
            } else {
                rng.gen_range(1..=2_000usize)
            };
            (
                (n, rng.gen_range(1..=70usize)),
                rng.gen_range(0..3u8),
                (rng.gen_range(2..=40usize), rng.gen_range(2..=12usize)),
                rng.gen_bool(0.5),
                rng.gen_range(1..=25usize),
                rng.next_u64(),
            )
        },
        |&((n, dim), shape, (cap_data, cap_dir), on_disk, k, seed)| {
            prop_assume!(n >= 1 && dim >= 1 && cap_data >= 2 && cap_dir >= 2 && k >= 1);
            let data = dataset(n, dim, shape_of(shape), seed);
            let tree = tree_over(&data, cap_data, cap_dir, on_disk);
            match check_case(&tree, &data, &[1, k, n, n + 3], seed) {
                Ok(()) => Verdict::Pass,
                Err(msg) => Verdict::Fail(msg),
            }
        },
    );
}

#[test]
fn probe_matches_across_tile_and_page_boundaries() {
    // A deterministic sweep of the boundaries the early exits cross: dims
    // around the 8-dimension tile, single-page and multi-level trees,
    // and both builders.
    for &n in &[1usize, 2, 7, 64, 513] {
        for &dim in &[1usize, 7, 8, 9, 16, 60, 70] {
            for shape in [Shape::Uniform, Shape::Clustered, Shape::Grid] {
                for on_disk in [false, true] {
                    let data = dataset(n, dim, shape, (n * 97 + dim) as u64);
                    let tree = tree_over(&data, 4, 3, on_disk);
                    check_case(&tree, &data, &[1, 21, n, n + 1], n as u64).unwrap_or_else(|e| {
                        panic!("n={n} dim={dim} {shape:?} on_disk={on_disk}: {e}")
                    });
                }
            }
        }
    }
}

#[test]
fn ties_at_the_kth_bound_keep_the_reference_ids() {
    // Twenty copies each of two points at distance 1 from the query, and
    // one nearer point: past k = 1 the k-th bound is tied many ways over,
    // and the probe must keep exactly the ids the exhaustive search keeps.
    let mut flat = Vec::new();
    for i in 0..40 {
        let x = if i % 2 == 0 { 1.0f32 } else { -1.0 };
        flat.extend_from_slice(&[x, 0.0, 0.0]);
    }
    flat.extend_from_slice(&[0.5, 0.5, 0.5]);
    let data = Dataset::from_flat(3, flat).unwrap();
    for on_disk in [false, true] {
        let tree = tree_over(&data, 3, 2, on_disk);
        for k in [1, 2, 5, 12, 40, 41, 50] {
            check_query(&tree, &data, &[0.0, 0.0, 0.0], k)
                .unwrap_or_else(|e| panic!("on_disk={on_disk}: {e}"));
        }
    }
}
