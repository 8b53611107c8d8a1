//! The §4.4 **resampled index tree**: the paper's flagship predictor.
//!
//! After the upper phase, a second Bernoulli sample at rate
//! `σ_lower = min(k·M/N, 1)` is drawn during one more scan. Every resampled
//! point is assigned to the grown upper-tree leaf box that contains it — or
//! to the nearest box by Euclidean MINDIST, growing that box to cover the
//! point (the paper's Figure 6). Points are spooled to `k` consecutive disk
//! areas (one per box) through an `M`-point memory window (Figure 8's
//! chunked pattern). Each area is then read back and its lower tree is
//! bulk-loaded entirely in memory at the `k`-fold increased sampling rate;
//! the lower-tree data pages are grown by `δ(C_eff,data, σ_lower)` and the
//! query spheres are counted against them.
//!
//! The routing ([`assign_to_box`]) tests containment first, by comparisons
//! alone: on the COLOR64 analog 98 % of the resampled points lie inside
//! some box, and only the rest pay for an early-exit MINDIST scan. It
//! chooses and grows exactly the boxes a full-MINDIST scan would (DESIGN
//! §5j).
//!
//! The I/O is measured by running the actual access pattern through the
//! simulated disk — the paper's Eq. (5) closed form for the same quantity
//! lives in [`crate::cost`] and the two are compared in tests.

use crate::compensation::growth_factor;
use crate::cutoff::synthesize_pages;
use crate::hupper::sigma_lower;
use crate::predictor::Predictor;
use crate::upper::build_upper_phase;
use crate::{DegradedReport, Prediction, QueryBall};
use hdidx_core::rng::{bernoulli_sample, seeded};
use hdidx_core::{Dataset, HyperRect, LeafSoup, Result};
use hdidx_diskio::{Disk, DiskOptions, IoStats};
use hdidx_faults::{FaultConfig, FaultEvent, FaultPhase};
use hdidx_pool::Pool;
use hdidx_vamsplit::bulkload::bulk_load_subtree_with;
use hdidx_vamsplit::topology::Topology;

/// Parameters of the resampled predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResampledParams {
    /// Memory budget in points (the paper's `M`).
    pub m: usize,
    /// Height of the upper tree.
    pub h_upper: usize,
    /// RNG seed (upper sample and resampling derive from it).
    pub seed: u64,
}

/// Outputs of the resampled predictor.
#[derive(Debug, Clone)]
pub struct ResampledPrediction {
    /// The prediction (per-query counts, I/O, page count).
    pub prediction: Prediction,
    /// Upper-tree sampling rate `σ_upper`.
    pub sigma_upper: f64,
    /// Lower-tree sampling rate `σ_lower`.
    pub sigma_lower: f64,
    /// Number of upper-tree leaf pages `k`.
    pub k: usize,
    /// Faults injected during the prediction, in decision order (empty
    /// without a fault configuration).
    pub fault_trace: Vec<FaultEvent>,
}

/// The §4.4 resampled predictor as a reusable [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct Resampled {
    params: ResampledParams,
    faults: Option<FaultConfig>,
}

impl Resampled {
    /// Wraps the parameters into a predictor instance (no fault
    /// injection).
    pub fn new(params: ResampledParams) -> Resampled {
        Resampled {
            params,
            faults: None,
        }
    }

    /// Attaches (or clears) a fault-injection configuration: the
    /// prediction's simulated I/O then runs through a seeded fault plan
    /// with bounded retry, and upper leaves whose second-sample I/O
    /// ultimately fails degrade to cutoff extrapolation (reported in
    /// [`Prediction::degraded`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Resampled {
        self.faults = faults;
        self
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &ResampledParams {
        &self.params
    }

    /// Runs the predictor, returning the resampled-specific outputs
    /// (`sigma_upper`, `sigma_lower`, `k`) alongside the generic
    /// [`Prediction`].
    ///
    /// The `k` in-memory lower-tree builds and the per-query sphere
    /// counting fan out over the current [`Pool`]; the I/O charging
    /// replays the paper's sequential access pattern unchanged, so the
    /// result — counts *and* I/O bill — is identical for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates upper-phase errors and the §4.5 feasibility violations
    /// (e.g. `σ_lower · C_eff,data ≤ 1`, which surfaces as a compensation
    /// domain error advising a taller upper tree).
    pub fn run(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<ResampledPrediction> {
        predict_resampled_impl(data, topo, queries, &self.params, self.faults)
    }
}

impl Predictor for Resampled {
    fn name(&self) -> &str {
        "resampled"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        Ok(self.run(data, topo, queries)?.prediction)
    }
}

/// Runs the resampled predictor for `queries`.
///
/// **Deprecated in favor of [`Resampled`]** (`Resampled::new(params)
/// .run(…)`), which also implements the unified [`Predictor`] trait; this
/// free function remains as a thin compatibility wrapper.
///
/// # Errors
///
/// Propagates upper-phase errors and the §4.5 feasibility violations
/// (e.g. `σ_lower · C_eff,data ≤ 1`, which surfaces as a compensation
/// domain error advising a taller upper tree).
pub fn predict_resampled(
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
    params: &ResampledParams,
) -> Result<ResampledPrediction> {
    predict_resampled_impl(data, topo, queries, params, None)
}

use crate::access_lost;

fn predict_resampled_impl(
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
    params: &ResampledParams,
    faults: Option<FaultConfig>,
) -> Result<ResampledPrediction> {
    crate::validate_balls(queries, topo.dim())?;
    let up = build_upper_phase(data, topo, params.m, params.h_upper, params.seed)?;
    let k = up.k();
    let n = data.len();
    let b = topo.cap_data() as u64; // points per data-file page
    let s_lower = sigma_lower(topo, params.m, params.h_upper);

    // Growth factor for the lower-tree data pages; validates the domain
    // (sigma_lower must exceed 1/C) even when it ends up being 1.
    let leaf_factor = if s_lower >= 1.0 {
        1.0
    } else {
        growth_factor(topo.cap_data() as f64, s_lower)?
    };

    // ---- I/O accounting disk -------------------------------------------
    let mut disk = Disk::with_options(
        &DiskOptions::new()
            .fault_plan(faults)
            .phase(FaultPhase::Predict),
    );
    let data_pages = (n as u64).div_ceil(b);
    let file = disk.alloc(data_pages)?;
    let area_pages = (params.m as u64).div_ceil(b).max(1);
    let areas = disk.alloc((k as u64) * area_pages)?;

    // Step 2 (Eq. 2): read the q query points randomly.
    disk.charge(IoStats::random(queries.len() as u64));
    // Step 3 (Eq. 3): scan the dataset (query spheres + upper sample).
    // This scan is load-bearing for the whole prediction — an exhausted
    // retry budget here is a hard failure, not a degradation.
    disk.access(&file, 0, data_pages)?;

    // ---- Step 6: resampling scan + distribution ------------------------
    // Degradation contract: a lost access never changes *which* accesses
    // follow — points are still distributed (so the box evolution, area
    // cursors and every later page address stay identical at any fault
    // rate) and only the receiving areas are marked degraded. This keeps
    // the fault decisions pointwise comparable across rates, which is what
    // makes degradation monotone in the fault rate.
    let mut degraded: Vec<bool> = vec![false; k];
    let mut rng = seeded(params.seed.wrapping_add(0x5EED));
    let resample = bernoulli_sample(&mut rng, n, s_lower);
    // Boxes mutate as points are adopted (Figure 6 b).
    let mut boxes: Vec<HyperRect> = up.grown_leaves.clone();
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); k];
    // Chunked processing: read spans containing M sample points, then
    // flush each box's chunk-batch to its area (Figure 8).
    let mut chunk_batches: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut area_cursor: Vec<u64> = vec![0; k];
    let mut span_start = 0u64;
    let mut idx = 0usize;
    while idx < resample.len() {
        let chunk_end_idx = (idx + params.m).min(resample.len());
        // The span of file records this chunk's sample points live in.
        let span_end = if chunk_end_idx == resample.len() {
            n as u64
        } else {
            resample[chunk_end_idx] as u64
        };
        let chunk_lost =
            access_lost(disk.access_records(&file, span_start, span_end - span_start, b))?;
        span_start = span_end;
        for &pid in &resample[idx..chunk_end_idx] {
            let p = data.point(pid as usize);
            let target = assign_to_box(&mut boxes, p);
            chunk_batches[target].push(pid);
            if chunk_lost {
                // The points of this span never made it to memory: every
                // area that would have received one degrades.
                degraded[target] = true;
            }
        }
        idx = chunk_end_idx;
        // Flush this chunk's batches: one run per receiving area.
        for (bi, batch) in chunk_batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // Capacity: an area holds at most M points; excess is
            // discarded (paper footnote 5).
            let room = params.m.saturating_sub(assigned[bi].len());
            let take = batch.len().min(room);
            if take > 0 {
                let first_rec = area_cursor[bi];
                let first_page = (bi as u64) * area_pages + first_rec / b;
                let last_page = (bi as u64) * area_pages + (first_rec + take as u64 - 1) / b;
                if access_lost(disk.access(&areas, first_page, last_page - first_page + 1))? {
                    degraded[bi] = true;
                }
                // The cursor advances even on a lost flush so later page
                // addresses are identical at any fault rate.
                area_cursor[bi] += take as u64;
                assigned[bi].extend_from_slice(&batch[..take]);
            }
            batch.clear();
        }
    }

    // ---- Steps 8–11: build each lower tree in memory -------------------
    // The disk charging replays the sequential area read-back; the
    // in-memory builds are independent per area and fan out over the pool
    // (sharing its budget with the nested bulk-load parallelism). Flattening
    // in area order keeps the page list identical to the serial path.
    // Degraded areas fall back to the cutoff extrapolation of their
    // (evolved) leaf box instead of a lower-tree build.
    let mut tasks: Vec<(Vec<u32>, f64)> = Vec::new();
    // Per area: `None` = empty (no pages), `Some(None)` = degraded
    // fallback, `Some(Some(t))` = task index `t` in `tasks`. Each area's
    // ids move into its build task; the coverage sums need only the
    // counts.
    let mut area_plan: Vec<Option<Option<usize>>> = vec![None; k];
    let area_points: Vec<usize> = assigned.iter().map(Vec::len).collect();
    for (bi, ids) in assigned.into_iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        // Read the area back (one sequential run).
        let used_pages = (ids.len() as u64).div_ceil(b);
        if access_lost(disk.access(&areas, (bi as u64) * area_pages, used_pages))? {
            degraded[bi] = true;
        }
        if degraded[bi] {
            area_plan[bi] = Some(None);
            continue;
        }
        // Unbiased estimate of the full-scale point count below this upper
        // leaf: the area's sample count scaled back by sigma_lower (exact
        // when sigma_lower = 1).
        let n_full = (ids.len() as f64 / s_lower).max(2.0);
        area_plan[bi] = Some(Some(tasks.len()));
        tasks.push((ids, n_full));
    }
    let pool = Pool::current();
    let mut built = pool
        .par_map_vec(tasks, |(ids, n_full)| -> Result<Vec<HyperRect>> {
            let lower = bulk_load_subtree_with(&pool, data, ids, topo, n_full, up.leaf_level)?;
            let mut grown = Vec::with_capacity(lower.num_leaves());
            for leaf in lower.leaves() {
                grown.push(leaf.rect.scaled_about_center(leaf_factor)?);
            }
            Ok(grown)
        })
        .into_iter();
    let mut pages: Vec<HyperRect> = Vec::new();
    let mut leaves_degraded = 0usize;
    let mut covered_points = 0usize;
    let mut total_points = 0usize;
    for (bi, plan) in area_plan.iter().enumerate() {
        total_points += area_points[bi];
        match plan {
            None => {}
            Some(None) => {
                // Cutoff fallback: replay the splits geometrically inside
                // the evolved leaf box, sized by the upper-phase estimate
                // of the full-scale point count below this leaf.
                leaves_degraded += 1;
                let n_full = (up.leaf_samples[bi].len() as f64 / up.sigma_upper).max(2.0);
                synthesize_pages(&boxes[bi], up.leaf_level, n_full, topo, &mut pages);
            }
            Some(Some(_)) => {
                covered_points += area_points[bi];
                let group = built.next().expect("one build result per task")?;
                pages.extend(group);
            }
        }
    }
    debug_assert!(built.next().is_none());
    let coverage_fraction = if total_points == 0 {
        1.0
    } else {
        covered_points as f64 / total_points as f64
    };

    // All pages — lower-tree builds and degraded cutoff fallbacks alike —
    // are flattened into one SoA soup and counted through the blocked
    // batch kernel (byte-identical to the scalar per-rect path).
    let soup = LeafSoup::from_rects(topo.dim(), &pages)?;
    let per_query = soup.count_batch(&pool, queries, |q| (q.center.as_slice(), q.radius));
    let fault_trace = disk.fault_trace().to_vec();
    Ok(ResampledPrediction {
        prediction: Prediction {
            per_query,
            io: disk.stats(),
            predicted_leaf_pages: pages.len(),
            degraded: DegradedReport {
                leaves_degraded,
                coverage_fraction,
            },
        },
        sigma_upper: up.sigma_upper,
        sigma_lower: s_lower,
        k,
        fault_trace,
    })
}

/// Figure 6: route a point to the first box containing it, or else to the
/// first box at minimum MINDIST, growing that box to cover the point.
///
/// Two passes. The first scans the boxes in index order with
/// [`HyperRect::covers`] — exactly `mindist2(p) == 0.0`, decided by
/// comparisons that stop at the first outside dimension — and returns the
/// first containing box unchanged. Only a point no box contains (about
/// 2 % of them on the COLOR64 analog) pays for distances: each box after
/// the first is scored with [`HyperRect::mindist2_within`] against the
/// best so far, and a strict `<` keeps the first minimum. Routing and box
/// growth are the same as a full-MINDIST scan's, bit for bit.
///
/// # Panics
///
/// If `boxes` is empty.
pub fn assign_to_box(boxes: &mut [HyperRect], p: &[f32]) -> usize {
    if let Some(i) = boxes.iter().position(|b| b.covers(p)) {
        return i;
    }
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, b) in boxes.iter().enumerate() {
        if let Some(d) = b.mindist2_within(p, best_d) {
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
    }
    boxes[best].expand_to_point(p);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assume, Config, Verdict};
    use hdidx_core::rng::seeded as seed_rng;
    use hdidx_core::rng::Rng;
    use hdidx_vamsplit::bulkload::bulk_load;
    use hdidx_vamsplit::query::knn;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seed_rng(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn ground_truth(data: &Dataset, topo: &Topology, q: usize, k: usize) -> (Vec<QueryBall>, f64) {
        let tree = bulk_load(data, topo).unwrap();
        let mut balls = Vec::new();
        let mut total = 0u64;
        for i in 0..q {
            let center = data.point((i * 13) % data.len()).to_vec();
            let res = knn(&tree, data, &center, k).unwrap();
            total += res.stats.leaf_accesses;
            balls.push(QueryBall::new(center, res.radius()));
        }
        (balls, total as f64 / q as f64)
    }

    #[test]
    fn assign_prefers_containing_box() {
        let mut boxes = vec![
            HyperRect::new(vec![0.0], vec![1.0]).unwrap(),
            HyperRect::new(vec![2.0], vec![3.0]).unwrap(),
        ];
        assert_eq!(assign_to_box(&mut boxes, &[2.5]), 1);
        // Outside both: nearest box (1) adopts the point and grows.
        assert_eq!(assign_to_box(&mut boxes, &[3.4]), 1);
        assert!(boxes[1].contains_point(&[3.4]));
        assert!((boxes[1].hi()[0] - 3.4).abs() < 1e-6);
        // Inside two overlapping boxes: the first, which does not grow.
        let mut overlapping = vec![
            HyperRect::new(vec![0.0, 0.0], vec![2.0, 2.0]).unwrap(),
            HyperRect::new(vec![1.0, 1.0], vec![3.0, 3.0]).unwrap(),
        ];
        let before = overlapping.clone();
        assert_eq!(assign_to_box(&mut overlapping, &[1.5, 2.0]), 0);
        assert_eq!(overlapping, before);
        // Boxes mirrored about x = 0: a point on that axis outside both is
        // exactly as far from each, and the first one adopts it.
        for p in [[0.0, 0.0], [-0.0, 3.0]] {
            let mut mirrored = vec![
                HyperRect::new(vec![-2.0, 1.0], vec![-1.0, 2.0]).unwrap(),
                HyperRect::new(vec![1.0, 1.0], vec![2.0, 2.0]).unwrap(),
            ];
            assert_eq!(assign_to_box(&mut mirrored, &p), 0, "{p:?}");
            assert!(mirrored[0].covers(&p) && !mirrored[1].covers(&p));
        }
    }

    /// The Fig. 6 routing as it was before the containment-first rewrite,
    /// kept verbatim as the reference `assign_to_box` must reproduce.
    fn reference_assign_to_box(boxes: &mut [HyperRect], p: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, b) in boxes.iter().enumerate() {
            let d = b.mindist2(p);
            if d == 0.0 {
                return i; // containing box: no adjustment needed
            }
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        boxes[best].expand_to_point(p);
        best
    }

    /// Coarse lattice values: boxes and points built from them meet on
    /// faces and corners and tie exactly in MINDIST.
    const LATTICE: [f32; 7] = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0];

    /// Point coordinates beyond the lattice: signed zeros, subnormals,
    /// the largest finite values, infinities and NaN.
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-45,
        -1.0e-45,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    fn lattice(rng: &mut impl Rng) -> f32 {
        LATTICE[rng.gen_range(0..LATTICE.len())]
    }

    /// `count` finite boxes in `dim` dimensions: lattice boxes, boxes
    /// nested in an earlier one, exact duplicates, point boxes and boxes
    /// flat in some dimensions.
    fn routing_boxes(dim: usize, count: usize, rng: &mut impl Rng) -> Vec<HyperRect> {
        let mut boxes: Vec<HyperRect> = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = if boxes.is_empty() {
                0
            } else {
                rng.gen_range(0..5u32)
            };
            let b = match kind {
                1 => {
                    // Nested: every bound pulled towards the parent's centre.
                    let parent = &boxes[rng.gen_range(0..boxes.len())];
                    let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dim)
                        .map(|j| {
                            let c = parent.center(j) as f32;
                            let lo = if rng.gen_bool(0.5) { parent.lo()[j] } else { c };
                            let hi = if rng.gen_bool(0.5) { parent.hi()[j] } else { c };
                            (lo.min(c), hi.max(c))
                        })
                        .unzip();
                    HyperRect::new(lo, hi).unwrap()
                }
                2 => boxes[rng.gen_range(0..boxes.len())].clone(),
                3 => HyperRect::point(&(0..dim).map(|_| lattice(rng)).collect::<Vec<_>>()),
                _ => {
                    let flat = kind == 4;
                    let (lo, hi): (Vec<f32>, Vec<f32>) = (0..dim)
                        .map(|_| {
                            let (a, b) = (lattice(rng), lattice(rng));
                            if flat && rng.gen_bool(0.5) {
                                (a, a)
                            } else {
                                (a.min(b), a.max(b))
                            }
                        })
                        .unzip();
                    HyperRect::new(lo, hi).unwrap()
                }
            };
            boxes.push(b);
        }
        boxes
    }

    /// One point to route: a box's corners and faces (or one `f32` step
    /// past them), lattice points, special values, or uniform noise —
    /// mixed per coordinate for mode 4.
    fn routing_point(boxes: &[HyperRect], rng: &mut impl Rng) -> Vec<f32> {
        let dim = boxes[0].dim();
        let mode = rng.gen_range(0..5u32);
        let b = &boxes[rng.gen_range(0..boxes.len())];
        (0..dim)
            .map(|j| {
                let kind = if mode == 4 {
                    rng.gen_range(0..4u32)
                } else {
                    mode
                };
                match kind {
                    0 => {
                        let x = if rng.gen_bool(0.5) {
                            b.lo()[j]
                        } else {
                            b.hi()[j]
                        };
                        match rng.gen_range(0..4u32) {
                            0 => x.next_up(),
                            1 => x.next_down(),
                            _ => x,
                        }
                    }
                    1 => lattice(rng),
                    2 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                    _ => rng.gen_range(-3.0f32..3.0),
                }
            })
            .collect()
    }

    fn box_bits(boxes: &[HyperRect]) -> Vec<(Vec<u32>, Vec<u32>)> {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        boxes.iter().map(|b| (bits(b.lo()), bits(b.hi()))).collect()
    }

    /// Routes `points` seeded points through two copies of the same boxes,
    /// one with `assign_to_box` and one with the reference, comparing the
    /// chosen index and every box's bits after each step.
    fn check_routing(
        dim: usize,
        count: usize,
        points: usize,
        seed: u64,
    ) -> std::result::Result<(), String> {
        let mut rng = seed_rng(seed);
        let mut routed = routing_boxes(dim, count, &mut rng);
        let mut reference = routed.clone();
        for step in 0..points {
            let p = routing_point(&reference, &mut rng);
            let got = assign_to_box(&mut routed, &p);
            let want = reference_assign_to_box(&mut reference, &p);
            if got != want {
                return Err(format!(
                    "step {step}: box {got} != reference {want} for {p:?}"
                ));
            }
            if box_bits(&routed) != box_bits(&reference) {
                return Err(format!("step {step}: boxes diverge after {p:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn routing_matches_the_reference_bit_for_bit() {
        check(
            "routing_matches_the_reference_bit_for_bit",
            &Config::with_cases(300),
            |rng| {
                (
                    rng.gen_range(1..=70usize),
                    rng.gen_range(1..=40usize),
                    rng.gen_range(1..=200usize),
                    rng.next_u64(),
                )
            },
            |&(dim, count, points, seed)| {
                prop_assume!(dim >= 1 && count >= 1);
                match check_routing(dim, count, points, seed) {
                    Ok(()) => Verdict::Pass,
                    Err(msg) => Verdict::Fail(msg),
                }
            },
        );
    }

    #[test]
    fn routing_matches_the_reference_at_every_dimension() {
        for dim in 1..=70usize {
            for count in [1usize, 2, 17, 40] {
                check_routing(dim, count, 64, (dim * 100 + count) as u64)
                    .unwrap_or_else(|e| panic!("dim={dim} boxes={count}: {e}"));
            }
        }
    }

    #[test]
    fn prediction_close_on_uniform_data() {
        // Height-4 tree over uniform data: sigma_lower = 1 at the
        // recommended h, so the predicted layout is near-exact and the
        // error should be small (paper §5.2 reports -0.5 % .. -3 %).
        let data = random_dataset(20_000, 6, 91);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        assert_eq!(topo.height(), 4);
        let (balls, measured) = ground_truth(&data, &topo, 40, 11);
        let p = predict_resampled(
            &data,
            &topo,
            &balls,
            &ResampledParams {
                m: 2_000,
                h_upper: 2,
                seed: 5,
            },
        )
        .unwrap();
        let err = p.prediction.relative_error(measured);
        assert!(
            err.abs() < 0.20,
            "relative error {err:+.3} (measured {measured}, predicted {})",
            p.prediction.avg_leaf_accesses()
        );
    }

    #[test]
    fn sigma_values_follow_topology() {
        let data = random_dataset(20_000, 6, 92);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        let p = predict_resampled(
            &data,
            &topo,
            &[],
            &ResampledParams {
                m: 2_000,
                h_upper: 2,
                seed: 6,
            },
        )
        .unwrap();
        assert!((p.sigma_upper - 0.1).abs() < 1e-12);
        assert_eq!(p.k, topo.upper_leaf_count(2) as usize);
        let expect = (p.k as f64 * 2_000.0 / 20_000.0).min(1.0);
        assert!((p.sigma_lower - expect).abs() < 1e-12);
    }

    #[test]
    fn io_grows_with_h_upper() {
        // Paper §4.5.3: larger upper trees mean more areas and higher
        // sigma_lower, so the resampling I/O increases with h_upper.
        let data = random_dataset(30_000, 4, 93);
        let topo = Topology::from_capacities(4, 30_000, 10, 5).unwrap();
        assert!(topo.height() >= 4);
        let io_of = |h: usize| {
            predict_resampled(
                &data,
                &topo,
                &[],
                &ResampledParams {
                    m: 1_500,
                    h_upper: h,
                    seed: 7,
                },
            )
            .unwrap()
            .prediction
            .io
        };
        let a = io_of(2);
        let b = io_of(3);
        assert!(
            b.seeks > a.seeks && b.transfers >= a.transfers,
            "h=2 {a:?} vs h=3 {b:?}"
        );
    }

    #[test]
    fn predicted_page_count_tracks_topology_at_sigma_one() {
        let data = random_dataset(20_000, 6, 94);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        let p = predict_resampled(
            &data,
            &topo,
            &[],
            &ResampledParams {
                m: 2_000,
                h_upper: 2,
                seed: 8,
            },
        )
        .unwrap();
        assert_eq!(p.sigma_lower, 1.0);
        let expect = topo.leaf_pages() as f64;
        let got = p.prediction.predicted_leaf_pages as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "{got} pages vs {expect}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_dataset(8_000, 4, 95);
        let topo = Topology::from_capacities(4, 8_000, 10, 5).unwrap();
        let balls = vec![QueryBall::new(data.point(3).to_vec(), 0.2)];
        let run = |seed| {
            predict_resampled(
                &data,
                &topo,
                &balls,
                &ResampledParams {
                    m: 800,
                    h_upper: 2,
                    seed,
                },
            )
            .unwrap()
            .prediction
            .per_query
        };
        assert_eq!(run(9), run(9));
    }
}
