//! A pinned resampled prediction: the §4.4 predictor on a seeded
//! 20,000 × 64 clustered dataset at M = 1,000, once clean and once under
//! a seeded fault plan that degrades upper leaves to the cutoff fallback.
//!
//! The expected per-query counts (FNV-1a digest and sum), `IoStats`,
//! predicted page count, degraded-leaf count, coverage bits and
//! fault-trace length below were recorded before the Fig. 6 routing
//! (`assign_to_box`) was rewritten. A change to which box a resampled
//! point is routed to, to how a box grows, or to the I/O bill shows up
//! here, at every thread count.

use hdidx_repro::datagen::clustered::{ClusteredSpec, Tail};
use hdidx_repro::datagen::workload::Workload;
use hdidx_repro::diskio::IoStats;
use hdidx_repro::faults::FaultConfig;
use hdidx_repro::model::hupper::recommended_h_upper;
use hdidx_repro::model::resampled::ResampledPrediction;
use hdidx_repro::model::{QueryBall, Resampled, ResampledParams};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest of the per-query page counts, in query order.
fn counts_digest(per_query: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in per_query {
        for &b in &c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// What one pinned prediction must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pin {
    counts: u64,
    count_sum: u64,
    io: IoStats,
    pages: usize,
    leaves_degraded: usize,
    coverage_bits: u64,
    trace_len: usize,
}

impl Pin {
    fn of(p: &ResampledPrediction) -> Pin {
        let pr = &p.prediction;
        Pin {
            counts: counts_digest(&pr.per_query),
            count_sum: pr.per_query.iter().sum(),
            io: pr.io,
            pages: pr.predicted_leaf_pages,
            leaves_degraded: pr.degraded.leaves_degraded,
            coverage_bits: pr.degraded.coverage_fraction.to_bits(),
            trace_len: p.fault_trace.len(),
        }
    }
}

fn inputs() -> (
    hdidx_repro::core::Dataset,
    Topology,
    Vec<QueryBall>,
    ResampledParams,
) {
    let data = ClusteredSpec {
        n: 20_000,
        dim: 64,
        n_clusters: 12,
        decay: 0.05,
        spread: 0.3,
        tail: Tail::Gaussian,
        seed: 20_261_016,
    }
    .generate()
    .unwrap();
    let topo = Topology::new(64, data.len(), &PageConfig::DEFAULT).unwrap();
    let balls = Workload::density_biased(&data, 60, 21, 7)
        .unwrap()
        .queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect();
    let m = 1_000;
    let params = ResampledParams {
        m,
        h_upper: recommended_h_upper(&topo, m).unwrap(),
        seed: 11,
    };
    (data, topo, balls, params)
}

#[test]
fn resampled_prediction_reproduces_the_pinned_counts_and_bill() {
    let (data, topo, balls, params) = inputs();
    let faults = FaultConfig::disabled(29).with_rate_ppm(200_000);
    let clean = Pin {
        counts: 0x4470_65ef_f3aa_0b0d,
        count_sum: 2724,
        io: IoStats {
            seeks: 844,
            transfers: 3034,
            retries: 0,
            backoff: 0,
            reads: 0,
            writes: 0,
        },
        pages: 502,
        leaves_degraded: 0,
        coverage_bits: 1.0f64.to_bits(),
        trace_len: 0,
    };
    // Four of the 43 upper leaves lose their second sample and fall back
    // to the cutoff extrapolation; the retries burn extra seeks.
    let faulted = Pin {
        counts: 0xea7c_1ab7_86bb_294e,
        count_sum: 2641,
        io: IoStats {
            seeks: 1382,
            transfers: 3144,
            retries: 324,
            backoff: 0,
            reads: 0,
            writes: 0,
        },
        pages: 499,
        leaves_degraded: 4,
        coverage_bits: 0x3feb_f241_2b7f_981d,
        trace_len: 412,
    };
    for &t in THREAD_COUNTS {
        hdidx_repro::pool::set_threads(t);
        let a = Resampled::new(params).run(&data, &topo, &balls).unwrap();
        let b = Resampled::new(params)
            .with_faults(Some(faults))
            .run(&data, &topo, &balls)
            .unwrap();
        assert_eq!(Pin::of(&a), clean, "clean, {t} threads");
        assert_eq!(Pin::of(&b), faulted, "faulted, {t} threads");
    }
    assert!(
        faulted.leaves_degraded >= 1,
        "the fault plan must degrade a leaf"
    );
}
