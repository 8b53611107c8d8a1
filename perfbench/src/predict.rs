//! `predict-color64`: the paper's own use. Each op is the default
//! resampled prediction on the COLOR64 analog; every registry predictor
//! then runs in a sweep, and the measured truth scores the prediction.

use crate::bench::Bench;
use crate::inputs::{self, Prepared, K, M, PAGE_BYTES};
use crate::stats::median;
use hdidx_baselines::{by_name, PredictorConfig, PREDICTOR_NAMES};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::ExternalConfig;
use hdidx_diskio::{measure_on_disk, DiskModel, IoStats};
use hdidx_model::hupper::recommended_h_upper;
use hdidx_model::upper::build_upper_phase;
use hdidx_model::Prediction;
use hdidx_pool::Pool;

/// Sweeps over every registry predictor per run (and, traced, probes of
/// the resampled predictor's own stages).
const SWEEPS: usize = 3;

/// The outputs a prediction must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Answer {
    per_query: Vec<u64>,
    io: IoStats,
    leaves_degraded: usize,
    coverage_bits: u64,
}

impl From<&Prediction> for Answer {
    fn from(p: &Prediction) -> Answer {
        Answer {
            per_query: p.per_query.clone(),
            io: p.io,
            leaves_degraded: p.degraded.leaves_degraded,
            coverage_bits: p.degraded.coverage_fraction.to_bits(),
        }
    }
}

/// The configuration the CLI's `predict` would resolve for `name`.
fn config(name: &str, p: &Prepared, seed: u64) -> Result<PredictorConfig, String> {
    let h_upper = match name {
        "cutoff" | "resampled" => recommended_h_upper(&p.topo, M).map_err(|e| e.to_string())?,
        _ => PredictorConfig::default().h_upper,
    };
    Ok(PredictorConfig {
        m: M,
        h_upper,
        seed,
        zeta: (M as f64 / p.data.len() as f64).min(1.0),
        knn_k: K,
        faults: None,
        ..PredictorConfig::default()
    })
}

/// Span name of each registry predictor, by layer.
fn span_name(name: &str) -> &'static str {
    match name {
        "basic" => "model.basic",
        "cutoff" => "model.cutoff",
        "resampled" => "model.resampled",
        "uniform" => "baselines.uniform",
        "fractal" => "baselines.fractal",
        "histogram" => "baselines.histogram",
        "distdist" => "baselines.distdist",
        _ => "baselines.other",
    }
}

/// The measured truth: on-disk build plus probe on the simulated disk.
fn truth(p: &Prepared) -> Result<Vec<u64>, String> {
    let cfg = ExternalConfig::with_mem_points(M).map_err(|e| e.to_string())?;
    measure_on_disk(&p.data, &p.topo, &p.centers(), K, &cfg)
        .map(|m| m.per_query_leaf_accesses)
        .map_err(|e| e.to_string())
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let named = NamedDataset::Color64;
    let csv = inputs::csv(named, &b.seeds, &b.work.join("cache"))?;
    let p = b.setup(&csv, |_, _| Ok(()))?;
    let seed = b.seeds.query;
    let disk = DiskModel::paper_with_page_bytes(PAGE_BYTES);
    let truth_before = truth(&p)?;

    let cfg = config("resampled", &p, seed)?;
    let resampled = by_name("resampled", &cfg).ok_or("no resampled predictor")?;
    let (_, answer) = b.ops("predict", &mut |t| {
        t.span("model.resampled", |_| {
            resampled.predict(&p.data, &p.topo, &p.balls)
        })
        .map(|pr| Answer::from(&pr))
        .map_err(|e| e.to_string())
    })?;

    let mut sweep_walls = Vec::new();
    let mut first_sweep: Vec<(&str, Answer)> = Vec::new();
    for _ in 0..SWEEPS {
        b.op_id();
        b.t.set_enabled(b.trace);
        let clock = std::time::Instant::now();
        let sweep = b.t.span("sweep", |t| {
            PREDICTOR_NAMES
                .iter()
                .map(|&name| {
                    let cfg = config(name, &p, seed)?;
                    let model = by_name(name, &cfg).ok_or(format!("no predictor {name}"))?;
                    t.span(span_name(name), |_| {
                        model.predict(&p.data, &p.topo, &p.balls)
                    })
                    .map(|pr| (name, Answer::from(&pr)))
                    .map_err(|e| format!("{name}: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        sweep_walls.push(clock.elapsed().as_secs_f64());
        b.t.set_enabled(false);
        b.attempted += 1;
        if first_sweep.is_empty() {
            let swept = &sweep
                .iter()
                .find(|(n, _)| *n == "resampled")
                .expect("swept")
                .1;
            b.check("sweep resampled vs op", &answer, swept);
            first_sweep = sweep;
        } else {
            b.check("sweep", &first_sweep, &sweep);
        }
    }

    if b.trace {
        // The resampled predictor's own stages, called from outside: the
        // upper phase, and counting the queries against its grown leaves.
        b.t.set_enabled(true);
        for _ in 0..SWEEPS {
            b.op_id();
            b.t.span("layers", |t| -> Result<(), String> {
                let h = cfg.h_upper;
                let up = t
                    .span("model.upper", |_| {
                        build_upper_phase(&p.data, &p.topo, M, h, seed)
                    })
                    .map_err(|e| e.to_string())?;
                t.span("model.count_batch", |_| {
                    let soup = up.grown_soup()?;
                    Ok::<_, hdidx_core::Error>(soup.count_batch(&Pool::current(), &p.balls, |q| {
                        (q.center.as_slice(), q.radius)
                    }))
                })
                .map_err(|e| e.to_string())?;
                Ok(())
            })?;
        }
        b.t.set_enabled(false);
    }

    let truth_after = truth(&p)?;
    b.attempted += 1;
    b.check("measured truth", &truth_before, &truth_after);
    let measured = mean(&truth_before);
    let predicted = mean(&answer.per_query);
    let err_pct = 100.0 * (predicted - measured).abs() / measured;

    b.charged(answer.io, &disk);
    b.layer_metrics(&csv);
    let r = &mut b.report;
    r.line(&format!(
        "dataset {} {} x {}, csv_bytes {}, m {M}, page_bytes {PAGE_BYTES}, {} density-biased {K}-NN queries",
        named.name(),
        p.data.len(),
        p.data.dim(),
        csv.bytes,
        p.balls.len()
    ));
    r.metric(
        "predict_io_s",
        disk.cost_seconds(answer.io),
        "s",
        &format!("charged, {}", answer.io),
    );
    r.metric(
        "predict_err_pct",
        err_pct,
        "%",
        &format!("|{predicted:.3} - {measured:.3}| / {measured:.3} leaf accesses per query"),
    );
    r.metric(
        "sweep_s",
        median(&sweep_walls),
        "s",
        &format!(
            "median of {SWEEPS} sweeps over {} predictors",
            PREDICTOR_NAMES.len()
        ),
    );
    r.metric(
        "model.resampled_io_seeks",
        answer.io.seeks as f64,
        "count",
        "charged",
    );
    r.metric(
        "model.resampled_io_transfers",
        answer.io.transfers as f64,
        "count",
        "charged",
    );
    Ok(())
}
