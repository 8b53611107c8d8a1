//! `serve-color64`: `Server::build` over COLOR64 on the simulated
//! backend, then `Server::run_with_maintenance` over a fixed ladder of
//! offered rates with faults, lanes, a k-NN deadline, the breaker,
//! hedging and scrub slices all on. Each op replays the whole ladder.

use crate::bench::Bench;
use crate::inputs::{self, Prepared, K, M, PAGE_BYTES};
use crate::stats::median;
use hdidx_core::knn::scan_knn_radius;
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::breaker::BreakerConfig;
use hdidx_diskio::{DiskModel, IoStats};
use hdidx_faults::{FaultConfig, FaultPhase, RetryPolicy};
use hdidx_pool::Pool;
use hdidx_serve::{
    ArrivalModel, CleanSource, Deadlines, LanePolicy, LoadGen, Maintenance, MixSpec,
    OverloadPolicy, Query, Request, ServeConfig, ServeReport, Server,
};

/// Request mix of every rung.
const MIX: &str = "range:0.5,knn:0.3,predict:0.2";
/// Clean saturation rate of 4 slots, req/s: 4 over the mean charged
/// service time that a trickle probe measured on the clean server
/// (`--probe` reprices it).
const SATURATION_RPS: f64 = 4.8;
/// Offered rates of the ladder, as multiples of the saturation rate.
const LADDER: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];
/// Rung whose latency `serve_p50_sim_s` / `serve_p99_sim_s` report.
const REFERENCE_RUNG: usize = 1;
/// Requests offered per rung: the first this many arrivals of the
/// rung's stream, so every seed offers the same count.
const REQUESTS_PER_RUNG: usize = 480;
/// Simulated p99 latency limit of `serve_max_rate`, seconds.
const P99_LIMIT_S: f64 = 30.0;
/// Transient fault rate of the serve fault plan, ppm.
const FAULT_PPM: u32 = 3_000;
/// Pages scrubbed per idle-time maintenance slice.
const SCRUB_SLICE_PAGES: u64 = 64;

fn fault_plan(seed: u64) -> FaultConfig {
    FaultConfig::disabled(seed)
        .with_rate_ppm(FAULT_PPM)
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0)
}

fn serve_config() -> Result<ServeConfig, String> {
    let overload = OverloadPolicy {
        deadlines: Deadlines::parse("knn:1.1").map_err(|e| e.to_string())?,
        lanes: Some(LanePolicy::parse("range:inf,knn:15,predict:15").map_err(|e| e.to_string())?),
        breaker: Some(BreakerConfig::new()),
        hedge_s: 1.1,
    };
    Ok(ServeConfig {
        concurrency: 4,
        batch: 8,
        overload,
        disk: DiskModel::paper_with_page_bytes(PAGE_BYTES),
        ..ServeConfig::new()
    })
}

/// What a rung must reproduce bit for bit, at any thread count.
#[derive(Debug, PartialEq)]
struct Rung {
    offered: u64,
    executed: u64,
    shed: u64,
    failed: u64,
    deadline_cut: u64,
    hedged: u64,
    hedge_wins: u64,
    digest: u64,
    breaker: Option<(u64, u64, u64)>,
    io: IoStats,
    p50_bits: u64,
    p99_bits: u64,
    drain_bits: u64,
    scrub_pages: u64,
}

impl Rung {
    /// `last_arrival_s` prices the end-of-stream drain.
    fn of(r: &ServeReport, last_arrival_s: f64) -> Rung {
        let (p50, p99) = r
            .summary
            .map_or((f64::NAN, f64::NAN), |s| (s.p50_s, s.p99_s));
        Rung {
            offered: r.total,
            executed: r.executed,
            shed: r.shed,
            failed: r.failed,
            deadline_cut: r.deadline_cut,
            hedged: r.hedged,
            hedge_wins: r.hedge_wins,
            digest: r.digest,
            breaker: r.breaker.map(|b| (b.trips, b.fast_fails, b.digest)),
            io: r.io,
            p50_bits: p50.to_bits(),
            p99_bits: p99.to_bits(),
            drain_bits: (r.makespan_s - last_arrival_s).to_bits(),
            scrub_pages: r.maintenance.map_or(0, |m| m.pages_scanned),
        }
    }
}

/// The first [`REQUESTS_PER_RUNG`] bursty arrivals at `rate`.
fn stream(rate: f64, seed: u64, p: &Prepared, mix: &MixSpec) -> hdidx_core::Result<Vec<Request>> {
    let gen = LoadGen {
        rate_per_s: rate,
        // Twice the expected span: burst counts never fall short of it.
        duration_s: 2.0 * REQUESTS_PER_RUNG as f64 / rate,
        model: ArrivalModel::Bursty,
        seed,
    };
    let mut reqs = gen.requests(&p.balls, mix, K)?;
    if reqs.len() < REQUESTS_PER_RUNG {
        return Err(hdidx_core::Error::invalid(
            "stream",
            format!("{} arrivals, fewer than {REQUESTS_PER_RUNG}", reqs.len()),
        ));
    }
    reqs.truncate(REQUESTS_PER_RUNG);
    Ok(reqs)
}

/// The trickle probe: unbatched fixed arrivals at 0.1 req/s keep the
/// clean server's queue empty, so mean latency is the mean charged
/// service time; returns the saturation rate of 4 slots it implies.
pub fn probe(p: &Prepared, seed: u64) -> Result<f64, String> {
    let server = Server::build(&p.data, &p.topo, M, seed, None).map_err(|e| e.to_string())?;
    let mix = MixSpec::parse(MIX).map_err(|e| e.to_string())?;
    let gen = LoadGen {
        rate_per_s: 0.1,
        duration_s: 4_800.0,
        model: ArrivalModel::Fixed,
        seed,
    };
    let reqs = gen.requests(&p.balls, &mix, K).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        batch: 1,
        disk: DiskModel::paper_with_page_bytes(PAGE_BYTES),
        ..ServeConfig::new()
    };
    let report = server
        .run(&reqs, &cfg, &Pool::current())
        .map_err(|e| e.to_string())?;
    let mean = report.summary.ok_or("probe executed nothing")?.mean_s;
    Ok(cfg.concurrency as f64 / mean)
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let named = NamedDataset::Color64;
    let csv = inputs::csv(named, &b.seeds, &b.work.join("cache"))?;
    let seed = b.seeds.query;
    let faults = Some(fault_plan(b.seeds.fault));
    let p = b.setup(&csv, |t, p| {
        t.span("serve.build", |_| {
            Server::build(&p.data, &p.topo, M, seed, faults)
        })
        .map(drop)
        .map_err(|e| e.to_string())
    })?;
    let server = Server::build(&p.data, &p.topo, M, seed, faults).map_err(|e| e.to_string())?;
    let mix = MixSpec::parse(MIX).map_err(|e| e.to_string())?;
    let cfg = serve_config()?;
    let stream_seed = b.seeds.stream;
    let pages = p.topo.total_pages();

    let (times, rungs) = b.ops("serve_ladder", &mut |t| {
        let mut rungs = Vec::with_capacity(LADDER.len());
        for factor in LADDER {
            let reqs = t
                .span("serve.loadgen", |_| {
                    stream(factor * SATURATION_RPS, stream_seed, &p, &mix)
                })
                .map_err(|e| e.to_string())?;
            let report = t
                .span("serve.run", |_| {
                    let mut maint =
                        Maintenance::new(Box::new(CleanSource { pages }), SCRUB_SLICE_PAGES)?;
                    server.run_with_maintenance(&reqs, &cfg, &Pool::current(), Some(&mut maint))
                })
                .map_err(|e| e.to_string())?;
            rungs.push(Rung::of(&report, reqs.last().map_or(0.0, |r| r.arrival_s)));
        }
        Ok(rungs)
    })?;

    if b.trace {
        // The k-NN linear scan each knn request runs, over the reference
        // rung's knn centres, called from outside the server.
        let reqs = stream(
            LADDER[REFERENCE_RUNG] * SATURATION_RPS,
            stream_seed,
            &p,
            &mix,
        )
        .map_err(|e| e.to_string())?;
        b.op_id();
        b.t.set_enabled(true);
        b.t.span("layers", |t| {
            t.span("core.knn_scan", |_| {
                reqs.iter()
                    .filter_map(|r| match &r.query {
                        Query::Knn { center, k } => Some(scan_knn_radius(&p.data, center, *k)),
                        _ => None,
                    })
                    .collect::<Result<Vec<f64>, _>>()
            })
        })
        .map_err(|e| e.to_string())?;
        b.t.set_enabled(false);
    }

    let disk = cfg.disk;
    let sum = |f: fn(&Rung) -> u64| rungs.iter().map(f).sum::<u64>();
    let offered = sum(|r| r.offered);
    let io = rungs.iter().fold(IoStats::default(), |acc, r| acc + r.io);
    let wall_rps = offered as f64 / median(&times.untraced);
    let reference = &rungs[REFERENCE_RUNG];
    let max_rate = LADDER
        .iter()
        .zip(&rungs)
        .filter(|(_, r)| {
            f64::from_bits(r.p99_bits) <= P99_LIMIT_S && f64::from_bits(r.drain_bits) <= P99_LIMIT_S
        })
        .map(|(factor, _)| factor * SATURATION_RPS)
        .fold(0.0, f64::max);
    let lost = sum(|r| r.shed) + sum(|r| r.failed) + sum(|r| r.deadline_cut);

    b.charged(io, &disk);
    b.layer_metrics(&csv);
    let r = &mut b.report;
    r.line(&format!(
        "dataset {} {} x {}, csv_bytes {}, m {M}, page_bytes {PAGE_BYTES}; ladder {:?} x {SATURATION_RPS} req/s, \
         {REQUESTS_PER_RUNG} bursty requests per rung, mix {MIX}, concurrency {}, batch {}, \
         faults {FAULT_PPM} ppm exponential retry, deadlines {}, lanes {}, hedge {} s, scrub slice {SCRUB_SLICE_PAGES} pages",
        named.name(),
        p.data.len(),
        p.data.dim(),
        csv.bytes,
        LADDER,
        cfg.concurrency,
        cfg.batch,
        cfg.overload.deadlines,
        cfg.overload.lanes.map_or("off".to_string(), |l| l.to_string()),
        cfg.overload.hedge_s,
    ));
    r.metric(
        "serve_wall_rps",
        wall_rps,
        "req/s",
        &format!("{offered} offered requests over the median ladder wall time"),
    );
    r.metric(
        "serve_p50_sim_s",
        f64::from_bits(reference.p50_bits),
        "s",
        &format!("simulated, rung {}x", LADDER[REFERENCE_RUNG]),
    );
    r.metric(
        "serve_p99_sim_s",
        f64::from_bits(reference.p99_bits),
        "s",
        &format!("simulated, rung {}x", LADDER[REFERENCE_RUNG]),
    );
    r.metric(
        "serve_max_rate",
        max_rate,
        "req/s",
        &format!("highest rung with simulated p99 and end-of-stream drain within {P99_LIMIT_S} s"),
    );
    r.metric(
        "fail_frac",
        lost as f64 / offered as f64,
        "ratio",
        &format!("{lost} shed + failed + deadline-cut of {offered} offered"),
    );
    let hedged = sum(|r| r.hedged);
    let wins = sum(|r| r.hedge_wins);
    for (name, value) in [
        ("serve.executed", sum(|r| r.executed)),
        ("serve.shed", sum(|r| r.shed)),
        ("serve.failed", sum(|r| r.failed)),
        ("serve.deadline_cut", sum(|r| r.deadline_cut)),
        ("serve.hedged", hedged),
        ("serve.hedge_wins", wins),
        ("faults.retries", io.retries),
        (
            "diskio.breaker_trips",
            rungs.iter().filter_map(|r| r.breaker).map(|b| b.0).sum(),
        ),
        (
            "diskio.breaker_fast_fails",
            rungs.iter().filter_map(|r| r.breaker).map(|b| b.1).sum(),
        ),
        ("serve.scrub_pages", sum(|r| r.scrub_pages)),
    ] {
        r.metric(name, value as f64, "count", "summed over the ladder");
    }
    r.metric(
        "serve.hedge_win_ratio",
        if hedged == 0 {
            0.0
        } else {
            wins as f64 / hedged as f64
        },
        "ratio",
        &format!("{wins} wins of {hedged} hedged replays"),
    );
    r.metric(
        "faults.backoff_s",
        io.backoff as f64 * disk.t_seek_s,
        "s",
        &format!("charged, {} seek-equivalents", io.backoff),
    );
    for (factor, rung) in LADDER.iter().zip(&rungs) {
        r.line(&format!(
            "rung {factor}x: offered {} executed {} shed {} failed {} cut {} p50 {:.4} s p99 {:.4} s digest {:016x}",
            rung.offered,
            rung.executed,
            rung.shed,
            rung.failed,
            rung.deadline_cut,
            f64::from_bits(rung.p50_bits),
            f64::from_bits(rung.p99_bits),
            rung.digest
        ));
    }
    Ok(())
}
