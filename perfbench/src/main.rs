//! End-to-end benchmark of the hdidx reproduction: predict, measure and
//! serve at paper scale, through the library's public API.
//!
//! ```text
//! hdidx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input derives from `--seed`. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. The lines before it name every figure of
//! the workload with its unit. A failed output check exits 1.

mod bench;
mod inputs;
mod measure;
mod predict;
mod report;
mod serve;
mod stats;
mod trace;

use bench::Bench;
use inputs::Seeds;
use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["predict-color64", "measure-texture60", "serve-color64"];

/// Scratch directory, relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--probe" {
            probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        probe,
    })
}

/// Refuses ambient settings that would change what the library does: a
/// fault seed in the environment would silently fault the predict path.
fn refuse_ambient_env() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key.starts_with("HDIDX_FAULT_")
            || key.starts_with("HDIDX_RETRY_")
            || key == "HDIDX_THREADS"
        {
            return Err(format!("refusing to run with {key} set; unset it"));
        }
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    refuse_ambient_env()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    hdidx_pool::set_threads(nproc);
    let seeds = Seeds::new(args.seed);
    let work = PathBuf::from(WORK_DIR);
    let mut b = Bench::new(args.seconds, args.trace, nproc, seeds, work.clone());
    if args.probe {
        let csv = inputs::csv(
            hdidx_datagen::registry::NamedDataset::Color64,
            &seeds,
            &work.join("cache"),
        )?;
        let p = inputs::prepare(&mut b.t, &csv, &seeds)?;
        println!("saturation {} req/s", serve::probe(&p, seeds.query)?);
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "perfbench workload {} seed {} seconds {} trace {} isa {} threads {} nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hdidx_core::simd::describe(),
        hdidx_pool::configured_threads(),
    );
    match args.workload.as_str() {
        "predict-color64" => predict::run(&mut b)?,
        "measure-texture60" => measure::run(&mut b)?,
        _ => serve::run(&mut b)?,
    }
    let rss = peak_rss_mb()?;
    b.report.metric("peak_rss_mb", rss, "MB", "VmHWM");
    let set = if args.trace {
        std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
        let path = work.join(format!("trace-{}.jsonl", args.workload));
        std::fs::write(&path, b.t.to_json_lines()).map_err(|e| e.to_string())?;
        b.report
            .line(&format!("spans written to {}", path.display()));
        PER_LAYER
    } else {
        b.report.contract("peak_rss_mb", rss);
        END_TO_END
    };
    for e in &b.errors {
        eprintln!("check failed: {e}");
    }
    let correct = b.failed == 0;
    print!("{}", b.report.lines());
    println!(
        "{}",
        b.report.result_line(set, correct, b.attempted, b.failed)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `--write-csv <dataset> --seed <n>`: the input writer the benchmark
/// starts as a child process when its CSV cache lacks a seed.
fn write_csv(argv: &[String]) -> Result<(), String> {
    let [_, name, flag, seed] = argv else {
        return Err("usage: --write-csv <dataset> --seed <n>".to_string());
    };
    let seed = match flag.as_str() {
        "--seed" => seed.parse().map_err(|_| format!("bad --seed {seed}"))?,
        _ => return Err(format!("unknown flag {flag}")),
    };
    let cache = PathBuf::from(WORK_DIR).join("cache");
    inputs::write_csv(inputs::dataset(name)?, &Seeds::new(seed), &cache)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--write-csv") {
        return match write_csv(&argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })
}
