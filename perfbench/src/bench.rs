//! The measurement loop shared by every workload: repeated set-up, the
//! timed op loop (alternating traced and untraced ops in a traced run),
//! the single-thread op, and the output checks that compare every op
//! with the first.

use crate::inputs::{self, Csv, Prepared, Seeds};
use crate::report::Report;
use crate::stats::{median, tail, TAIL_BEYOND};
use crate::trace::{self, Tracer};
use std::fmt::Debug;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs this many times per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// The untraced loop runs at least this many ops.
pub const MIN_OPS: usize = 5;

pub struct Bench {
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub seeds: Seeds,
    /// Scratch directory for the CSV cache and the file-backed stores.
    pub work: PathBuf,
    pub t: Tracer,
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Runs before every op, outside its timer.
    pub before_op: Option<Box<dyn FnMut() -> Result<(), String>>>,
    next_op: u64,
}

/// Wall times of one workload's ops.
pub struct OpTimes {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
    pub one_thread: f64,
}

impl Bench {
    pub fn new(seconds: f64, trace: bool, nproc: usize, seeds: Seeds, work: PathBuf) -> Bench {
        Bench {
            seconds,
            trace,
            nproc,
            seeds,
            work,
            t: Tracer::new(false),
            report: Report::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            before_op: None,
            next_op: 0,
        }
    }

    /// Starts a new op id: spans opened from now on belong to it, so
    /// per-op self times never sum two calls.
    pub fn op_id(&mut self) {
        self.next_op += 1;
        self.t.set_op(self.next_op);
    }

    /// Counts one checked output: a mismatch fails the op.
    pub fn check<T: PartialEq + Debug>(&mut self, what: &str, want: &T, got: &T) {
        if want != got {
            self.failed += 1;
            self.errors
                .push(format!("{what}: expected {want:?}, got {got:?}"));
        }
    }

    /// Runs the timed set-up [`SETUP_REPEATS`] times — ingest, workload
    /// generation, then `extra` — and keeps the last result. `setup_s` is
    /// the median wall time.
    pub fn setup(
        &mut self,
        csv: &Csv,
        mut extra: impl FnMut(&mut Tracer, &Prepared) -> Result<(), String>,
    ) -> Result<Prepared, String> {
        self.t.set_enabled(self.trace);
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            self.op_id();
            let seeds = self.seeds;
            let clock = Instant::now();
            let p = self.t.span("setup", |t| {
                let p = inputs::prepare(t, csv, &seeds)?;
                extra(t, &p)?;
                Ok::<_, String>(p)
            })?;
            walls.push(clock.elapsed().as_secs_f64());
            last = Some(p);
        }
        self.t.set_enabled(false);
        let setup_s = median(&walls);
        self.report.contract("setup_s", setup_s);
        self.report.metric(
            "setup_s",
            setup_s,
            "s",
            &format!("median of {SETUP_REPEATS}"),
        );
        Ok(last.expect("at least one set-up"))
    }

    /// Runs `op` once untimed to warm caches, then for the run's seconds
    /// (at least [`MIN_OPS`] timed ops), then once on one thread. In a
    /// traced run every other op is traced, so traced and untraced ops
    /// share the machine's conditions. Every output must equal the first
    /// op's.
    pub fn ops<T: PartialEq + Debug>(
        &mut self,
        what: &str,
        op: &mut dyn FnMut(&mut Tracer) -> Result<T, String>,
    ) -> Result<(OpTimes, T), String> {
        let mut first: Option<T> = None;
        self.op_once(what, op, &mut first)?;
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let start = Instant::now();
        while untraced.len() < MIN_OPS || start.elapsed().as_secs_f64() < self.seconds {
            let tracing = self.trace && untraced.len() > traced.len();
            self.t.set_enabled(tracing);
            let wall = self.op_once(what, op, &mut first);
            self.t.set_enabled(false);
            if tracing { &mut traced } else { &mut untraced }.push(wall?);
        }
        hdidx_pool::set_threads(1);
        let one = self.op_once(what, op, &mut first);
        hdidx_pool::set_threads(self.nproc);
        let times = OpTimes {
            untraced,
            traced,
            one_thread: one?,
        };
        self.op_metrics(what, &times);
        Ok((times, first.expect("at least one op")))
    }

    /// Runs one op and returns its wall time.
    fn op_once<T: PartialEq + Debug>(
        &mut self,
        what: &str,
        op: &mut dyn FnMut(&mut Tracer) -> Result<T, String>,
        first: &mut Option<T>,
    ) -> Result<f64, String> {
        if let Some(reset) = self.before_op.as_mut() {
            reset()?;
        }
        self.op_id();
        self.attempted += 1;
        let clock = Instant::now();
        let out = self.t.span("op", |t| op(t));
        let wall = clock.elapsed().as_secs_f64();
        match (out, first.as_ref()) {
            (Err(e), _) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                return Err(format!("{what} failed: {e}"));
            }
            (Ok(v), None) => *first = Some(v),
            (Ok(v), Some(want)) => self.check(what, want, &v),
        }
        Ok(wall)
    }

    fn op_metrics(&mut self, what: &str, times: &OpTimes) {
        let op_s = median(&times.untraced);
        if self.trace {
            let spans = self.t.spans();
            let coverage = trace::child_coverage(spans, "op")
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            let overhead = median(&times.traced) - op_s;
            let speedup = times.one_thread / op_s;
            let r = &mut self.report;
            r.contract("trace.coverage_pct", 100.0 * coverage);
            r.contract("trace.overhead_s", overhead);
            r.contract("pool.speedup", speedup);
            r.metric(
                "trace.coverage_pct",
                100.0 * coverage,
                "%",
                "lowest share of a traced op covered by its top-level spans",
            );
            r.metric(
                "trace.overhead_s",
                overhead,
                "s",
                "median traced op minus median untraced op",
            );
            r.metric(
                "pool.speedup",
                speedup,
                "ratio",
                &format!(
                    "op wall at 1 thread ({:.4} s) over median at {} threads ({op_s:.4} s)",
                    times.one_thread, self.nproc
                ),
            );
        } else {
            self.report.contract("op_s", op_s);
            let n = times.untraced.len();
            let lo = times.untraced.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = times.untraced.iter().copied().fold(0.0, f64::max);
            self.report.metric(
                &format!("{what}_s"),
                op_s,
                "s",
                &format!("median of {n} ops, min {lo:.4} max {hi:.4}"),
            );
            if let Some((v, pct)) = tail(&times.untraced) {
                self.report.metric(
                    &format!("{what}_tail_s"),
                    v,
                    "s",
                    &format!("p{pct:.1} of {n} ops, {TAIL_BEYOND} beyond"),
                );
            }
        }
    }

    /// Per-layer self times of the traced spans: every span name's
    /// median per-op self time, printed as `<name>_s`. Set-up layers
    /// become contract metrics.
    pub fn layer_metrics(&mut self, csv: &Csv) {
        if !self.trace {
            return;
        }
        let by_name = trace::self_seconds_by_name(self.t.spans());
        // Layer spans are named `<layer>.<call>`; the roots are not.
        for (name, per_op) in by_name.iter().filter(|(n, _)| n.contains('.')) {
            let n = per_op.len();
            self.report.metric(
                &format!("{name}_s"),
                median(per_op),
                "s",
                &format!("median self time over {n} spans"),
            );
        }
        let read_s = by_name.get("cli.read_csv").map_or(f64::NAN, |v| median(v));
        let workload_s = by_name
            .get("datagen.workload")
            .map_or(f64::NAN, |v| median(v));
        let mb_s = csv.bytes as f64 / 1e6 / read_s;
        self.report.metric(
            "cli.read_csv_mb_s",
            mb_s,
            "MB/s",
            &format!("{} CSV bytes over the median read", csv.bytes),
        );
        let spans = self.t.spans().len() as f64;
        let r = &mut self.report;
        r.contract("cli.read_csv_s", read_s);
        r.contract("cli.read_csv_mb_s", mb_s);
        r.contract("datagen.workload_s", workload_s);
        r.contract("trace.spans", spans);
    }

    /// Records the op's charged I/O: its disk-model seconds (end to end)
    /// and its seek and transfer counts (per layer).
    pub fn charged(&mut self, io: hdidx_diskio::IoStats, disk: &hdidx_diskio::DiskModel) {
        self.report.contract("io_charged_s", disk.cost_seconds(io));
        self.report.contract("diskio.op_seeks", io.seeks as f64);
        self.report
            .contract("diskio.op_transfers", io.transfers as f64);
    }
}
