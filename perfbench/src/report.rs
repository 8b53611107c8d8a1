//! Metric names, units and the printed result.
//!
//! Every workload emits the same end-to-end metrics (untraced run) and
//! the same per-layer metrics (traced run); `BENCHMARK.json` lists them.
//! Workload-specific figures, named as in the benchmark's README, go on
//! `metric` lines before the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s", "s"),
    ("io_charged_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.read_csv_s", "s"),
    ("cli.read_csv_mb_s", "MB/s"),
    ("datagen.workload_s", "s"),
    ("diskio.op_seeks", "count"),
    ("diskio.op_transfers", "count"),
    ("pool.speedup", "ratio"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// True when `name` is made only of `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A run's figures: the contract metrics for the result line and the
/// workload's named metrics for the `metric` lines.
#[derive(Default)]
pub struct Report {
    contract: BTreeMap<&'static str, f64>,
    lines: String,
}

impl Report {
    /// Records a contract metric (one of [`END_TO_END`] / [`PER_LAYER`]).
    pub fn contract(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "`{name}` is not a benchmark metric"
        );
        self.contract.insert(name, value);
    }

    /// Prints a workload metric line: name, value, unit and how it was
    /// taken.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        assert!(valid_name(name), "bad metric name `{name}`");
        let _ = writeln!(self.lines, "metric {name} {value} {unit} {note}");
    }

    /// Prints a free-form context line.
    pub fn line(&mut self, text: &str) {
        self.lines.push_str(text);
        self.lines.push('\n');
    }

    pub fn lines(&self) -> &str {
        &self.lines
    }

    /// The result line: every metric of `set`, or an error naming the
    /// first one missing or not finite.
    pub fn result_line(
        &self,
        set: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = *self
                .contract
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value in a JSON text, in order.
    fn names_in(json: &str) -> Vec<&str> {
        json.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid_and_listed_in_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = names_in(spec);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(listed.contains(name), "{name} missing from BENCHMARK.json");
            let entry = spec.split(&format!("\"name\": \"{name}\"")).nth(1).unwrap();
            let listed_unit = entry.split("\"unit\": \"").nth(1).unwrap();
            assert!(listed_unit.starts_with(&format!("{unit}\"")), "{name} unit");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "{w}");
            assert!(listed.contains(w), "{w} missing from BENCHMARK.json");
        }
        // Nothing listed that the benchmark does not emit.
        let emitted = END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len();
        assert_eq!(listed.len(), emitted);
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("model.count_batch_s"));
        assert!(valid_name("9-a_b.c"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/es"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_lists_the_set_and_rejects_gaps() {
        let mut r = Report::default();
        r.contract("setup_s", 1.5);
        assert!(r.result_line(END_TO_END, true, 1, 0).is_err());
        for (name, _) in END_TO_END {
            r.contract(name, 0.25);
        }
        let line = r.result_line(END_TO_END, true, 3, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"op_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        r.contract("op_s", f64::NAN);
        assert!(r.result_line(END_TO_END, true, 3, 0).is_err());
    }
}
