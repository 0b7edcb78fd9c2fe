//! The run's result: named metrics with units, operation counts, and the
//! one-line JSON summary the benchmark ends its standard output with.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `MB`, `us`, `count`, `ratio`, `B`).
    pub unit: &'static str,
    /// What the value is, for the human-readable table (sample counts,
    /// percentile used).
    pub note: String,
}

/// Everything one benchmark run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Metrics in report order: the ones `BENCHMARK.json` lists, and the
    /// only ones in the JSON line.
    pub metrics: Vec<Metric>,
    /// Figures printed in the table only: tail latencies and rates that
    /// move with the host's steal more than any bound could allow, so no
    /// regression gate rests on them.
    pub info: Vec<Metric>,
    /// Operations attempted (requests sent plus updates awaited).
    pub attempted: u64,
    /// Operations that failed: error replies, timeouts, missing or wrong
    /// updates, and failed gate checks.
    pub failed: u64,
    /// Gate failures, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        let problem = problem.into();
        // Keep the log readable when one defect fails thousands of ops.
        if self.problems.len() < 50 {
            self.problems.push(problem);
        }
    }

    /// Records a gate check: a false `ok` is one failed operation.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    /// The value of a recorded metric or table-only figure.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when every operation succeeded and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self
                .metrics
                .iter()
                .chain(&self.info)
                .all(|m| m.value.is_finite())
    }

    /// The human-readable metric table, table-only figures last.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let row = |out: &mut String, m: &Metric| {
            let _ = writeln!(
                out,
                "  {:<32} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        };
        for m in &self.metrics {
            row(&mut out, m);
        }
        if !self.info.is_empty() {
            out.push_str("  table only (no bound):\n");
            for m in &self.info {
                row(&mut out, m);
            }
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
