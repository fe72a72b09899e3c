//! The repository benchmark: SmallBank measured end to end and per layer.
//!
//! One command runs one workload (see [`spec::Workload`]) and prints its
//! metrics; `README.md` beside this crate describes the workloads, the
//! metrics and how the per-layer metrics map to the end-to-end ones.

pub mod audit;
pub mod bench;
pub mod counters;
pub mod isolated;
pub mod lanes;
pub mod latency;
pub mod model;
pub mod real;
pub mod spec;
pub mod tracer;

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value, when it is a percentile or a rate.
    pub samples: Option<usize>,
}

/// The metrics of one run plus its attempt counts.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Transaction attempts made in the measured window.
    pub attempted: u64,
    /// Attempts that ended in an error of the system under test: a
    /// transient fault or an undecided commit. Serialization failures
    /// and deadlocks are outcomes the workload measures (`failed_ratio`),
    /// not errors.
    pub failed: u64,
    /// What the run checked, one line each.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric without a sample count.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None);
    }

    /// Adds a metric computed from `samples` samples.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Some(samples));
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The notes, then one line per metric: name, value, unit and sample
    /// count.
    pub fn table(&self) -> String {
        let notes = self.notes.iter().map(|n| format!("# {n}\n"));
        let metrics = self.metrics.iter().map(|m| match m.samples {
            Some(n) => format!("{:<52} {:>16.4} {:<9} (n={n})\n", m.name, m.value, m.unit),
            None => format!("{:<52} {:>16.4} {}\n", m.name, m.value, m.unit),
        });
        notes.chain(metrics).collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with all the digits it was measured with. Fails on a value JSON
    /// cannot carry.
    pub fn json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_digit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.sampled("latency_p50_us", 16.384_123_456, "us", 3);
        r.layer("wal.bytes_per_commit", 0.000_125, "B");
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 16.384123456, \"unit\": \"us\"}, \
             \"wal.bytes_per_commit\": {\"value\": 0.000125, \"unit\": \"B\"}}}"
        );
        r.layer("bad", f64::NAN, "us");
        assert!(r.json().is_err());
    }
}
