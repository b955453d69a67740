//! Named metrics, checks and counts of one run, and their output.

use crate::env::json_str;
use crate::stats::Tally;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Entry {
    /// `latency_p50_us`, `e1000e.irq_ns`, ...
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it, where it summarizes a distribution.
    pub samples: Option<usize>,
    /// Where it came from, when that is not the workload's own requests.
    pub note: String,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Entry>,
    /// Per-layer metrics (traced run).
    pub layer: Vec<Entry>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Exact counts that repeat for a given seed.
    pub counts: Vec<(String, u64)>,
    /// Requests attempted and failed, checks included.
    pub tally: Tally,
}

impl Metrics {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.e2e.push(Entry {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Entry {
            name: name.into(),
            value,
            unit,
            samples: None,
            note: String::new(),
        });
    }

    /// Take the per-layer metrics of `probe` whose names start with one
    /// of `prefixes`, noting where they came from.
    pub fn layers_from(&mut self, probe: Metrics, prefixes: &[&str], note: &str) {
        for mut e in probe.layer {
            if prefixes.iter().any(|p| e.name.starts_with(p)) {
                e.note = note.into();
                self.layer.push(e);
            }
        }
        for (name, ok, detail) in probe.checks {
            self.check(&format!("{note}: {name}"), ok, detail);
        }
    }

    /// Record an output check; a failed check is a failed attempt.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.tally.record(ok);
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Record an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Whether every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The metrics a run reports: end-to-end untraced, per-layer traced.
    pub fn reported(&self, traced: bool) -> &[Entry] {
        if traced {
            &self.layer
        } else {
            &self.e2e
        }
    }

    /// Human-readable lines: every metric with its unit and sample
    /// count, then checks and counts.
    pub fn text(&self, traced: bool) -> Vec<String> {
        let mut out = Vec::new();
        for e in self.reported(traced) {
            let mut line = format!("metric {} = {} {}", e.name, e.value, e.unit);
            if let Some(n) = e.samples {
                line.push_str(&format!(" (n={n})"));
            }
            if !e.note.is_empty() {
                line.push_str(&format!(" [{}]", e.note));
            }
            out.push(line);
        }
        let ratio = self.tally.failed_ratio().unwrap_or(0.0);
        out.push(format!(
            "metric failed_ratio = {ratio} ratio (failed {} / attempted {})",
            self.tally.failed, self.tally.attempted
        ));
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            out.push(format!("check {name}: {verdict} {detail}"));
        }
        for (name, v) in &self.counts {
            out.push(format!("count {name} = {v}"));
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the reported set.
    pub fn metrics_json(&self, traced: bool) -> String {
        let body: Vec<String> = self
            .reported(traced)
            .iter()
            .map(|e| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&e.name),
                    json_num(e.value),
                    json_str(e.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            self.metrics_json(traced)
        )
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// no metric should produce, are written as 0 and fail the run's check).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
