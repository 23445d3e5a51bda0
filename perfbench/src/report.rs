//! What a workload run produces, and how it is printed.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric from borrowed parts.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds spent generating inputs, allocating and filling arrays and
    /// starting servers.
    pub setup_s: f64,
    /// Operations attempted (simulated points, kernel calls, requests).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// The workload's headline rate (the `work_rate` end-to-end metric).
    pub work_rate: f64,
    /// Latencies of the workload's unit operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Workload-specific end-to-end figures, printed by name.
    pub named: Vec<Metric>,
    /// Per-layer figures (filled by traced runs).
    pub layer: Vec<Metric>,
    /// Correctness verdict lines.
    pub verdicts: Vec<String>,
    /// Free-form report lines (attributions, isolation checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a workload-specific end-to-end figure.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push(Metric::new(name, value, unit));
    }

    /// Records a per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layer.push(Metric::new(name, value, unit));
    }

    /// Records a correctness verdict: `bad` failures out of `checked`
    /// operations, counted against the run.
    pub fn verdict(&mut self, what: &str, checked: u64, bad: u64) {
        self.failed += bad;
        let status = if bad == 0 { "ok" } else { "MISMATCH" };
        self.verdicts.push(format!(
            "verdict {what}: {status} ({bad} of {checked} wrong)"
        ));
    }
}

/// Renders a float for JSON output with every digit it carries.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
