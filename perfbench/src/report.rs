//! The result of one run: operations attempted and failed, and the metrics
//! of the pass that was asked for.

use crate::metrics;

/// Collects one run's outcome and renders the final JSON line.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report for the traced (per-layer) or untraced pass.
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Whether this is the traced (per-layer) pass.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Counts one operation or output check; a failure is logged with
    /// `what` and counted against the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Counts a batch of operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an end-to-end metric (kept only in the untraced pass).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.traced {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Records a per-layer metric (kept only in the traced pass).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.traced {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Prints one `metric` line per value and returns the final JSON line,
    /// with the pass's metrics in the order of [`crate::metrics`]. A
    /// per-layer metric of a layer this workload does not run reads 0.
    ///
    /// # Errors
    ///
    /// A value that is not a finite number, a name reported twice or not
    /// in the pass's list or with another unit, a missing end-to-end
    /// metric, or a run that attempted nothing is a bug in the harness: no
    /// result is printed.
    pub fn finish(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let expected: Vec<(String, &str)> = if self.traced {
            metrics::per_layer()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if self.metrics[..i].iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric {name} reported twice"));
            }
            if !expected.iter().any(|(n, u)| n == name && u == unit) {
                return Err(format!("metric {name} ({unit}) is not in the pass's list"));
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, _)) => {
                    println!("metric {name} = {value} {unit}");
                    value
                }
                None if self.traced => {
                    println!("metric {name} = 0 {unit} (layer not run by this workload)");
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("ops: attempted={} failed={}", self.attempted, self.failed);
        Ok(json)
    }
}
