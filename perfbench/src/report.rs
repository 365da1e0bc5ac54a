//! Result reporting: named metrics with units, percentiles, content digests
//! and the cross-run check of deterministic work counters.

use std::collections::BTreeMap;
use std::path::Path;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed next to the value: sample counts, or why a layer reads 0.
    pub note: String,
}

/// Everything one run reports: metrics, operation counts and the
/// deterministic counters the cross-run check compares.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (missions flown, campaigns submitted, calls).
    pub attempted: u64,
    /// Operations that errored or whose output check failed.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
    /// Deterministic work counters, keyed by name.
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.into(), value, unit, note });
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|metric| metric.name == name)
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Prints the human-readable lines and then, as the last line, the
    /// JSON result restricted to `wanted` metric names.
    pub fn print(&self, wanted: &[&str]) {
        for failure in &self.failures {
            println!("FAILED  {failure}");
        }
        for (name, value) in &self.counters {
            println!("counter {name:<44} {value}");
        }
        for metric in &self.metrics {
            println!(
                "metric  {:<44} {:>16.6} {:<6} {}",
                metric.name, metric.value, metric.unit, metric.note
            );
        }
        let op_fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric  {:<44} {:>16.6} ratio  failed/attempted", "op_fail_ratio", op_fail_ratio);
        let mut body = Vec::new();
        for name in wanted {
            match self.metrics.iter().find(|metric| metric.name == *name) {
                Some(metric) => body.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    metric.name,
                    json_number(metric.value),
                    metric.unit
                )),
                None => println!("missing metric {name}"),
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit `f64`'s shortest round-trip form has.
/// `{:?}` writes e.g. `0.25` or `1e-7`, both valid JSON; non-finite values
/// never reach here.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples; 0 for
/// no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The highest of p99/p95/p90/p50 that leaves at least ten samples above
/// it, with its label.
pub fn tail_percentile(samples: &[f64]) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if (samples.len() as f64) * (1.0 - q) >= 10.0 {
            return (percentile(samples, q), label);
        }
    }
    (percentile(samples, 0.5), "p50")
}

/// FNV-1a over bytes: a stable content digest for output checks.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Canonical JSON bytes of a value, for byte-for-byte output comparison.
pub fn canonical<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("benchmark outputs serialize")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Compares this run's deterministic counters with the last run of the
/// same executable, workload and seed, then stores them for the next run.
/// Keys present in only one of the two runs are skipped, so a run that
/// completed fewer served jobs still checks the jobs both runs share.
pub fn check_counters_across_runs(report: &mut Report, dir: &Path, workload: &str, seed: u64) {
    let exe_digest =
        std::env::current_exe().and_then(std::fs::read).map(|bytes| digest(&bytes)).unwrap_or(0);
    let path = dir.join(format!("counters-{exe_digest:016x}-{workload}-{seed}.txt"));
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let mut compared = 0;
        for line in previous.lines() {
            let Some((name, value)) = line.split_once(' ') else { continue };
            let Some(current) = report.counters.get(name).copied() else { continue };
            compared += 1;
            if value.parse::<u64>().ok() != Some(current) {
                report.fail(format!(
                    "counter {name} = {current}, but an earlier run with seed {seed} read {value}"
                ));
            }
        }
        println!("counters compared with the previous run of this binary: {compared}");
    }
    let text: String =
        report.counters.iter().map(|(name, value)| format!("{name} {value}\n")).collect();
    if std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)).is_err() {
        println!("note: could not store counters under {}", dir.display());
    }
}

/// Median of a non-empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}
