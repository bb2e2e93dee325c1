//! Result assembly: metrics, percentiles, failure accounting and the JSON
//! line the benchmark ends with.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run measured and whether every check held.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations the measured loop(s) attempted, plus oracle-only ones.
    pub attempted: u64,
    /// Each failed operation, mismatch or broken workload self-check.
    pub failures: Vec<String>,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Input bytes the workload generated (for the provenance line).
    pub input_bytes: u64,
}

impl Report {
    /// Record a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a failure.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Failures over attempts.
    pub fn failed_ratio(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The final output line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
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

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The throughput and latency figures of one measurement window: a stretch
/// of the measured loop that holds the workload's whole request mix once
/// (a corpus pass, or a whole number of request schedules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Input MB per wall second.
    pub throughput_mb_s: f64,
    /// Latency percentiles.
    pub p50_ms: f64,
    pub p90_ms: f64,
}

impl Window {
    /// A window that served `bytes` input bytes in `wall_s` seconds with
    /// the given per-operation latencies.
    pub fn new(latencies_ms: &[f64], bytes: f64, wall_s: f64) -> Window {
        Window {
            throughput_mb_s: bytes / 1e6 / wall_s,
            p50_ms: percentile(latencies_ms, 50.0),
            p90_ms: percentile(latencies_ms, 90.0),
        }
    }
}

/// Report throughput and latency as medians over windows. The host's speed
/// drifts over seconds; a median over windows follows the typical window
/// instead of however much of the run a slow spell covered.
pub fn push_window_medians(report: &mut Report, windows: &[Window]) {
    let med = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    report.push("throughput_mb_s", med(|w| w.throughput_mb_s), "MB/s");
    report.push("latency_ms_p50", med(|w| w.p50_ms), "ms");
    report.push("latency_ms_p90", med(|w| w.p90_ms), "ms");
}

/// Peak resident set (`VmHWM`) of a process, in MB (`None` = this process).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_medians_ignore_a_slow_spell() {
        let fast = Window::new(&[1.0, 2.0, 3.0], 2e6, 1.0);
        let slow = Window::new(&[2.0, 4.0, 6.0], 2e6, 2.0);
        let mut r = Report::default();
        push_window_medians(&mut r, &[fast, slow, fast]);
        assert_eq!(r.get("throughput_mb_s"), Some(2.0));
        assert_eq!(r.get("latency_ms_p50"), Some(2.0));
        assert_eq!(r.get("latency_ms_p90"), Some(fast.p90_ms));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("latency_ms_p50", 1.25, "ms");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
