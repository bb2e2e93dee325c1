//! End-to-end benchmark of MAO's two user paths — the one-shot `mao` run a
//! build farm makes per unit, and the resident `maod` service — with
//! per-layer attribution measured from outside the program. See the
//! README beside this crate for the workloads, metrics and layer table.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub mod daemon;
pub mod inputs;
pub mod maod;
pub mod oneshot;
pub mod oracle;
pub mod report;

pub use report::Report;

/// Set-ups per untraced run (see [`timed_setups`]); `setup_s` is their
/// median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot build-farm traffic, in process.
    OneshotBuild,
    /// Incremental rebuild traffic through `maod`.
    MaodEdit,
    /// Restart-warm read traffic through `maod`.
    MaodWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OneshotBuild,
        Workload::MaodEdit,
        Workload::MaodWarm,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotBuild => "oneshot_build",
            Workload::MaodEdit => "maod_edit",
            Workload::MaodWarm => "maod_warm",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time budget.
    pub seconds: f64,
    /// Report per-layer metrics (from a separate traced phase) instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Executable that serves `daemon` (this benchmark's binary).
    pub daemon_exe: PathBuf,
    /// Scratch directory for sockets and cache dirs; removed afterwards.
    pub run_dir: PathBuf,
}

/// Run one workload.
pub fn run(opts: &Options) -> Report {
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    let report = match opts.workload {
        Workload::OneshotBuild => oneshot::workload::run(opts),
        Workload::MaodEdit => maod::run_edit(opts),
        Workload::MaodWarm => maod::run_warm(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    if let Some(parent) = opts.run_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    report
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_geomean", "cycles"),
    ("code_bytes", "bytes"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// that a workload never enters reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for pass in inputs::PASSES {
        out.push((format!("core.pass.{pass}.ms"), "ms"));
    }
    for pass in inputs::PASSES {
        out.push((format!("core.pass.{pass}.transformations"), "count"));
    }
    let fixed: [(&str, &'static str); 29] = [
        ("core.analysis_cache.hits", "count"),
        ("core.analysis_cache.misses", "count"),
        ("core.analysis_cache.hit_ratio", "ratio"),
        ("core.relax.layouts", "count"),
        ("core.relax.patches", "count"),
        ("core.relax.iterations", "count"),
        ("core.relax.rechecks", "count"),
        ("asm.parse.ms", "ms"),
        ("asm.parse.mb_s", "MB/s"),
        ("asm.emit.ms", "ms"),
        ("asm.snapshot.load_ms", "ms"),
        ("asm.snapshot.hits", "count"),
        ("asm.snapshot.misses", "count"),
        ("serve.codec.ms", "ms"),
        ("serve.codec.mb", "MB"),
        ("serve.transport.ms", "ms"),
        ("serve.result_cache.ms", "ms"),
        ("serve.result_cache.mem_hits", "count"),
        ("serve.result_cache.disk_hits", "count"),
        ("serve.result_cache.misses", "count"),
        ("serve.result_cache.insertions", "count"),
        ("serve.result_cache.evictions", "count"),
        ("serve.store.read_ms", "ms"),
        ("serve.store.write_ms", "ms"),
        ("serve.store.bytes", "bytes"),
        ("serve.engine.queue_wait_ms", "ms"),
        ("serve.engine.service_ms", "ms"),
        ("trace.unattributed_pct", "%"),
        ("trace.overhead_pct", "%"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Per-layer accumulators, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Add to a metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    /// Overwrite a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Read a metric (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Push every per-layer metric, in canonical order.
pub fn push_layers(report: &mut Report, layers: &Layers) {
    for (name, unit) in per_layer_metrics() {
        let value = layers.get(&name);
        report.push(name, value, unit);
    }
}

/// Run a set-up repeatedly and keep the last result; returns the median
/// set-up time in seconds. Untraced runs repeat it at least
/// [`SETUP_MIN_REPEATS`] times and until the repeats add up to
/// [`SETUP_MIN_SECONDS`], so a set-up of a few milliseconds still gets a
/// steady median; traced runs report no `setup_s` and set up once. The
/// argument is the repeat's index. Every result but the last goes to
/// `retire`, outside the timed region, so that what an earlier set-up
/// sent and saw still counts.
pub fn timed_setups<T>(
    opts: &Options,
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(f64, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    let more = |times: &[f64]| {
        times.len() < SETUP_MIN_REPEATS
            || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    };
    while times.is_empty() || (!opts.trace && more(&times)) {
        if let Some(earlier) = last.take() {
            retire(earlier);
        }
        let t = Instant::now();
        let value = setup(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((
        report::median(&times),
        last.expect("at least one set-up ran"),
    ))
}

/// Commit of the checkout, read from `.git` when there is one.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The provenance line printed before the result.
pub fn provenance_line(opts: &Options, report: &Report) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_commit\": \"{}\", \"build_profile\": \"{}\", \"input_bytes\": {}, \
         \"attempted\": {}, \"failed_ratio\": {}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        daemon::nproc(),
        git_commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        report.input_bytes,
        report.attempted,
        report.failed_ratio(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(trace: bool) -> Options {
        Options {
            workload: Workload::OneshotBuild,
            seed: 1,
            seconds: 1.0,
            trace,
            daemon_exe: PathBuf::from("unused"),
            run_dir: PathBuf::from("unused"),
        }
    }

    #[test]
    fn every_replaced_setup_is_retired() {
        let mut retired = Vec::new();
        let (_, kept) = timed_setups(&options(false), Ok, |n| retired.push(n)).unwrap();
        assert!(kept + 1 >= SETUP_MIN_REPEATS);
        assert_eq!(retired, (0..kept).collect::<Vec<_>>());

        let mut retired = Vec::new();
        let (_, kept) = timed_setups(&options(true), Ok, |n| retired.push(n)).unwrap();
        assert_eq!((kept, retired.len()), (0, 0));
    }
}
