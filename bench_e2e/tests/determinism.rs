//! Deterministic metrics repeat exactly. This test has a binary of its own:
//! relaxation totals are process-wide counters, so no other workload may
//! run beside it. Run optimized:
//! `cargo test --release --manifest-path bench_e2e/Cargo.toml`.

use std::path::PathBuf;

use bench_e2e::{per_layer_metrics, run, Options, Report, Workload};

fn run_once(workload: Workload, trace: bool, tag: &str) -> Report {
    let report = run(&Options {
        workload,
        seed: 21,
        seconds: 0.2,
        trace,
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_bench_e2e")),
        run_dir: PathBuf::from(".bench_run").join(format!("test-{tag}-{}", std::process::id())),
    });
    assert!(report.failures.is_empty(), "{tag}: {:?}", report.failures);
    report
}

/// Same seed, same workload, twice: the end-to-end deterministic metrics
/// and the per-layer work counts must be equal. Relaxation counts are
/// deterministic only in process, for `oneshot_build`: a `maod` run scrapes
/// them over a measured loop whose length follows the clock.
#[test]
fn deterministic_metrics_repeat_exactly() {
    for workload in Workload::ALL {
        let name = workload.name();
        let a = run_once(workload, false, &format!("{name}-a"));
        let b = run_once(workload, false, &format!("{name}-b"));
        for metric in ["sim_cycles_geomean", "code_bytes"] {
            assert_eq!(a.get(metric), b.get(metric), "{name}: {metric}");
            assert!(a.get(metric).unwrap() > 0.0, "{name}: {metric}");
        }
        let a = run_once(workload, true, &format!("{name}-c"));
        let b = run_once(workload, true, &format!("{name}-d"));
        for (metric, _) in per_layer_metrics() {
            let relax = metric.starts_with("core.relax.");
            if metric.ends_with(".transformations") || (relax && workload == Workload::OneshotBuild)
            {
                assert_eq!(a.get(&metric), b.get(&metric), "{name}: {metric}");
            }
        }
        assert!(
            a.get("core.pass.REDTEST.transformations").unwrap() > 0.0,
            "{name}"
        );
        if workload == Workload::OneshotBuild {
            assert!(a.get("core.relax.rechecks").unwrap() > 0.0);
        }
    }
}
