//! The benchmark's own tests. Run them optimized — each one drives real
//! workloads: `cargo test --release --manifest-path bench_e2e/Cargo.toml`.

use std::path::PathBuf;

use bench_e2e::inputs::{build_corpus, edit_units, kernels, warm_units, Editor};
use bench_e2e::{per_layer_metrics, run, Options, Report, Workload, END_TO_END};

fn options(workload: Workload, seed: u64, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed,
        // Below one corpus pass or one request: every phase still runs one.
        seconds: 0.2,
        trace,
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_bench_e2e")),
        run_dir: PathBuf::from(".bench_run").join(format!("test-{tag}-{}", std::process::id())),
    }
}

fn assert_clean(report: &Report, what: &str) {
    assert!(
        report.failures.is_empty(),
        "{what}: {:?}",
        &report.failures[..report.failures.len().min(5)]
    );
    assert!(report.attempted > 0, "{what}: nothing attempted");
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in [3, 4] {
        let (a, b) = (build_corpus(seed), build_corpus(seed));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.asm, y.asm);
            assert_eq!(x.planted, y.planted);
        }
        let (a, b) = (edit_units(seed), edit_units(seed));
        assert!(a.iter().zip(&b).all(|(x, y)| x.asm == y.asm));
        let (a, b) = (warm_units(seed, 8), warm_units(seed, 8));
        assert!(a.iter().zip(&b).all(|(x, y)| x.asm == y.asm));
        assert_eq!(kernels(seed), kernels(seed));
        let units = edit_units(seed);
        let (mut e1, mut e2) = (Editor::new(seed, &units), Editor::new(seed, &units));
        for _ in 0..20 {
            assert_eq!(e1.edit(), e2.edit());
        }
    }
    assert_ne!(build_corpus(3)[0].asm, build_corpus(4)[0].asm);
}

#[test]
fn edits_keep_length_and_change_text() {
    let units = edit_units(5);
    let mut editor = Editor::new(5, &units);
    for _ in 0..50 {
        let (u, text) = editor.edit();
        assert_ne!(text, units[u].asm);
        assert_eq!(text.lines().count(), units[u].asm.lines().count());
    }
}

#[test]
fn held_out_seed_runs_clean_through_every_workload() {
    for workload in Workload::ALL {
        let plain = run(&options(workload, 987_654, false, workload.name()));
        assert_clean(&plain, workload.name());
        for (name, _) in END_TO_END {
            let value = plain.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let tag = format!("{}-traced", workload.name());
        let traced = run(&options(workload, 987_654, true, &tag));
        assert_clean(&traced, &tag);
        let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, expected);
    }
}
