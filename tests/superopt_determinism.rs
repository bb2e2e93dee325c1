//! SUPEROPT determinism: the stochastic search is seeded per window
//! (splitmix over the explicit `--seed` and the canonical window key), so
//! the pass must produce byte-identical assembly for every job count and
//! for repeated runs with the same seed — and different output only when
//! the seed actually changes search decisions. A warm learned-rewrite cache
//! must replay the cold run byte for byte without searching, at least ten
//! times faster, and the pass must win cycles on a paper kernel.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mao::pass::{parse_invocations, run_pipeline_observed, run_pipeline_with, PipelineConfig};
use mao::{AnalysisCache, MaoUnit, Obs};
use mao_corpus::{generate, kernels, GeneratorConfig};
use mao_sim::{simulate, SimOptions, UarchConfig};

/// Held by every test in this file, so the warm/cold throughput gate never
/// shares the CPUs with another test's search.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Small fixed budgets: determinism is about search *decisions*, not depth.
fn spec(seed: u64) -> String {
    format!("SUPEROPT=seed[{seed}],max-window[5],diff-states[3],iters[16],max-candidates[32]")
}

fn run(seed: u64, jobs: usize) -> (String, mao::PipelineReport) {
    mao_superopt::register();
    let corpus = generate(&GeneratorConfig::core_library(0.01));
    let mut unit = MaoUnit::parse(&corpus.asm).expect("generated corpus parses");
    let invs = parse_invocations(&spec(seed)).unwrap();
    let report =
        run_pipeline_with(&mut unit, &invs, None, &PipelineConfig { jobs }).expect("pass runs");
    (unit.emit(), report)
}

#[test]
fn superopt_is_byte_identical_across_job_counts() {
    let _serial = serial();
    let (seq, seq_report) = run(42, 1);
    let (par, par_report) = run(42, 8);
    assert_eq!(seq, par, "assembly must not depend on the job count");
    assert_eq!(
        seq_report
            .passes
            .iter()
            .map(|(n, s)| (n.clone(), s.transformations, s.matches))
            .collect::<Vec<_>>(),
        par_report
            .passes
            .iter()
            .map(|(n, s)| (n.clone(), s.transformations, s.matches))
            .collect::<Vec<_>>(),
        "per-pass stats must not depend on the job count"
    );
}

#[test]
fn superopt_reruns_reproduce_exactly() {
    let _serial = serial();
    let (a, _) = run(7, 4);
    let (b, _) = run(7, 4);
    assert_eq!(a, b, "same seed, same corpus -> same bytes");
}

/// What one observed SUPEROPT run did.
struct Sample {
    asm: String,
    seconds: f64,
    windows: u64,
    searches: u64,
    rewrites: u64,
}

/// One SUPEROPT run over a clone of `base` at jobs 1, timed, with its
/// counters read from a fresh telemetry bundle.
fn observed(base: &MaoUnit, spec: &str) -> Sample {
    let mut unit = base.clone();
    let invs = parse_invocations(spec).expect("valid pass spec");
    let obs = Obs::aggregating();
    let analyses = Arc::new(AnalysisCache::new());
    let config = PipelineConfig { jobs: 1 };
    let t = Instant::now();
    run_pipeline_observed(&mut unit, &invs, None, &config, &analyses, &obs).expect("pass runs");
    let seconds = t.elapsed().as_secs_f64();
    let counter = |name: &str| obs.metrics.counter_value(name);
    Sample {
        asm: unit.emit(),
        seconds,
        windows: counter("mao_superopt_windows_total"),
        searches: counter("mao_superopt_searches_total"),
        rewrites: counter("mao_superopt_rewrites_total"),
    }
}

/// A cold run that fills a fresh learned-rewrite cache directory named
/// after `test`, then a warm run over it, on the generated corpus at scale
/// 0.01 with seed 42.
fn cold_then_warm(test: &str) -> (Sample, Sample) {
    mao_superopt::register();
    let dir = std::env::temp_dir().join(format!("mao-superopt-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = MaoUnit::parse(&generate(&GeneratorConfig::core_library(0.01)).asm)
        .expect("generated corpus parses");
    let spec = format!(
        "SUPEROPT=seed[42],max-window[6],diff-states[3],iters[24],max-candidates[48],cache-dir[{}]",
        dir.display()
    );
    let cold = observed(&base, &spec);
    let warm = observed(&base, &spec);
    let _ = std::fs::remove_dir_all(&dir);
    (cold, warm)
}

#[test]
fn warm_rewrite_cache_replays_the_cold_run_without_searching() {
    let _serial = serial();
    let (cold, warm) = cold_then_warm("replay");
    assert!(
        cold.searches > 0 && cold.rewrites > 0,
        "the cold run searched and rewrote"
    );
    assert_eq!(
        cold.asm, warm.asm,
        "warm output must be byte-identical to the cold run"
    );
    assert_eq!(
        warm.searches, 0,
        "a warm cache must answer every window without searching"
    );
    assert_eq!(warm.rewrites, cold.rewrites);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the throughput gate needs an optimized build"
)]
fn warm_rewrite_cache_is_ten_times_cold_search() {
    let _serial = serial();
    let (cold, warm) = cold_then_warm("speed");
    let per_sec = |s: &Sample| s.windows as f64 / s.seconds.max(1e-9);
    let speedup = per_sec(&warm) / per_sec(&cold).max(1e-9);
    eprintln!("superopt: warm cache {speedup:.1}x cold search");
    assert!(
        speedup >= 10.0,
        "warm window throughput is only {speedup:.2}x cold"
    );
}

#[test]
fn superopt_wins_cycles_on_a_paper_kernel() {
    let _serial = serial();
    mao_superopt::register();
    let uarch = UarchConfig::core2();
    let opts = SimOptions::default();
    let suite = kernels::paper_suite(20);
    let mut improved = 0;
    for w in &suite {
        let unit = MaoUnit::parse(&w.asm).expect("kernel parses");
        let before = simulate(&unit, &w.entry, &w.args, &uarch, &opts).expect("kernel runs");
        let after = MaoUnit::parse(&observed(&unit, "SUPEROPT=seed[42]").asm)
            .expect("rewritten kernel parses");
        let after = simulate(&after, &w.entry, &w.args, &uarch, &opts).expect("rewritten runs");
        assert_eq!(
            before.ret, after.ret,
            "SUPEROPT changed the result of {}",
            w.name
        );
        improved += usize::from(after.pmu.cycles < before.pmu.cycles);
    }
    eprintln!("superopt: {improved}/{} kernels improved", suite.len());
    assert!(improved > 0, "no paper kernel improved");
}
