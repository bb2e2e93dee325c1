//! mao-check: the differential correctness harness.
//!
//! Every pass this repo ships is an assembly-to-assembly rewrite that
//! claims to preserve semantics. This crate checks that claim the way
//! Minotaur-style verifiers do, but with the in-tree simulator as the
//! oracle: generate randomized units, optimize them through **every
//! execution path shipped** (one-shot driver, parallel driver, `maod`
//! engine with cold and warm caches, legacy-relax layout), then run
//! original and optimized in `mao-sim` from the same initial state and
//! demand observational equivalence.
//!
//! Checked per unit × pass-config:
//!
//! 1. all execution paths emit byte-identical text;
//! 2. the emitted text reparses and re-emits byte-identically
//!    (round-trip stability);
//! 3. the optimized run matches the original on return value,
//!    callee-saved registers, stored memory, and flag discipline
//!    (see [`oracle`]).
//!
//! Failures are shrunk ([`shrink`]) and persisted to the regression
//! corpus ([`regress`]), which `cargo test` replays forever after.

pub mod cases;
pub mod oracle;
pub mod paths;
pub mod regress;
pub mod shrink;

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use cases::{generate_cases, Case};
use oracle::{compare, observe, Observation};
use paths::{ExecPath, PathRunner};
use regress::{Expect, Regression};

/// Every semantics-preserving pass the sweep exercises, one invocation
/// string per pass (mirrors `tests/pass_semantics.rs`). MISOPT is *not*
/// here — it is the deliberate miscompiler used by the self-test.
pub const TRANSFORMING_PASSES: [&str; 14] = [
    "REDZEXT",
    "REDTEST",
    "REDMOV",
    "ADDADD",
    "CONSTFOLD",
    "DCE",
    "SCHED",
    "LOOP16",
    "LSDFIT",
    "BRALIGN",
    "NOPKILL",
    "NOPIN=seed[3],density[0.1]",
    "INSTPREP",
    // Small fixed budgets: the sweep checks that whatever SUPEROPT rewrites
    // is equivalent, not how much it finds.
    "SUPEROPT=seed[1],max-window[6],diff-states[3],iters[24],max-candidates[48]",
];

/// Install a measured `.mpt` cost table as the process-global cost model
/// for a differential run: every pass planned after this call uses the
/// table's numbers, so divergences that only appear under measured costs
/// surface in the same shrink-and-persist machinery as any other failure.
///
/// A table the loader rejects (corrupt, truncated, version-skewed) is an
/// error and is **never** installed. The provider is process-global: tests
/// calling this must restore `mao_x86::cost::install_builtin()` afterwards
/// (or run in their own process) so concurrent tests keep planning with
/// the numbers they expect.
pub fn install_cost_model(path: &Path) -> Result<std::sync::Arc<mao_x86::cost::CostModel>, String> {
    let model = mao_x86::cost::CostModel::load_mpt(path)
        .map_err(|e| format!("cannot load cost model {}: {e}", path.display()))?;
    let model = std::sync::Arc::new(model);
    mao_x86::cost::install(model.clone());
    Ok(model)
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Master seed for case generation.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: usize,
    /// Pass configs to check (`None` = every transforming pass alone,
    /// plus the full pipeline).
    pub passes: Option<Vec<String>>,
    /// Worker count for the parallel execution path.
    pub jobs: usize,
    /// Simulator instruction budget per run.
    pub budget: u64,
    /// Where to persist shrunk failures (`None` = don't persist).
    pub regress_dir: Option<PathBuf>,
    /// Print per-case progress.
    pub verbose: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            seed: 42,
            cases: 100,
            passes: None,
            jobs: 4,
            budget: cases::DEFAULT_BUDGET,
            regress_dir: None,
            verbose: false,
        }
    }
}

/// One confirmed, shrunk failure.
#[derive(Debug)]
pub struct Failure {
    /// Generated case name.
    pub case: String,
    /// Pass invocation string.
    pub passes: String,
    /// Execution path the failure reproduces under.
    pub path: ExecPath,
    /// Human-readable divergence.
    pub detail: String,
    /// Minimized failing assembly.
    pub shrunk_asm: String,
    /// Where the regression file landed, if persisted.
    pub saved: Option<PathBuf>,
}

/// Sweep statistics.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Cases generated.
    pub cases: usize,
    /// Cases skipped because the original unit does not run cleanly.
    pub skipped: usize,
    /// Oracle comparisons actually simulated.
    pub comparisons: usize,
    /// Optimized texts skipped as duplicates of an already-verified text.
    pub deduped: usize,
    /// Confirmed failures (after shrinking).
    pub failures: Vec<Failure>,
    /// Functions the memo path's engine answered from its function-result
    /// memo during the sweep.
    pub memo_hits: u64,
}

impl CheckReport {
    /// True when the sweep found no failures.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The pass configs a sweep runs: each transforming pass alone, then the
/// whole pipeline in registry order.
pub fn default_pass_configs() -> Vec<String> {
    let mut out: Vec<String> = TRANSFORMING_PASSES.iter().map(|p| p.to_string()).collect();
    out.push(TRANSFORMING_PASSES.join(":"));
    out
}

/// Run the full differential sweep.
pub fn run_check(config: &CheckConfig) -> CheckReport {
    let runner = PathRunner::new(config.jobs);
    let pass_configs = config.passes.clone().unwrap_or_else(default_pass_configs);
    let mut report = CheckReport::default();
    let cases = generate_cases(config.seed, config.cases);
    report.cases = cases.len();
    for case in &cases {
        check_case(config, &runner, &pass_configs, case, &mut report);
    }
    report.memo_hits = runner.memo_hits();
    report
}

/// Check one case against every pass config and execution path.
fn check_case(
    config: &CheckConfig,
    runner: &PathRunner,
    pass_configs: &[String],
    case: &Case,
    report: &mut CheckReport,
) {
    // The original must run cleanly; generated/mutated units that fault or
    // blow the budget are not usable oracles.
    let original = match observe(&case.asm, &case.entry, &case.args, config.budget) {
        Ok(o) if o.result.is_ok() => o,
        _ => {
            report.skipped += 1;
            if config.verbose {
                eprintln!("skip {} (original does not run)", case.name);
            }
            return;
        }
    };
    // Emit fidelity: parse+emit must preserve semantics before any pass
    // runs. The normalized text also seeds the dedup set, so pass configs
    // that turn out to be no-ops on this unit cost no extra simulation.
    let normalized = match normalize(&case.asm) {
        Ok(n) => n,
        Err(e) => {
            report.failures.push(Failure {
                case: case.name.clone(),
                passes: "<none>".to_string(),
                path: ExecPath::OneShot,
                detail: format!("emit round-trip failed: {e}"),
                shrunk_asm: case.asm.clone(),
                saved: None,
            });
            return;
        }
    };
    let mut verified: HashSet<String> = HashSet::new();
    report.comparisons += 1;
    match observe(&normalized, &case.entry, &case.args, config.budget) {
        Ok(n) if compare(&original, &n).is_none() => {
            verified.insert(normalized);
        }
        other => {
            let detail = match other {
                Ok(n) => compare(&original, &n).unwrap_or_default(),
                Err(e) => e,
            };
            report.failures.push(Failure {
                case: case.name.clone(),
                passes: "<none>".to_string(),
                path: ExecPath::OneShot,
                detail: format!("normalized unit diverges from source: {detail}"),
                shrunk_asm: case.asm.clone(),
                saved: None,
            });
            return;
        }
    }
    if config.verbose {
        eprintln!("case {}", case.name);
    }
    for passes in pass_configs {
        check_pass_config(
            config,
            runner,
            case,
            &original,
            passes,
            &mut verified,
            report,
        );
    }
}

/// Run one pass config through the path matrix and the oracle.
#[allow(clippy::too_many_arguments)]
fn check_pass_config(
    config: &CheckConfig,
    runner: &PathRunner,
    case: &Case,
    original: &Observation,
    passes: &str,
    verified: &mut HashSet<String>,
    report: &mut CheckReport,
) {
    // 1. Path agreement: every execution path must emit the same bytes.
    let mut texts = Vec::new();
    for path in runner.all() {
        match runner.optimize(path, &case.asm, passes) {
            Ok(t) => texts.push((path, t)),
            Err(e) => {
                report.failures.push(fail_and_persist(
                    config,
                    case,
                    passes,
                    path,
                    format!("optimize failed: {e}"),
                    |asm| runner.optimize(path, asm, passes).is_err(),
                ));
                return;
            }
        }
    }
    let (base_path, base) = (texts[0].0, texts[0].1.clone());
    for (path, text) in &texts[1..] {
        if *text != base {
            let (path, base_path) = (*path, base_path);
            report.failures.push(fail_and_persist(
                config,
                case,
                passes,
                path,
                format!(
                    "{} and {} emit different bytes",
                    base_path.name(),
                    path.name()
                ),
                |asm| match (
                    runner.optimize(base_path, asm, passes),
                    runner.optimize(path, asm, passes),
                ) {
                    (Ok(a), Ok(b)) => a != b,
                    _ => false,
                },
            ));
            return;
        }
    }
    // 2. Round-trip stability of the optimized text.
    match normalize(&base) {
        Ok(again) if again == base => {}
        Ok(_) | Err(_) => {
            report.failures.push(fail_and_persist(
                config,
                case,
                passes,
                base_path,
                "optimized text is not reparse-stable".to_string(),
                |asm| match runner.optimize(base_path, asm, passes) {
                    Ok(t) => !matches!(normalize(&t), Ok(again) if again == t),
                    Err(_) => false,
                },
            ));
            return;
        }
    }
    // 3. The oracle. Skip texts already proven equivalent for this case.
    if verified.contains(&base) {
        report.deduped += 1;
        return;
    }
    report.comparisons += 1;
    let divergence = match observe(&base, &case.entry, &case.args, config.budget) {
        Ok(optimized) => compare(original, &optimized),
        Err(e) => Some(format!("optimized unit unusable: {e}")),
    };
    match divergence {
        None => {
            verified.insert(base);
        }
        Some(detail) => {
            let budget = config.budget;
            let entry = case.entry.clone();
            let args = case.args.clone();
            report.failures.push(fail_and_persist(
                config,
                case,
                passes,
                base_path,
                detail,
                move |asm| {
                    reproduces_mismatch(runner, asm, &entry, &args, passes, base_path, budget)
                },
            ));
        }
    }
}

/// Does optimizing `asm` under `passes`/`path` still diverge from itself?
fn reproduces_mismatch(
    runner: &PathRunner,
    asm: &str,
    entry: &str,
    args: &[u64],
    passes: &str,
    path: ExecPath,
    budget: u64,
) -> bool {
    let original = match observe(asm, entry, args, budget) {
        Ok(o) if o.result.is_ok() => o,
        _ => return false, // shrunk too far: original no longer runs
    };
    let optimized_asm = match runner.optimize(path, asm, passes) {
        Ok(t) => t,
        Err(_) => return false,
    };
    match observe(&optimized_asm, entry, args, budget) {
        Ok(optimized) => compare(&original, &optimized).is_some(),
        Err(_) => true, // optimizing made the unit unusable: still a bug
    }
}

/// Shrink a failure and persist it to the regression corpus.
fn fail_and_persist(
    config: &CheckConfig,
    case: &Case,
    passes: &str,
    path: ExecPath,
    detail: String,
    still_fails: impl FnMut(&str) -> bool,
) -> Failure {
    let shrunk_asm = shrink::shrink(&case.asm, still_fails);
    let saved = config.regress_dir.as_deref().and_then(|dir| {
        let expect = if passes.contains("MISOPT") {
            Expect::Mismatch
        } else {
            Expect::Pass
        };
        let regression = Regression {
            name: case.name.clone(),
            passes: passes.to_string(),
            path,
            entry: case.entry.clone(),
            args: case.args.clone(),
            expect,
            asm: shrunk_asm.clone(),
        };
        regression.save(dir).ok()
    });
    if config.verbose {
        eprintln!(
            "FAIL {} [{} via {}]: {detail}",
            case.name,
            passes,
            path.name()
        );
    }
    Failure {
        case: case.name.clone(),
        passes: passes.to_string(),
        path,
        detail,
        shrunk_asm,
        saved,
    }
}

/// Parse + emit (the identity pipeline).
fn normalize(asm: &str) -> Result<String, String> {
    mao::MaoUnit::parse(asm)
        .map(|u| u.emit())
        .map_err(|e| format!("reparse: {e}"))
}

/// Fault-injection self-test: prove the harness catches, shrinks, and
/// persists a deliberate miscompile. Runs a short sweep with the MISOPT
/// pass appended to a scalar cleanup pipeline and demands at least one
/// failure. Returns the failures (all from MISOPT) or an error if the
/// injection went undetected — which would mean the oracle is blind.
pub fn run_injection_selftest(
    seed: u64,
    regress_dir: Option<&Path>,
) -> Result<Vec<Failure>, String> {
    let config = CheckConfig {
        seed,
        cases: 12,
        passes: Some(vec![
            "MISOPT=mode[imm],nth[0]".to_string(),
            "ADDADD:MISOPT=mode[drop],nth[1]".to_string(),
        ]),
        regress_dir: regress_dir.map(Path::to_path_buf),
        ..CheckConfig::default()
    };
    let report = run_check(&config);
    if report.cases == report.skipped {
        return Err("selftest generated no runnable cases".to_string());
    }
    if report.failures.is_empty() {
        return Err(format!(
            "MISOPT injected miscompiles into {} case(s) and the checker caught none",
            report.cases - report.skipped
        ));
    }
    Ok(report.failures)
}

// ---------------------------------------------------------------------------
// The structural matrix leg: ISAs without a simulator oracle.
// ---------------------------------------------------------------------------

/// The built-in AArch64 kernels the structural sweep runs. Hand-written
/// rather than generated: the AArch64 instantiation is minimal (nine
/// mnemonics) and the structural leg checks the *machinery* — path
/// agreement, round-trip stability, layout invariants — not semantic
/// breadth, which stays the simulator-backed x86 sweep's job.
pub const A64_STRUCTURAL_CASES: [(&str, &str); 4] = [
    (
        "a64-leaf",
        "\t.text\n\t.type\tf, @function\nf:\n\tnop\n\tmov\tx1, x0\n\tadd\tx0, x1, #1\n\tret\n",
    ),
    (
        "a64-branchy",
        "\t.text\n\t.type\tf, @function\nf:\n\tcmp\tx0, #0\n\tb.eq\t.L2\n\tsub\tx0, x0, #1\n\
         \tnop\n.L2:\n\tret\n",
    ),
    (
        "a64-spill",
        "\t.text\n\t.type\tf, @function\nf:\n\tsub\tsp, sp, #16\n\tstr\tx19, [sp, #8]\n\
         \tmov\tx19, x0\n\tnop\n\tldr\tx19, [sp, #8]\n\tadd\tsp, sp, #16\n\tret\n",
    ),
    (
        "a64-call",
        "\t.text\n\t.type\tf, @function\nf:\n\tcmp\tx0, #7\n\tb.lt\t.L1\n\tbl\tg\n\tnop\n\
         .L1:\n\tmov\tx0, #0\n\tret\n\t.type\tg, @function\ng:\n\tadd\tx0, x0, x0\n\tret\n",
    ),
];

/// The pass configs the structural sweep runs: every ISA-neutral pass
/// alone, then all of them chained.
pub fn a64_pass_configs() -> Vec<String> {
    let neutral = ["MAOPASS", "LFIND", "DCE", "NOPKILL"];
    let mut out: Vec<String> = neutral.iter().map(|p| p.to_string()).collect();
    out.push(neutral.join(":"));
    out
}

/// The structural differential sweep for an ISA with no simulator oracle
/// (today: AArch64). Runs each built-in kernel through every execution
/// path and demands, per pass config:
///
/// 1. every path emits byte-identical text (the same matrix the x86
///    sweep runs);
/// 2. the optimized text reparses and re-emits byte-identically;
/// 3. the relaxed layout is structurally sound: entry addresses are
///    monotone, and every AArch64 instruction occupies exactly 4 bytes
///    (the fixed-width encoding contract the ISA trait promises).
///
/// Failures land in the same [`CheckReport`] shape as the x86 sweep but
/// are not shrunk or persisted — the corpus is fixed and tiny.
pub fn run_structural_check(isa: mao::isa::IsaId, config: &CheckConfig) -> CheckReport {
    let runner = PathRunner::new(config.jobs);
    let pass_configs = config.passes.clone().unwrap_or_else(a64_pass_configs);
    let mut report = CheckReport::default();
    report.cases = A64_STRUCTURAL_CASES.len();
    for (name, asm) in A64_STRUCTURAL_CASES {
        if config.verbose {
            eprintln!("case {name}");
        }
        for passes in &pass_configs {
            if let Some((path, detail)) =
                structural_divergence(&runner, asm, passes, isa, &mut report)
            {
                report.failures.push(Failure {
                    case: name.to_string(),
                    passes: passes.clone(),
                    path,
                    detail,
                    shrunk_asm: asm.to_string(),
                    saved: None,
                });
            }
        }
    }
    report
}

/// One case × pass config of the structural sweep; `None` means clean.
fn structural_divergence(
    runner: &PathRunner,
    asm: &str,
    passes: &str,
    isa: mao::isa::IsaId,
    report: &mut CheckReport,
) -> Option<(ExecPath, String)> {
    let mut texts = Vec::new();
    for path in runner.all() {
        match runner.optimize_isa(path, asm, passes, isa) {
            Ok(t) => texts.push((path, t)),
            Err(e) => return Some((path, format!("optimize failed: {e}"))),
        }
    }
    let (base_path, base) = (texts[0].0, texts[0].1.clone());
    for (path, text) in &texts[1..] {
        if *text != base {
            return Some((
                *path,
                format!(
                    "{} and {} emit different bytes",
                    base_path.name(),
                    path.name()
                ),
            ));
        }
    }
    report.comparisons += 1;
    // Round-trip stability through the ISA's own dialect.
    match mao::MaoUnit::parse_isa(&base, isa) {
        Ok(unit) if unit.emit() == base => {
            // Layout invariants over the relaxed optimized unit.
            let layout = match mao::relax(&unit) {
                Ok(l) => l,
                Err(e) => return Some((base_path, format!("relaxation failed: {e}"))),
            };
            let mut prev_end = 0u64;
            for id in 0..layout.addr.len() {
                let addr = layout.addr[id];
                if addr < prev_end {
                    return Some((base_path, format!("layout not monotone at entry {id}")));
                }
                prev_end = addr + u64::from(layout.size[id]);
                if let Some(insn) = unit.insn_any(id) {
                    if insn.isa() == isa && layout.size[id] != 4 {
                        return Some((
                            base_path,
                            format!(
                                "fixed-width ISA emitted a {}-byte instruction at entry {id}",
                                layout.size[id]
                            ),
                        ));
                    }
                }
            }
            None
        }
        Ok(_) => Some((
            base_path,
            "optimized text is not reparse-stable".to_string(),
        )),
        Err(e) => Some((base_path, format!("optimized text does not reparse: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pass_configs_cover_the_registry() {
        let configs = default_pass_configs();
        assert_eq!(configs.len(), TRANSFORMING_PASSES.len() + 1);
        assert!(configs.last().unwrap().contains("REDZEXT:"));
    }

    #[test]
    fn small_sweep_is_green() {
        let report = run_check(&CheckConfig {
            seed: 42,
            cases: 6,
            ..CheckConfig::default()
        });
        assert_eq!(report.cases, 6);
        assert!(
            report.ok(),
            "differential sweep found failures: {:#?}",
            report.failures
        );
        assert!(report.comparisons > 0);
    }

    #[test]
    fn a64_structural_sweep_is_green() {
        let report = run_structural_check(
            mao::isa::IsaId::Aarch64,
            &CheckConfig {
                jobs: 2,
                ..CheckConfig::default()
            },
        );
        assert_eq!(report.cases, A64_STRUCTURAL_CASES.len());
        assert!(
            report.ok(),
            "structural sweep found failures: {:#?}",
            report.failures
        );
        assert!(report.comparisons > 0);
    }

    #[test]
    fn a64_structural_sweep_catches_an_x86_only_pass() {
        // An x86-only pass in the config must surface as a structured
        // failure on every case, not a panic or a silent skip.
        let report = run_structural_check(
            mao::isa::IsaId::Aarch64,
            &CheckConfig {
                jobs: 2,
                passes: Some(vec!["SCHED".to_string()]),
                ..CheckConfig::default()
            },
        );
        assert_eq!(report.failures.len(), A64_STRUCTURAL_CASES.len());
        for f in &report.failures {
            assert!(f.detail.contains("does not support ISA"), "{}", f.detail);
        }
    }

    #[test]
    fn injection_selftest_catches_misopt() {
        let failures = run_injection_selftest(7, None).expect("selftest");
        assert!(failures.iter().all(|f| f.passes.contains("MISOPT")));
        // Shrinking produced something no bigger than the source.
        for f in &failures {
            assert!(!f.shrunk_asm.is_empty());
        }
    }
}
