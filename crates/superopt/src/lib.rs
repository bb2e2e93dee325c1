//! `mao-superopt` — a search-based superoptimizer pass with `mao-sim` as
//! the equivalence oracle and a persistent learned-rewrite cache.
//!
//! The pattern passes in `crates/core` remove inefficiencies someone
//! anticipated; `SUPEROPT` searches for ones nobody did. Per window:
//!
//! 1. **Extract** short straight-line windows (no labels, calls, or
//!    barriers; flags provably dead at exit) — `window.rs`.
//! 2. **Canonicalize** into window-normal form (registers renamed by first
//!    appearance, immediates concrete) and hash to a 128-bit cache key —
//!    `canon.rs`.
//! 3. **Consult the learned-rewrite cache**; a hit skips the search
//!    entirely (negative results are cached too) — `cache.rs`.
//! 4. **Search** for a strictly cheaper equivalent: subsequence + template
//!    enumeration for small windows, Metropolis for large — `search.rs`.
//! 5. **Verify two-phase**: seeded-random differential execution, then the
//!    full mao-check oracle. Cache hits are *re-verified* before
//!    application — nothing unverified ever reaches output — `verify.rs`.
//! 6. **Apply** after renaming back through the window's register binding.
//!
//! The pass registers its descriptor through `mao::pass::register_extension`
//! (it sits above `mao-sim` in the dependency graph, so it cannot appear in
//! the built-in table), and is deterministic for a given `seed[N]` at any
//! `--jobs N`: each window's RNG is seeded from `seed ^ window key`,
//! independent of scan order.

use std::sync::Mutex;

use mao::pass::{
    register_extension, run_functions, OptionSpec, PassContext, PassDescriptor, PassError,
    PassScope, PassStats,
};
use mao::{EditSet, MaoUnit};
use mao_asm::Entry;
use mao_obs::TraceEvent;
use mao_x86::{Instruction, Operand, Reg, Width};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod cache;
pub mod canon;
pub mod search;
pub mod verify;
pub mod window;

pub use cache::{CachedResult, RewriteCache};
pub use canon::{canonicalize, decanonicalize, CanonWindow};
pub use search::{cost, search, SearchCfg, SearchCounters};
pub use verify::{Reject, Verifier};
pub use window::{extract_windows, Window};

/// Registry name of the pass.
pub const PASS_NAME: &str = "SUPEROPT";

/// Register `SUPEROPT` in the global pass registry, declared x86-only —
/// the rewrite windows, the cost model, and the simulator oracle are all
/// x86 constructs. Idempotent; every entry point that may run the pass
/// (the CLI, the checker's path runner, tests) calls this once at startup.
pub fn register() {
    register_extension(DESCRIPTOR);
}

/// The `SUPEROPT` descriptor: unit scope, x86-only, and its knobs
/// ([`SuperoptOptions`]).
pub const DESCRIPTOR: PassDescriptor = PassDescriptor {
    name: PASS_NAME,
    description: "search for cheaper window replacements, verified against the simulator oracle",
    scope: PassScope::Unit,
    isas: &[mao::isa::IsaId::X86_64],
    options: &[
        OptionSpec::u64("seed", 0, u64::MAX),
        OptionSpec::u64("min-window", 1, 32),
        OptionSpec::u64("max-window", 1, 32),
        OptionSpec::u64("diff-states", 1, 1024),
        OptionSpec::u64("enum-max", 0, 8),
        OptionSpec::u64("iters", 0, u64::MAX),
        OptionSpec::u64("max-candidates", 0, u64::MAX),
        OptionSpec::text("cache-dir"),
        OptionSpec::flag("inject-bogus-rewrite"),
    ],
    run,
};

/// Knobs, parsed from the invocation options.
#[derive(Debug, Clone)]
pub struct SuperoptOptions {
    /// Master seed for all stochastic search and state sampling.
    pub seed: u64,
    /// Smallest window considered.
    pub min_window: usize,
    /// Largest window considered.
    pub max_window: usize,
    /// Random machine states per verification.
    pub diff_states: usize,
    /// Search budgets.
    pub search: SearchCfg,
    /// Persistent cache directory (in-memory per invocation when absent).
    pub cache_dir: Option<String>,
    /// Fault-injection self-test: try a deliberately wrong rewrite per
    /// window and require the verifier to reject it.
    pub inject_bogus: bool,
}

impl SuperoptOptions {
    /// Read the options from a pass invocation
    /// (`SUPEROPT=seed[42],max-window[6],cache-dir[/path]`).
    pub fn from_pass_options(o: &mao::pass::PassOptions) -> SuperoptOptions {
        let defaults = SearchCfg::default();
        SuperoptOptions {
            seed: o.get_u64("seed", 0),
            min_window: o.get_u64("min-window", 3) as usize,
            max_window: o.get_u64("max-window", 8) as usize,
            diff_states: o.get_u64("diff-states", 5) as usize,
            search: SearchCfg {
                enum_max: o.get_u64("enum-max", defaults.enum_max as u64) as usize,
                iters: o.get_u64("iters", defaults.iters),
                max_candidates: o.get_u64("max-candidates", defaults.max_candidates),
            },
            cache_dir: o.get("cache-dir").map(str::to_string),
            inject_bogus: o.has("inject-bogus-rewrite"),
        }
    }
}

/// The `SUPEROPT` pass.
fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let opts = SuperoptOptions::from_pass_options(&ctx.options);
    if opts.min_window > opts.max_window {
        return Err(PassError::BadOptions(format!(
            "SUPEROPT window bounds {}..{} are not a range",
            opts.min_window, opts.max_window
        )));
    }
    let cache = match &opts.cache_dir {
        Some(dir) => RewriteCache::persistent(dir)
            .map_err(|e| PassError::Other(format!("SUPEROPT cache-dir {dir}: {e}")))?,
        None => RewriteCache::in_memory(),
    };
    let obs = ctx.obs.clone();
    let metrics = Counters::new(&obs);
    let injection_failure: Mutex<Option<String>> = Mutex::new(None);
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let mut edits = EditSet::new();
        for w in extract_windows(unit, function, opts.min_window, opts.max_window) {
            metrics.windows.inc();
            let Some(canon) = canonicalize(&w.insns) else {
                continue;
            };
            let mut span = mao_obs::Span::enter(&obs.recorder, "superopt", &function.name);
            span.arg("key", format!("{:032x}", canon.key));
            let mut rng =
                StdRng::seed_from_u64(opts.seed ^ (canon.key as u64) ^ (canon.key >> 64) as u64);
            let verifier = match Verifier::new(&canon.insns, opts.diff_states, &mut rng) {
                Ok(v) => v,
                Err(_) => continue,
            };
            if opts.inject_bogus {
                if let Some(failure) = inject_bogus(&canon, &verifier, &metrics) {
                    *injection_failure.lock().unwrap() = Some(failure);
                }
            }
            // A "match" is a searchable window — counted before the
            // cache lookup so stats cannot depend on which parallel
            // worker warmed a shared cache key first.
            fctx.stats.matched(1);
            let rewrite = match cache.load(canon.key) {
                Some(CachedResult::NoImprovement) => {
                    metrics.cache_hits.inc();
                    continue;
                }
                Some(CachedResult::Rewrite(cached)) => {
                    metrics.cache_hits.inc();
                    // Re-verify before applying: a cache entry is a
                    // hint, never an authority.
                    match verifier.verify(&cached) {
                        Ok(()) => Some(cached),
                        Err(_) => {
                            metrics.oracle_rejects.inc();
                            run_search(&canon, &verifier, &opts, &mut rng, &cache, &metrics)
                        }
                    }
                }
                None => {
                    metrics.cache_misses.inc();
                    metrics.searches.inc();
                    run_search(&canon, &verifier, &opts, &mut rng, &cache, &metrics)
                }
            };
            let Some(rewrite) = rewrite else { continue };
            let concrete = decanonicalize(&rewrite, &canon.binding);
            fctx.trace(1, || {
                TraceEvent::new(format!(
                    "SUPEROPT: {} insns -> {} in {}",
                    w.insns.len(),
                    concrete.len(),
                    function.name
                ))
                .field("window", w.insns.len())
                .field("rewrite", concrete.len())
            });
            apply_rewrite(&mut edits, &w, concrete);
            metrics.rewrites.inc();
            fctx.stats.transformed(1);
        }
        Ok(edits)
    })?;
    if let Some(failure) = injection_failure.into_inner().unwrap() {
        return Err(PassError::Other(format!(
            "SUPEROPT self-test: injected bogus rewrite was accepted: {failure}"
        )));
    }
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "SUPEROPT: {} windows, {} rewritten",
            stats.matches, stats.transformations
        ))
        .field("rewritten", stats.transformations)
    });
    Ok(stats)
}

/// Search one window and record the outcome in the cache.
fn run_search(
    canon: &CanonWindow,
    verifier: &Verifier,
    opts: &SuperoptOptions,
    rng: &mut StdRng,
    cache: &RewriteCache,
    metrics: &Counters,
) -> Option<Vec<Instruction>> {
    let mut counters = SearchCounters::default();
    let found = search(&canon.insns, verifier, &opts.search, rng, &mut counters);
    metrics.candidates.add(counters.candidates);
    metrics.diff_rejects.add(counters.diff_rejects);
    metrics.oracle_rejects.add(counters.oracle_rejects);
    match &found {
        Some(rewrite) => cache.store(canon.key, &CachedResult::Rewrite(rewrite.clone())),
        None => cache.store(canon.key, &CachedResult::NoImprovement),
    }
    found
}

/// Replace the window's entries with the rewrite.
fn apply_rewrite(edits: &mut EditSet, w: &Window, concrete: Vec<Instruction>) {
    let mut entries: Vec<Entry> = concrete
        .into_iter()
        .map(|i| Entry::Insn(i.into()))
        .collect();
    if entries.is_empty() {
        edits.delete(w.ids[0]);
    } else {
        edits.replace(w.ids[0], std::mem::take(&mut entries));
    }
    for id in &w.ids[1..] {
        edits.delete(*id);
    }
}

/// Deliberately wrong rewrite for the fault-injection self-test: the
/// window plus one extra bit-flipping `not` of its first register (always
/// changes an observable register), falling back to an off-by-one
/// immediate when the window touches no registers. Returns `Some(failure)`
/// if the verifier ACCEPTED the bogus rewrite — which callers escalate to
/// a hard pass error.
fn inject_bogus(canon: &CanonWindow, verifier: &Verifier, metrics: &Counters) -> Option<String> {
    let mut bogus = canon.insns.clone();
    if let Some(&reg) = canon.binding.first().map(|_| &canon::CANON_POOL[0]) {
        bogus.push(Instruction::with_width(
            mao_x86::Mnemonic::Not,
            Width::B8,
            vec![Operand::Reg(Reg::q(reg))],
        ));
    } else {
        // Window without registers: corrupt the first immediate instead.
        let mut tweaked = false;
        'outer: for insn in &mut bogus {
            for op in &mut insn.operands {
                if let Operand::Imm(v) = op {
                    *v = v.wrapping_add(1);
                    tweaked = true;
                    break 'outer;
                }
            }
        }
        if !tweaked {
            return None; // Nothing to corrupt; skip this window.
        }
    }
    match verifier.verify(&bogus) {
        Ok(()) => Some(format!("{} insn bogus candidate", bogus.len())),
        Err(reject) => {
            match reject {
                Reject::Diff(_) => metrics.diff_rejects.inc(),
                Reject::Oracle(_) => metrics.oracle_rejects.inc(),
                Reject::Unusable(_) => {}
            }
            metrics.injected_rejected.inc();
            None
        }
    }
}

/// The pass's obs counters, resolved once per invocation.
struct Counters {
    windows: mao_obs::Counter,
    searches: mao_obs::Counter,
    candidates: mao_obs::Counter,
    cache_hits: mao_obs::Counter,
    cache_misses: mao_obs::Counter,
    diff_rejects: mao_obs::Counter,
    oracle_rejects: mao_obs::Counter,
    rewrites: mao_obs::Counter,
    injected_rejected: mao_obs::Counter,
}

impl Counters {
    fn new(obs: &mao_obs::Obs) -> Counters {
        let m = &obs.metrics;
        Counters {
            windows: m.counter("mao_superopt_windows_total"),
            searches: m.counter("mao_superopt_searches_total"),
            candidates: m.counter("mao_superopt_candidates_total"),
            cache_hits: m.counter("mao_superopt_cache_hits_total"),
            cache_misses: m.counter("mao_superopt_cache_misses_total"),
            diff_rejects: m.counter("mao_superopt_diff_rejects_total"),
            oracle_rejects: m.counter("mao_superopt_oracle_rejects_total"),
            rewrites: m.counter("mao_superopt_rewrites_total"),
            injected_rejected: m.counter("mao_superopt_injected_rejected_total"),
        }
    }
}

/// A tiny unit with a known superoptimization win: the `mov %rax,%rbx;
/// mov %rbx,%rax` round-trip tail the CI smoke stage checks for, embedded
/// in a function with a little surrounding structure.
pub const SMOKE_ASM: &str = "\
\t.text
\t.globl\tsmoke
\t.type\tsmoke, @function
smoke:
\tmovq\t%rdi, %rax
\tmovq\t%rax, %rbx
\tmovq\t%rbx, %rax
\tret
\t.size\tsmoke, .-smoke
\t.globl\tfold
\t.type\tfold, @function
fold:
\tmovq\t%rdi, %rax
\taddq\t$1, %rax
\taddq\t$2, %rax
\tret
\t.size\tfold, .-fold
";

#[cfg(test)]
mod tests {
    use super::*;
    use mao::pass::parse_invocations;

    fn run_superopt(asm: &str, options: &str) -> (MaoUnit, PassStats, mao_obs::Obs) {
        register();
        let mut unit = MaoUnit::parse(asm).unwrap();
        let invs = parse_invocations(options).unwrap();
        let obs = mao_obs::Obs::aggregating();
        let config = mao::pass::PipelineConfig::default();
        let analyses = std::sync::Arc::new(mao::AnalysisCache::default());
        let report =
            mao::pass::run_pipeline_observed(&mut unit, &invs, None, &config, &analyses, &obs)
                .unwrap();
        let stats = report.stats(PASS_NAME).unwrap().clone();
        (unit, stats, obs)
    }

    #[test]
    fn smoke_tail_is_rewritten() {
        let (unit, stats, obs) = run_superopt(SMOKE_ASM, "SUPEROPT=seed[42]");
        assert!(stats.transformations >= 1, "{stats:?}");
        let text = unit.emit();
        // The round-trip tail collapses; the function still moves %rdi
        // into both %rax and %rbx.
        assert!(
            text.matches("movq").count() < SMOKE_ASM.matches("movq").count(),
            "{text}"
        );
        assert!(obs.metrics.counter_value("mao_superopt_rewrites_total") >= 1);
        assert_eq!(
            obs.metrics.counter_value("mao_superopt_windows_total") > 0,
            true
        );
    }

    #[test]
    fn deterministic_output_across_jobs() {
        register();
        let run = |jobs: usize| {
            let mut unit = MaoUnit::parse(SMOKE_ASM).unwrap();
            let invs = parse_invocations("SUPEROPT=seed[42]").unwrap();
            let config = mao::pass::PipelineConfig { jobs };
            let analyses = std::sync::Arc::new(mao::AnalysisCache::default());
            let obs = mao_obs::Obs::off();
            mao::pass::run_pipeline_observed(&mut unit, &invs, None, &config, &analyses, &obs)
                .unwrap();
            unit.emit()
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(8));
    }

    #[test]
    fn injected_bogus_rewrite_is_rejected() {
        let (unit, _, obs) = run_superopt(SMOKE_ASM, "SUPEROPT=seed[42],inject-bogus-rewrite");
        assert!(
            obs.metrics
                .counter_value("mao_superopt_injected_rejected_total")
                >= 1
        );
        // Output identical to the non-injected run: the bogus candidate
        // never reaches the edit stream.
        let (clean, _, _) = run_superopt(SMOKE_ASM, "SUPEROPT=seed[42]");
        assert_eq!(unit.emit(), clean.emit());
    }

    #[test]
    fn warm_cache_applies_without_searching() {
        register();
        let dir = std::env::temp_dir().join(format!("mao-superopt-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opt = format!("SUPEROPT=seed[42],cache-dir[{}]", dir.display());
        let (cold_unit, _, cold_obs) = run_superopt(SMOKE_ASM, &opt);
        let (warm_unit, _, warm_obs) = run_superopt(SMOKE_ASM, &opt);
        assert_eq!(cold_unit.emit(), warm_unit.emit(), "byte-identical output");
        assert!(
            cold_obs
                .metrics
                .counter_value("mao_superopt_searches_total")
                > 0
        );
        assert_eq!(
            warm_obs
                .metrics
                .counter_value("mao_superopt_searches_total"),
            0,
            "warm run answers every window from the cache"
        );
        assert!(
            warm_obs
                .metrics
                .counter_value("mao_superopt_cache_hits_total")
                > 0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_window_options_are_refused_before_running() {
        register();
        for (spec, key) in [
            ("SUPEROPT=min-window[0]", "min-window"),
            ("SUPEROPT=max-window[33]", "max-window"),
            ("SUPEROPT=inject-bogus-rewrite[1]", "inject-bogus-rewrite"),
        ] {
            let invs = parse_invocations(spec).unwrap();
            match mao::pass::resolve(&invs) {
                Err(PassError::BadOptions(m)) => {
                    assert!(m.contains(PASS_NAME) && m.contains(key), "{spec}: {m}")
                }
                other => panic!("{spec}: expected BadOptions, got {other:?}"),
            }
        }
        // Bounds that are each in range but not a range still fail in the
        // pass.
        let mut unit = MaoUnit::parse(SMOKE_ASM).unwrap();
        let invs = parse_invocations("SUPEROPT=min-window[6],max-window[4]").unwrap();
        let err = mao::pass::run_pipeline(&mut unit, &invs, None).unwrap_err();
        assert!(matches!(err, PassError::BadOptions(_)), "{err:?}");
    }

    #[test]
    fn preserves_program_semantics() {
        let (unit, _, _) = run_superopt(SMOKE_ASM, "SUPEROPT=seed[7]");
        let text = unit.emit();
        for (entry, arg, want) in [("smoke", 5u64, 5u64), ("fold", 10, 13)] {
            let orig = mao_sim::oracle::observe(SMOKE_ASM, entry, &[arg], 1000).unwrap();
            let opt = mao_sim::oracle::observe(&text, entry, &[arg], 1000).unwrap();
            assert_eq!(orig.result.as_ref().unwrap().0, want);
            assert_eq!(mao_sim::oracle::compare(&orig, &opt), None);
        }
    }
}
