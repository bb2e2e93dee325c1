//! The execution-path matrix: every way this repo can run a pipeline over
//! a unit must produce the same bytes.
//!
//! Shipped paths:
//!
//! * **oneshot** — `run_pipeline_with` at `--jobs 1`, exactly what the
//!   `mao` driver does;
//! * **jobs N** — the parallel function-level driver (PR 1 promises
//!   byte-identical output at any `N`);
//! * **engine** — the `maod` engine, twice: a cold request (cache miss)
//!   and an identical warm repeat that must be served from the
//!   content-addressed cache with identical bytes;
//! * **snapshot** — parse, round-trip the unit through the binary IR
//!   snapshot codec (encode → decode → rebuild), then run the pipeline
//!   over the reloaded unit (the snapshot tier promises the reloaded IR
//!   is indistinguishable from freshly parsed IR);
//! * **memo** — the engine's function-result memo: the unit with one
//!   function's instruction changed goes through the engine twice (the
//!   second sighting stores its functions), then the unit itself, so every
//!   other function is spliced in from the memo (the memo promises output
//!   identical to a memo-less run).

use mao::isa::IsaId;
use mao::pass::{parse_invocations, run_pipeline_with, PipelineConfig};
use mao::MaoUnit;
use mao_serve::protocol::{OptimizeRequest, Request, Response};
use mao_serve::{CacheOutcome, Engine, EngineConfig};

/// One way of running a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The one-shot driver (`--jobs 1`).
    OneShot,
    /// The parallel function-level driver at this many jobs.
    Jobs(usize),
    /// The `maod` engine: cold request, then a warm cache-hit repeat.
    Engine,
    /// Binary IR snapshot round-trip before the pipeline.
    Snapshot,
    /// The engine with its function-result memo primed by a one-function
    /// edit of the unit.
    Memo,
}

impl ExecPath {
    /// Display name (also the `path:` key in persisted regressions).
    pub fn name(self) -> String {
        match self {
            ExecPath::OneShot => "oneshot".to_string(),
            ExecPath::Jobs(n) => format!("jobs{n}"),
            ExecPath::Engine => "engine".to_string(),
            ExecPath::Snapshot => "snapshot".to_string(),
            ExecPath::Memo => "memo".to_string(),
        }
    }

    /// Parse a `name()` spelling back (for regression replay).
    pub fn parse(s: &str) -> Option<ExecPath> {
        match s {
            "oneshot" => Some(ExecPath::OneShot),
            "engine" => Some(ExecPath::Engine),
            "snapshot" => Some(ExecPath::Snapshot),
            "memo" => Some(ExecPath::Memo),
            _ => s
                .strip_prefix("jobs")
                .and_then(|n| n.parse().ok())
                .map(ExecPath::Jobs),
        }
    }
}

/// Runs pipelines through every [`ExecPath`]. Holds one resident engine so
/// the warm-cache path is genuinely warm across a sweep.
pub struct PathRunner {
    engine: Engine,
    /// Worker count for the [`ExecPath::Jobs`] path.
    pub jobs: usize,
}

impl PathRunner {
    /// Runner with a private engine (2 workers is plenty for checking).
    pub fn new(jobs: usize) -> PathRunner {
        // Every execution path resolves passes through the registry, so the
        // extension pass must be in before any sweep parses its config.
        mao_superopt::register();
        let config = EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        };
        PathRunner {
            engine: Engine::new(config),
            jobs: jobs.max(2),
        }
    }

    /// The full path matrix for one sweep.
    pub fn all(&self) -> Vec<ExecPath> {
        vec![
            ExecPath::OneShot,
            ExecPath::Jobs(self.jobs),
            ExecPath::Engine,
            ExecPath::Snapshot,
            ExecPath::Memo,
        ]
    }

    /// Run `passes` over `asm` through `path`, returning the emitted text
    /// (x86-64, the historical default).
    pub fn optimize(&self, path: ExecPath, asm: &str, passes: &str) -> Result<String, String> {
        self.optimize_isa(path, asm, passes, IsaId::X86_64)
    }

    /// Run `passes` over `asm` through `path` for the given ISA. Every
    /// execution path threads the ISA the same way the shipped drivers
    /// do: parser dialect, cache keys, pass gating.
    pub fn optimize_isa(
        &self,
        path: ExecPath,
        asm: &str,
        passes: &str,
        isa: IsaId,
    ) -> Result<String, String> {
        match path {
            ExecPath::OneShot => run_local(asm, passes, 1, isa),
            ExecPath::Jobs(n) => run_local(asm, passes, n, isa),
            ExecPath::Engine => self.run_engine(asm, passes, isa),
            ExecPath::Snapshot => run_snapshot(asm, passes, isa),
            ExecPath::Memo => self.run_memo(asm, passes, isa),
        }
    }

    /// Cold request then an identical warm repeat: the warm answer must be
    /// a cache hit with the same bytes.
    fn run_engine(&self, asm: &str, passes: &str, isa: IsaId) -> Result<String, String> {
        let request = |use_cache: bool| {
            Request::Optimize(OptimizeRequest {
                asm: asm.to_string(),
                passes: passes.to_string(),
                jobs: None,
                timeout_ms: None,
                use_cache,
                isa,
            })
        };
        let cold = match self.engine.handle(request(true)) {
            Response::Optimized { outcome, .. } => outcome.asm,
            Response::Error { kind, message } => {
                return Err(format!("engine cold request failed [{kind:?}]: {message}"))
            }
            other => return Err(format!("engine cold request: unexpected {other:?}")),
        };
        match self.engine.handle(request(true)) {
            Response::Optimized { outcome, cache, .. } => {
                if cache != CacheOutcome::Hit {
                    return Err(format!(
                        "engine warm repeat was not a cache hit (got {cache:?})"
                    ));
                }
                if outcome.asm != cold {
                    return Err("engine warm repeat returned different bytes".to_string());
                }
                Ok(cold)
            }
            Response::Error { kind, message } => {
                Err(format!("engine warm request failed [{kind:?}]: {message}"))
            }
            other => Err(format!("engine warm request: unexpected {other:?}")),
        }
    }
}

impl PathRunner {
    /// Function-memo hits the runner's engine has served so far.
    pub fn memo_hits(&self) -> u64 {
        self.engine.snapshot().function_memo.hits
    }

    /// Prime the engine's function memo with a one-function edit of the
    /// unit, then run the unit: every other function is a memo hit. The
    /// result cache is bypassed throughout so the pipeline really runs.
    fn run_memo(&self, asm: &str, passes: &str, isa: IsaId) -> Result<String, String> {
        let request = |asm: String| {
            Request::Optimize(OptimizeRequest {
                asm,
                passes: passes.to_string(),
                jobs: None,
                timeout_ms: None,
                use_cache: false,
                isa,
            })
        };
        if let Some(variant) = with_one_function_changed(asm, isa) {
            // Priming is best effort: a variant the pipeline rejects
            // stores nothing, and the run below still has to match.
            for _ in 0..2 {
                let _ = self.engine.handle(request(variant.clone()));
            }
        }
        match self.engine.handle(request(asm.to_string())) {
            Response::Optimized { outcome, .. } => Ok(outcome.asm),
            Response::Error { kind, message } => {
                Err(format!("memo request failed [{kind:?}]: {message}"))
            }
            other => Err(format!("memo request: unexpected {other:?}")),
        }
    }
}

/// The unit with the first instruction of its last function that has one
/// duplicated in place; `None` when no function has an instruction.
fn with_one_function_changed(asm: &str, isa: IsaId) -> Option<String> {
    let mut unit = MaoUnit::parse_isa(asm, isa).ok()?;
    let id = unit
        .functions_cached()
        .iter()
        .rev()
        .find_map(|f| f.entry_ids().find(|&id| unit.insn_any(id).is_some()))?;
    let mut edits = mao::EditSet::new();
    edits.insert_after(id, vec![unit.entry(id).clone()]);
    unit.apply(edits);
    Some(unit.emit())
}

/// Parse + pipeline + emit with the given job count.
fn run_local(asm: &str, passes: &str, jobs: usize, isa: IsaId) -> Result<String, String> {
    let mut unit = MaoUnit::parse_isa(asm, isa).map_err(|e| format!("parse: {e}"))?;
    let invs = parse_invocations(passes).map_err(|e| format!("passes: {e}"))?;
    let config = PipelineConfig { jobs };
    run_pipeline_with(&mut unit, &invs, None, &config).map_err(|e| format!("pipeline: {e}"))?;
    Ok(unit.emit())
}

/// Parse, round-trip the IR through the binary snapshot codec, rebuild the
/// unit from the decoded entries, then run the pipeline (`--jobs 1`).
fn run_snapshot(asm: &str, passes: &str, isa: IsaId) -> Result<String, String> {
    let parsed = mao_asm::parse_isa(asm, isa).map_err(|e| format!("parse: {e}"))?;
    let key = mao_asm::snapshot::content_key(asm);
    let bytes = mao_asm::snapshot::encode(&parsed, key);
    let entries =
        mao_asm::snapshot::decode(&bytes, Some(key)).map_err(|e| format!("snapshot: {e}"))?;
    if entries != parsed {
        return Err("snapshot round-trip changed the entry list".to_string());
    }
    let mut unit = MaoUnit::from_entries_isa(entries, isa);
    let invs = parse_invocations(passes).map_err(|e| format!("passes: {e}"))?;
    let config = PipelineConfig { jobs: 1 };
    run_pipeline_with(&mut unit, &invs, None, &config).map_err(|e| format!("pipeline: {e}"))?;
    Ok(unit.emit())
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

    #[test]
    fn memo_path_hits_and_matches_oneshot() {
        let runner = PathRunner::new(2);
        let asm = format!("{INPUT}\t.type\tg, @function\ng:\n\taddl $1, %eax\n\tret\n");
        let memo = runner
            .optimize(ExecPath::Memo, &asm, "REDTEST:ADDADD:DCE")
            .unwrap();
        let oneshot = runner
            .optimize(ExecPath::OneShot, &asm, "REDTEST:ADDADD:DCE")
            .unwrap();
        assert_eq!(memo, oneshot);
        assert_eq!(runner.memo_hits(), 1, "f is spliced in; the edited g runs");
        assert_eq!(ExecPath::parse("memo"), Some(ExecPath::Memo));
    }

    #[test]
    fn all_paths_agree_on_bytes() {
        let runner = PathRunner::new(4);
        let texts: Vec<String> = runner
            .all()
            .into_iter()
            .map(|p| runner.optimize(p, INPUT, "REDTEST:ADDADD:DCE").unwrap())
            .collect();
        for t in &texts[1..] {
            assert_eq!(t, &texts[0]);
        }
        assert!(!texts[0].contains("testl"), "REDTEST fired");
    }

    #[test]
    fn all_paths_agree_on_aarch64_bytes() {
        let runner = PathRunner::new(4);
        let input = "\t.type\tf, @function\nf:\n\tnop\n\tmov\tx1, x0\n\tadd\tx0, x1, #1\n\tret\n";
        let texts: Vec<String> = runner
            .all()
            .into_iter()
            .map(|p| {
                runner
                    .optimize_isa(p, input, "NOPKILL:DCE", IsaId::Aarch64)
                    .unwrap()
            })
            .collect();
        for t in &texts[1..] {
            assert_eq!(t, &texts[0]);
        }
        assert!(!texts[0].contains("\tnop"), "NOPKILL fired: {}", texts[0]);
    }

    #[test]
    fn path_names_round_trip() {
        let runner = PathRunner::new(3);
        for path in runner.all() {
            assert_eq!(ExecPath::parse(&path.name()), Some(path));
        }
    }

    #[test]
    fn engine_warm_path_is_a_cache_hit() {
        let runner = PathRunner::new(2);
        // First call performs cold+warm internally; a second optimize call
        // must still succeed (now both requests hit).
        let a = runner.optimize(ExecPath::Engine, INPUT, "REDTEST").unwrap();
        let b = runner.optimize(ExecPath::Engine, INPUT, "REDTEST").unwrap();
        assert_eq!(a, b);
    }
}
