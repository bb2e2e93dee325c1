//! The pass manager: registration, options, ordering, tracing.
//!
//! Mirrors the paper's §III.A machinery in idiomatic Rust:
//!
//! * a pass is one [`PassDescriptor`] — name, description, scope, ISAs,
//!   option schema and a `run` fn — in one process-wide registry
//!   (`REGISTER_FUNC_PASS("MAOPASS", MaoPass)` and `MAO_OPTIONS_DEFINE` →
//!   a row of [`crate::passes::BUILTINS`], or [`register_extension`]);
//! * invocation and ordering are controlled by a command-line option string
//!   (`--mao=LFIND=trace[0]:ASM=o[/dev/null]` → [`parse_invocations`]),
//!   checked against the registry by [`resolve`] before any pass runs;
//! * every pass gets a tracing facility and its options ([`PassOptions`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};

use mao_obs::{Obs, TraceEvent};

use crate::analysis_cache::{AnalysisCache, CacheStats};
use crate::function_memo::{FnPassRecord, MemoPass, MemoRun};
use crate::isa::IsaId;
use crate::profile::Profile;
use crate::unit::{EditSet, Function, MaoUnit};

/// Error produced by a pass or by the pipeline driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// Named pass not found in the registry.
    UnknownPass(String),
    /// The pass does not support the unit's instruction set. Requesting an
    /// x86-only pass (SUPEROPT, SCHED, LOOP16, ...) on an AArch64 unit is a
    /// structured pipeline error, never a panic.
    UnsupportedIsa {
        /// Registry name of the pass.
        pass: String,
        /// The unit's ISA, which the pass does not declare support for.
        isa: IsaId,
    },
    /// Malformed `--mao=` option string, or an option the pass's schema
    /// refuses (the message names the pass and the key).
    BadOptions(String),
    /// Relaxation failed inside a pass.
    Relax(String),
    /// Any other pass-specific failure.
    Other(String),
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::UnknownPass(p) => write!(f, "unknown pass `{p}`"),
            PassError::UnsupportedIsa { pass, isa } => {
                write!(f, "pass `{pass}` does not support ISA `{isa}`")
            }
            PassError::BadOptions(m) => write!(f, "bad --mao options: {m}"),
            PassError::Relax(m) => write!(f, "relaxation failed: {m}"),
            PassError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PassError {}

impl From<crate::relax::RelaxError> for PassError {
    fn from(e: crate::relax::RelaxError) -> PassError {
        PassError::Relax(e.to_string())
    }
}

/// Pass-specific options, parsed from `NAME=opt[value],opt2[value2]`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PassOptions {
    map: BTreeMap<String, String>,
}

impl PassOptions {
    /// Empty options.
    pub fn new() -> PassOptions {
        PassOptions::default()
    }

    /// Set an option (builder style).
    pub fn with(mut self, key: &str, value: &str) -> PassOptions {
        self.map.insert(key.to_string(), value.to_string());
        self
    }

    /// Set an option.
    pub fn set(&mut self, key: &str, value: &str) {
        self.map.insert(key.to_string(), value.to_string());
    }

    /// Raw option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Option present at all (with or without a value)?
    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// Integer option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Float option with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Statistics returned by one pass invocation (feeds the Fig. 7 table).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Number of code transformations performed.
    pub transformations: usize,
    /// Number of opportunities examined (pattern matches found, whether or
    /// not transformed) — lets analysis-only runs report counts.
    pub matches: usize,
    /// Free-form notes (one per interesting event).
    pub notes: Vec<String>,
}

impl PassStats {
    /// Record a transformation.
    pub fn transformed(&mut self, n: usize) {
        self.transformations += n;
    }

    /// Record an examined opportunity.
    pub fn matched(&mut self, n: usize) {
        self.matches += n;
    }
}

/// Context handed to every pass: options, structured tracing, telemetry,
/// optional profile data.
#[derive(Debug, Default)]
pub struct PassContext {
    /// Options for this invocation.
    pub options: PassOptions,
    /// Trace verbosity (0 = silent); the `trace[N]` option sets it.
    pub trace_level: u8,
    /// Registry name of the running pass; the pipeline fills it and
    /// [`PassContext::trace`] stamps it onto events whose scope is empty.
    pub pass: String,
    /// Captured structured trace events, in emission order. The legacy
    /// one-line stderr format is [`TraceEvent::legacy_line`]; see
    /// [`PassContext::rendered_trace`].
    pub events: Vec<TraceEvent>,
    /// Echo each kept event to stderr (legacy rendering) as it is emitted.
    pub echo_stderr: bool,
    /// Hardware-counter / reuse-distance profile, when provided.
    pub profile: Option<Profile>,
    /// Worker threads for the function-level driver (1 = sequential; the
    /// pipeline sets this from [`PipelineConfig::jobs`]).
    pub jobs: usize,
    /// The analysis counters and function memo shared across the passes
    /// of one pipeline run and across worker threads.
    pub analyses: Arc<AnalysisCache>,
    /// Telemetry sinks (span recorder + metrics registry); defaults to a
    /// disabled recorder and a private registry, both effectively free.
    pub obs: Obs,
    /// The function-result memo's view of this pass, when it runs inside a
    /// memoized prefix: which functions to skip, and where to keep what
    /// the others produced.
    pub(crate) memo: Option<MemoPass>,
}

impl PassContext {
    /// Build a context from options (reads `trace[N]`).
    pub fn from_options(options: PassOptions) -> PassContext {
        let trace_level = options.get_u64("trace", 0) as u8;
        PassContext {
            options,
            trace_level,
            ..PassContext::default()
        }
    }

    /// Emit a trace event at `level`. The closure is invoked only when
    /// `level <= trace_level`, so disabled tracing formats nothing — pass
    /// `|| TraceEvent::new(format!(...))`, optionally with `.field(...)`
    /// attachments, and the `format!` never runs when filtered out.
    pub fn trace(&mut self, level: u8, event: impl FnOnce() -> TraceEvent) {
        if level <= self.trace_level {
            let mut ev = event();
            ev.level = level;
            self.push_event(ev);
        }
    }

    /// Record an already-built event (level check already done).
    fn push_event(&mut self, mut ev: TraceEvent) {
        if ev.scope.is_empty() {
            ev.scope = self.pass.clone();
        }
        if self.echo_stderr {
            eprintln!("[mao] {}", ev.legacy_line());
        }
        self.events.push(ev);
    }

    /// The captured events rendered in the legacy one-line-per-event form
    /// (what the driver prints as `[mao] <line>`).
    pub fn rendered_trace(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|ev| ev.legacy_line().to_string())
            .collect()
    }
}

/// Whether a pass's result for a function depends on that function alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PassScope {
    /// The pass reads or edits the unit as a whole (layout, cross-function
    /// order, a shared random stream). The default.
    #[default]
    Unit,
    /// The pass does all its work through one [`run_functions`] call whose
    /// body derives each function's edits, stats and trace from that
    /// function, the entries outside every function span, its options and
    /// the cost model alone. Such passes form the memoizable prefix of a
    /// pipeline (see [`crate::function_memo`]).
    Function,
}

/// What a pass option accepts, checked by [`resolve`] before any pass runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptionKind {
    /// Present or absent; takes no value (`count-only`, never `count-only[0]`).
    Flag,
    /// An unsigned integer in `min..=max`, as `U64(min, max)`.
    U64(u64, u64),
    /// A finite number in `min..=max`, as `F64(min, max)`.
    F64(f64, f64),
    /// Any text (a function name, a path).
    Str,
    /// One of a fixed set of spellings.
    Enum(&'static [&'static str]),
}

/// One pass option: its key and what it accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptionSpec {
    /// The key as written in `NAME=key[value]`.
    pub key: &'static str,
    /// What the value must be.
    pub kind: OptionKind,
}

impl OptionSpec {
    /// A flag (no value).
    pub const fn flag(key: &'static str) -> OptionSpec {
        OptionSpec {
            key,
            kind: OptionKind::Flag,
        }
    }

    /// An unsigned integer in `min..=max`.
    pub const fn u64(key: &'static str, min: u64, max: u64) -> OptionSpec {
        OptionSpec {
            key,
            kind: OptionKind::U64(min, max),
        }
    }

    /// A finite number in `min..=max`.
    pub const fn f64(key: &'static str, min: f64, max: f64) -> OptionSpec {
        OptionSpec {
            key,
            kind: OptionKind::F64(min, max),
        }
    }

    /// Free text.
    pub const fn text(key: &'static str) -> OptionSpec {
        OptionSpec {
            key,
            kind: OptionKind::Str,
        }
    }

    /// One of `spellings`.
    pub const fn one_of(key: &'static str, spellings: &'static [&'static str]) -> OptionSpec {
        OptionSpec {
            key,
            kind: OptionKind::Enum(spellings),
        }
    }

    /// `value` in the one spelling of what it means — a number as its
    /// parsed value (`03` and `+3` are `3`, `1e0` is `1.0`), text as
    /// written, `None` for a flag — or why it is not acceptable.
    fn check(&self, value: &str) -> Result<Option<String>, String> {
        let canonical = match self.kind {
            OptionKind::Flag => value.is_empty().then_some(None),
            OptionKind::U64(min, max) => (value.parse::<u64>().ok())
                .filter(|v| (min..=max).contains(v))
                .map(|v| Some(v.to_string())),
            OptionKind::F64(min, max) => (value.parse::<f64>().ok())
                .filter(|v| v.is_finite() && (min..=max).contains(v))
                .map(|v| Some(format!("{v:?}"))),
            OptionKind::Str => Some(Some(value.to_string())),
            OptionKind::Enum(spellings) => {
                spellings.contains(&value).then(|| Some(value.to_string()))
            }
        };
        canonical.ok_or_else(|| format!("option `{}` ({}) rejects `{value}`", self.key, self.kind))
    }
}

impl fmt::Display for OptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionKind::Flag => write!(f, "flag, no value"),
            OptionKind::U64(0, u64::MAX) => write!(f, "u64"),
            OptionKind::U64(min, max) => write!(f, "u64 in {min}..={max}"),
            OptionKind::F64(min, max) => write!(f, "f64 in {min}..={max}"),
            OptionKind::Str => write!(f, "text"),
            OptionKind::Enum(spellings) => write!(f, "one of {}", spellings.join("|")),
        }
    }
}

/// Options every pass accepts: the trace level and the IR dumps of §III.A
/// ("dumping the current state of the IR before or after a given pass").
pub const COMMON_OPTIONS: &[OptionSpec] = &[
    OptionSpec::u64("trace", 0, u8::MAX as u64),
    OptionSpec::flag("dump-before"),
    OptionSpec::flag("dump-after"),
];

/// Everything the pass manager knows about one pass: the paper's
/// `REGISTER_FUNC_PASS` plus `MAO_OPTIONS_DEFINE` in one row.
#[derive(Debug, Clone, Copy)]
pub struct PassDescriptor {
    /// Registry name (`REDTEST`, `LOOP16`, ...).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Whether the pass's result for a function depends on that function
    /// alone; only a pass that works entirely through one [`run_functions`]
    /// call may declare [`PassScope::Function`].
    pub scope: PassScope,
    /// The instruction sets the pass runs on; the pipeline refuses any
    /// other with [`PassError::UnsupportedIsa`]. A pass that matches x86
    /// mnemonics or operand shapes lists only [`IsaId::X86_64`]; passes
    /// expressed purely in entries, labels, layout and the neutral
    /// [`crate::isa::Insn`] surface list [`IsaId::ALL`].
    pub isas: &'static [IsaId],
    /// The pass's own options; [`COMMON_OPTIONS`] are accepted as well.
    pub options: &'static [OptionSpec],
    /// Run over the unit, mutating it in place (the paper's `Go()`).
    pub run: fn(&mut MaoUnit, &mut PassContext) -> Result<PassStats, PassError>,
}

impl PassDescriptor {
    /// Check `options` against this pass's schema and [`COMMON_OPTIONS`].
    fn check(&self, options: &PassOptions) -> Result<(), PassError> {
        check_options(
            self.name,
            self.options.iter().chain(COMMON_OPTIONS),
            options,
        )
    }
}

/// Check `options` against `specs`: an unknown key, a malformed value or an
/// out-of-range value is [`PassError::BadOptions`] naming `pass` and the
/// key. [`resolve`] checks registered passes through this; a driver's
/// pseudo-passes (the CLI's `ASM` and `READ`) check their own schemas.
pub fn check_options<'a>(
    pass: &str,
    specs: impl Iterator<Item = &'a OptionSpec> + Clone,
    options: &PassOptions,
) -> Result<(), PassError> {
    for (key, value) in &options.map {
        let verdict = match specs.clone().find(|spec| spec.key == key) {
            Some(spec) => spec.check(value),
            None => {
                let known: Vec<&str> = specs.clone().map(|spec| spec.key).collect();
                let known = if known.is_empty() {
                    "none".to_string()
                } else {
                    known.join(", ")
                };
                Err(format!("unknown option `{key}` (accepted: {known})"))
            }
        };
        verdict.map_err(|m| PassError::BadOptions(format!("{pass}: {m}")))?;
    }
    Ok(())
}

/// Run `body` for every function of the unit, applying each function's
/// edits before moving to the next (entry ids shift after edits, so later
/// functions see post-edit numbering).
///
/// Uses the unit's incremental index: only the current function is cloned
/// per step, and interior edits patch the index in place instead of forcing
/// an O(entries) rebuild — the driver is O(F · edit) instead of O(F²).
/// A `debug_assert` inside [`MaoUnit::apply`] cross-checks every patched
/// index against a full rebuild in test builds.
pub fn for_each_function(
    unit: &mut MaoUnit,
    mut body: impl FnMut(&MaoUnit, &Function) -> Result<EditSet, PassError>,
) -> Result<(), PassError> {
    let mut k = 0;
    loop {
        let Some(function) = unit.functions_cached().get(k).cloned() else {
            return Ok(());
        };
        let edits = body(unit, &function)?;
        if !edits.is_empty() {
            unit.apply(edits);
        }
        k += 1;
    }
}

/// Per-function context handed to [`run_functions`] bodies.
///
/// Collects stats and trace output locally so function bodies can run on
/// worker threads; the driver folds everything back into the pass's
/// [`PassContext`] in function order, keeping output deterministic.
pub struct FnCtx<'a> {
    /// Options of the enclosing pass invocation.
    pub options: &'a PassOptions,
    /// Profile data, when the pipeline carries any.
    pub profile: Option<&'a Profile>,
    /// The pipeline's analysis counters; the analyses (CFG, loops,
    /// dataflow per function) live in the unit.
    pub analyses: &'a AnalysisCache,
    /// Stats for this function; summed across functions by the driver.
    pub stats: PassStats,
    trace_level: u8,
    trace: Vec<TraceEvent>,
}

impl FnCtx<'_> {
    /// Buffer a trace event at `level` (the closure runs only when
    /// `level <= trace_level`); replayed into the pass context in function
    /// order after the run, keeping output deterministic.
    pub fn trace(&mut self, level: u8, event: impl FnOnce() -> TraceEvent) {
        if level <= self.trace_level {
            let mut ev = event();
            ev.level = level;
            self.trace.push(ev);
        }
    }

    /// The function's CFG, from its slot in the unit.
    pub fn cfg(&self, unit: &MaoUnit, f: &Function) -> Arc<crate::cfg::Cfg> {
        self.analyses.for_function(unit, f).cfg(unit, f)
    }

    /// The function's loop nest, from its slot in the unit.
    pub fn loops(&self, unit: &MaoUnit, f: &Function) -> Arc<crate::loops::LoopNest> {
        self.analyses.for_function(unit, f).loops(unit, f)
    }

    /// The function's liveness tables, from its slot in the unit.
    pub fn liveness(&self, unit: &MaoUnit, f: &Function) -> Arc<crate::dataflow::Liveness> {
        self.analyses.for_function(unit, f).liveness(unit, f)
    }

    /// The function's reaching definitions, from its slot in the unit.
    pub fn reaching(&self, unit: &MaoUnit, f: &Function) -> Arc<crate::dataflow::ReachingDefs> {
        self.analyses.for_function(unit, f).reaching(unit, f)
    }
}

/// What one function's body run produced.
struct FnOutcome {
    edits: EditSet,
    stats: PassStats,
    trace: Vec<TraceEvent>,
}

/// Run `body` over every function against the *immutable* unit, then apply
/// the per-function edit lists in function order by one sweep
/// ([`MaoUnit::apply`]'s), with no merged copy.
///
/// With `ctx.jobs <= 1` the functions run sequentially on the calling
/// thread; otherwise they are distributed over `ctx.jobs` scoped worker
/// threads. Both paths perform the identical computation — every body
/// invocation sees the same pre-edit unit — so the resulting assembly is
/// byte-identical regardless of the job count. This requires `body` to be
/// function-local: it must only derive edits from the function it is given
/// (plus read-only context like jump tables), and its edits must touch only
/// that function's spans (a debug assertion checks the latter). Passes with
/// cross-function ordering dependencies (a shared RNG stream, unit-global
/// layout) must use [`for_each_function`] instead.
///
/// Inside a memoized prefix (see [`crate::function_memo`]) the functions
/// the memo answered are skipped: their bodies were already spliced in,
/// and their stored stats and trace are folded in at their place in
/// function order.
///
/// On error, the first failing function in function order wins and no edits
/// are applied. Returns the summed stats; trace lines are replayed into
/// `ctx` in function order.
pub fn run_functions<F>(
    unit: &mut MaoUnit,
    ctx: &mut PassContext,
    body: F,
) -> Result<PassStats, PassError>
where
    F: Fn(&MaoUnit, &Function, &mut FnCtx) -> Result<EditSet, PassError> + Sync,
{
    let jobs = ctx.jobs.max(1);
    let functions: Vec<Function> = unit.functions_cached().to_vec();
    let n = functions.len();
    let mut memo = ctx.memo.take();
    if let Some(memo) = &memo {
        assert_eq!(
            memo.functions(),
            n,
            "a function-scope pass changed the function list"
        );
    }
    // Functions that run; the memo answered for the rest.
    let work: Vec<usize> = (0..n)
        .filter(|&k| memo.as_ref().is_none_or(|m| m.replay(k).is_none()))
        .collect();
    let options = &ctx.options;
    let profile = ctx.profile.as_ref();
    let analyses: &AnalysisCache = &ctx.analyses;
    let trace_level = ctx.trace_level;
    let recorder = ctx.obs.recorder.clone();
    let run_one = |unit: &MaoUnit, function: &Function| -> Result<FnOutcome, PassError> {
        let mut span = mao_obs::Span::enter(&recorder, "function", &function.name);
        let mut fctx = FnCtx {
            options,
            profile,
            analyses,
            stats: PassStats::default(),
            trace_level,
            trace: Vec::new(),
        };
        let edits = body(unit, function, &mut fctx)?;
        span.counter("transformations", fctx.stats.transformations as u64);
        Ok(FnOutcome {
            edits,
            stats: fctx.stats,
            trace: fctx.trace,
        })
    };

    let mut outcomes: Vec<Option<Result<FnOutcome, PassError>>> = (0..n).map(|_| None).collect();
    let shared: &MaoUnit = unit;
    if jobs <= 1 || work.len() <= 1 {
        for &k in &work {
            outcomes[k] = Some(run_one(shared, &functions[k]));
        }
    } else {
        let slots: Vec<Mutex<Option<Result<FnOutcome, PassError>>>> =
            work.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(work.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= work.len() {
                        break;
                    }
                    let outcome = run_one(shared, &functions[work[i]]);
                    *slots[i].lock().unwrap() = Some(outcome);
                });
            }
        });
        for (&k, slot) in work.iter().zip(slots) {
            outcomes[k] = slot.into_inner().unwrap();
        }
    }

    // Fold in function order: deterministic stats, trace, and edits.
    let mut total = PassStats::default();
    let mut sets: Vec<EditSet> = Vec::new();
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let Some(outcome) = outcome else {
            let record = memo
                .as_ref()
                .and_then(|m| m.replay(k))
                .expect("a skipped function has a stored record");
            total.transformations += record.stats.transformations;
            total.matches += record.stats.matches;
            total.notes.extend(record.stats.notes.iter().cloned());
            for ev in &record.trace {
                ctx.push_event(ev.clone());
            }
            continue;
        };
        let mut outcome = outcome?;
        outcome.edits.sort();
        debug_assert!(
            outcome.edits.groups().all(|g| functions[k].contains(g.id)
                && g.permutes()
                    .all(|p| p.slots().all(|id| functions[k].contains(id)))),
            "pass `{}` edited entries outside function `{}`",
            ctx.pass,
            functions[k].name
        );
        if let Some(memo) = &mut memo {
            memo.record(
                k,
                FnPassRecord {
                    stats: outcome.stats.clone(),
                    trace: outcome.trace.clone(),
                },
            );
        }
        total.transformations += outcome.stats.transformations;
        total.matches += outcome.stats.matches;
        total.notes.extend(outcome.stats.notes);
        for ev in outcome.trace {
            ctx.push_event(ev);
        }
        if !outcome.edits.is_empty() {
            sets.push(outcome.edits);
        }
    }
    ctx.obs
        .metrics
        .counter("mao_functions_processed_total")
        .add(work.len() as u64);
    // Analyses of functions whose control flow the edits leave alone
    // survive them: kept as they are, or re-based onto new positions.
    unit.apply_lists(&mut sets, true);
    if let Some(mut memo) = memo {
        memo.called();
        ctx.memo = Some(memo);
    }
    Ok(total)
}

/// The process-wide pass registry: the built-in table
/// ([`crate::passes::BUILTINS`]) plus every [`register_extension`] pass.
fn registered() -> &'static RwLock<BTreeMap<&'static str, PassDescriptor>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<&'static str, PassDescriptor>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        RwLock::new(
            crate::passes::BUILTINS
                .iter()
                .map(|d| (d.name, *d))
                .collect(),
        )
    })
}

fn read_registry() -> RwLockReadGuard<'static, BTreeMap<&'static str, PassDescriptor>> {
    registered().read().expect("no registry lock holder panics")
}

/// Register (or re-register) a pass at runtime.
///
/// Every pass in `crates/core` depends only on the core IR and sits in the
/// built-in table. Passes that live *above* this crate in the dependency
/// graph (the superoptimizer needs `mao-sim` as its oracle, and `mao-sim`
/// depends on `mao`) cannot appear there without a cycle; they call this
/// once at startup instead — the paper's `REGISTER_FUNC_PASS` done at
/// runtime rather than link time. Safe to call from multiple threads and
/// multiple times; the last registration of a name wins, built-ins
/// included, and registration is process-wide.
pub fn register_extension(descriptor: PassDescriptor) {
    registered()
        .write()
        .expect("no registry lock holder panics")
        .insert(descriptor.name, descriptor);
}

/// The registered pass called `name`.
pub fn descriptor(name: &str) -> Option<PassDescriptor> {
    read_registry().get(name).copied()
}

/// Every registered pass, by name. Names follow the paper where it names
/// passes (`NOPIN`, `NOPKILL`, `REDTEST`, `REDMOV`, `LOOP16`, `SCHED`).
pub fn descriptors() -> Vec<PassDescriptor> {
    read_registry().values().copied().collect()
}

/// Look up every invocation's pass and check its options, before any pass
/// runs: an unknown pass is [`PassError::UnknownPass`]; an unknown key, a
/// malformed value or an out-of-range value is [`PassError::BadOptions`]
/// naming the pass and the key. Returns the descriptors in invocation
/// order.
pub fn resolve(invocations: &[PassInvocation]) -> Result<Vec<PassDescriptor>, PassError> {
    let registry = read_registry();
    invocations
        .iter()
        .map(|inv| {
            let descriptor = registry
                .get(inv.name.as_str())
                .ok_or_else(|| PassError::UnknownPass(inv.name.clone()))?;
            descriptor.check(&inv.options)?;
            Ok(*descriptor)
        })
        .collect()
}

/// One canonical rendering of `invocations`, which [`resolve`] accepted as
/// `passes`: `NAME=key[value],flag:NAME2`, keys in order and every value
/// spelled as [`OptionSpec`] reads it, so pass strings that run the same
/// (`DCE=trace[0]`, `DCE=trace[00]`, ` DCE=trace[+0]:`) render the same.
/// This is what result-cache and function-memo keys hash.
pub fn canonical(invocations: &[PassInvocation], passes: &[PassDescriptor]) -> String {
    let render = |(inv, pass): (&PassInvocation, &PassDescriptor)| {
        let options: Vec<String> = (inv.options.map.iter())
            .map(|(key, value)| {
                let spec = pass
                    .options
                    .iter()
                    .chain(COMMON_OPTIONS)
                    .find(|s| s.key == key);
                let checked = spec.map(|spec| spec.check(value));
                match checked
                    .and_then(Result::ok)
                    .unwrap_or_else(|| Some(value.clone()))
                {
                    Some(value) => format!("{key}[{value}]"),
                    None => key.clone(),
                }
            })
            .collect();
        if options.is_empty() {
            inv.name.clone()
        } else {
            format!("{}={}", inv.name, options.join(","))
        }
    };
    let rendered: Vec<String> = invocations.iter().zip(passes).map(render).collect();
    rendered.join(":")
}

/// One pass invocation, parsed from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassInvocation {
    /// Pass name.
    pub name: String,
    /// Options.
    pub options: PassOptions,
}

/// Parse a `--mao=` option string into an ordered invocation list.
///
/// Grammar: `PASS[=opt[value],opt2,opt3[value]] (':' PASS...)*` — exactly
/// the shape of the paper's example
/// `--mao=LFIND=trace[0]:ASM=o[/dev/null]`.
pub fn parse_invocations(s: &str) -> Result<Vec<PassInvocation>, PassError> {
    let mut out = Vec::new();
    for part in s.split(':') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, rest) = match part.split_once('=') {
            Some((n, r)) => (n.trim(), Some(r)),
            None => (part, None),
        };
        if name.is_empty() {
            return Err(PassError::BadOptions(format!(
                "empty pass name in `{part}`"
            )));
        }
        let mut options = PassOptions::new();
        if let Some(rest) = rest {
            for opt in rest.split(',') {
                let opt = opt.trim();
                if opt.is_empty() {
                    continue;
                }
                match opt.split_once('[') {
                    Some((key, val)) => {
                        let val = val.strip_suffix(']').ok_or_else(|| {
                            PassError::BadOptions(format!("unterminated `[` in `{opt}`"))
                        })?;
                        options.set(key, val);
                    }
                    None => options.set(opt, ""),
                }
            }
        }
        out.push(PassInvocation {
            name: name.to_string(),
            options,
        });
    }
    Ok(out)
}

/// Report from running a pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-invocation (pass name, stats).
    pub passes: Vec<(String, PassStats)>,
    /// Per-invocation wall-clock microseconds, parallel to `passes`.
    pub timings_us: Vec<(String, u64)>,
    /// Concatenated trace output in the legacy one-line rendering, parallel
    /// to `events` (derived from it through one code path).
    pub trace: Vec<String>,
    /// The structured trace events behind `trace`.
    pub events: Vec<TraceEvent>,
    /// Analysis cache hit/miss counters for the whole run.
    pub cache: CacheStats,
}

impl PipelineReport {
    /// Total transformations across all passes.
    pub fn total_transformations(&self) -> usize {
        self.passes.iter().map(|(_, s)| s.transformations).sum()
    }

    /// Stats for a pass by name (first invocation).
    pub fn stats(&self, name: &str) -> Option<&PassStats> {
        self.passes.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The single rendering path from structured events to the legacy
    /// `trace` lines: every event recorded lands in both views.
    fn record_event(&mut self, ev: TraceEvent) {
        self.trace.push(ev.legacy_line().to_string());
        self.events.push(ev);
    }
}

/// Pipeline-wide execution configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads for function-level passes. `0` = auto (the machine's
    /// available parallelism); `1` = sequential. Capped at the machine's
    /// available parallelism (see [`PipelineConfig::effective_jobs`]).
    pub jobs: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig { jobs: 1 }
    }
}

impl PipelineConfig {
    /// The worker count the function-level driver runs with:
    /// [`crate::isa::effective_jobs`], the one cap a parallel parse applies
    /// too (`run_functions` starts one thread per function, up to it).
    pub fn effective_jobs(&self) -> usize {
        crate::isa::effective_jobs(self.jobs)
    }
}

/// Run an ordered list of pass invocations over the unit with the default
/// configuration (sequential).
pub fn run_pipeline(
    unit: &mut MaoUnit,
    invocations: &[PassInvocation],
    profile: Option<Profile>,
) -> Result<PipelineReport, PassError> {
    run_pipeline_with(unit, invocations, profile, &PipelineConfig::default())
}

/// Run an ordered list of pass invocations over the unit.
///
/// Every invocation (and every worker thread) reads the analyses the unit
/// holds: passes that modify nothing reuse the previous pass's CFGs and
/// dataflow tables wholesale.
pub fn run_pipeline_with(
    unit: &mut MaoUnit,
    invocations: &[PassInvocation],
    profile: Option<Profile>,
    config: &PipelineConfig,
) -> Result<PipelineReport, PassError> {
    let analyses = Arc::new(AnalysisCache::new());
    run_pipeline_shared(unit, invocations, profile, config, &analyses)
}

/// Run a pipeline against a caller-provided [`AnalysisCache`].
///
/// This is the long-lived-service entry point: a daemon processing many
/// units can hand every run the same cache. Analyses live in each unit, so
/// one unit's never serve another's (a clone excepted) and the cache keeps
/// none of them; work carries across units through an attached function
/// memo ([`AnalysisCache::set_function_memo`]). The reported
/// [`PipelineReport::cache`] counters are cumulative over the cache's
/// lifetime, not per run.
pub fn run_pipeline_shared(
    unit: &mut MaoUnit,
    invocations: &[PassInvocation],
    profile: Option<Profile>,
    config: &PipelineConfig,
    analyses: &Arc<AnalysisCache>,
) -> Result<PipelineReport, PassError> {
    run_pipeline_observed(unit, invocations, profile, config, analyses, &Obs::off())
}

/// Run a pipeline with telemetry: one span per pass invocation (and, inside
/// [`run_functions`], one per function), pass-labeled counters, and a
/// wall-time histogram, all flowing into the given [`Obs`] sinks.
///
/// Every other pipeline entry point delegates here with [`Obs::off`], whose
/// recorder is a single-branch no-op and whose metrics land in a private
/// registry — the observed and unobserved paths are one code path.
pub fn run_pipeline_observed(
    unit: &mut MaoUnit,
    invocations: &[PassInvocation],
    profile: Option<Profile>,
    config: &PipelineConfig,
    analyses: &Arc<AnalysisCache>,
    obs: &Obs,
) -> Result<PipelineReport, PassError> {
    let passes = resolve(invocations)?;
    if let Some(inv) = invocations
        .iter()
        .zip(&passes)
        .find_map(|(inv, pass)| (!pass.isas.contains(&unit.isa())).then_some(inv))
    {
        return Err(PassError::UnsupportedIsa {
            pass: inv.name.clone(),
            isa: unit.isa(),
        });
    }
    let mut report = PipelineReport::default();
    let mut profile = profile;
    let jobs = config.effective_jobs();
    let pass_wall_us = obs
        .metrics
        .histogram("mao_pass_wall_us", mao_obs::US_BUCKETS);
    // The function-result memo, when the caller attached one: hits are
    // spliced in before the first pass, and the prefix passes skip them.
    // A profile can steer passes beyond what the memo keys, so runs with
    // one never use it.
    let mut memo_run = match analyses.function_memo() {
        Some(memo) if profile.is_none() => MemoRun::begin(memo, unit, invocations, &passes),
        _ => None,
    };
    let prefix_len = memo_run.as_ref().map_or(0, |run| run.prefix_len);
    for (i, (inv, pass)) in invocations.iter().zip(&passes).enumerate() {
        let mut ctx = PassContext::from_options(inv.options.clone());
        ctx.pass = inv.name.clone();
        ctx.profile = profile.take();
        ctx.jobs = jobs;
        ctx.analyses = analyses.clone();
        ctx.obs = obs.clone();
        ctx.memo = memo_run
            .as_ref()
            .filter(|_| i < prefix_len)
            .map(|run| run.pass_ctx(i));
        // The IR dumps of [`COMMON_OPTIONS`].
        if ctx.options.has("dump-before") {
            report.record_event(
                TraceEvent::new(format!("=== IR before {} ===\n{}", inv.name, unit.emit()))
                    .scope(&inv.name),
            );
        }
        let mut span = mao_obs::Span::enter(&obs.recorder, "pass", &inv.name);
        let start = std::time::Instant::now();
        let stats = (pass.run)(unit, &mut ctx)?;
        let mut elapsed_us = start.elapsed().as_micros() as u64;
        // Memo work is charged to the prefix's first pass (lookup, decode,
        // splice) and last pass (admission, encode), so per-pass times
        // still add up to the pipeline's.
        if i < prefix_len {
            let run = memo_run.as_mut().expect("a prefix implies a memo run");
            run.collect(ctx.memo.take());
            if i == 0 {
                elapsed_us += run.lookup_us;
            }
            if i + 1 == prefix_len {
                let offered = std::time::Instant::now();
                memo_run
                    .take()
                    .expect("the run is offered once")
                    .finish(unit);
                elapsed_us += offered.elapsed().as_micros() as u64;
            }
        }
        span.counter("transformations", stats.transformations as u64);
        span.counter("matches", stats.matches as u64);
        drop(span);
        let labels: &[(&str, &str)] = &[("pass", inv.name.as_str())];
        obs.metrics
            .counter_with("mao_pass_invocations_total", labels)
            .inc();
        obs.metrics
            .counter_with("mao_pass_transformations_total", labels)
            .add(stats.transformations as u64);
        obs.metrics
            .counter_with("mao_pass_matches_total", labels)
            .add(stats.matches as u64);
        pass_wall_us.observe(elapsed_us);
        if ctx.options.has("dump-after") {
            report.record_event(
                TraceEvent::new(format!("=== IR after {} ===\n{}", inv.name, unit.emit()))
                    .scope(&inv.name),
            );
        }
        profile = ctx.profile.take();
        for ev in ctx.events.drain(..) {
            report.record_event(ev);
        }
        report.passes.push((inv.name.clone(), stats));
        report.timings_us.push((inv.name.clone(), elapsed_us));
    }
    report.cache = analyses.stats();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_are_capped_at_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let jobs = |jobs| PipelineConfig { jobs }.effective_jobs();
        assert_eq!(jobs(0), host, "0 means auto");
        assert_eq!(jobs(1), 1);
        assert_eq!(jobs(2), 2.min(host));
        assert_eq!(jobs(1 << 63), host);
        assert_eq!(jobs(usize::MAX), host);
    }

    #[test]
    fn parse_paper_example() {
        let invs = parse_invocations("LFIND=trace[0]:ASM=o[/dev/null]").unwrap();
        assert_eq!(invs.len(), 2);
        assert_eq!(invs[0].name, "LFIND");
        assert_eq!(invs[0].options.get("trace"), Some("0"));
        assert_eq!(invs[1].name, "ASM");
        assert_eq!(invs[1].options.get("o"), Some("/dev/null"));
    }

    #[test]
    fn parse_multi_option() {
        let invs = parse_invocations("NOPIN=seed[42],density[0.1],flag").unwrap();
        let o = &invs[0].options;
        assert_eq!(o.get_u64("seed", 0), 42);
        assert!((o.get_f64("density", 0.0) - 0.1).abs() < 1e-9);
        assert!(o.has("flag"));
        assert!(!o.has("nope"));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_invocations("P=o[v"),
            Err(PassError::BadOptions(_))
        ));
        assert!(matches!(
            parse_invocations("=x"),
            Err(PassError::BadOptions(_))
        ));
        // Empty segments are tolerated.
        assert_eq!(parse_invocations("::").unwrap().len(), 0);
    }

    /// Spellings that run the same render the same; different values,
    /// keys or passes do not.
    #[test]
    fn canonical_rendering_keys_options_by_typed_value() {
        let render = |s: &str| {
            let invs = parse_invocations(s).unwrap();
            canonical(&invs, &resolve(&invs).unwrap())
        };
        assert_eq!(render("DCE=trace[00]"), "DCE=trace[0]");
        assert_eq!(render(" DCE=trace[+0] ::"), render("DCE=trace[0]"));
        assert_eq!(
            render("REDTEST=dump-after,trace[02]:ADDADD"),
            "REDTEST=dump-after,trace[2]:ADDADD"
        );
        assert_eq!(
            render("REDTEST=trace[1],dump-after"),
            render("REDTEST=dump-after,trace[01]")
        );
        assert_eq!(render("NOPIN=density[.50]"), "NOPIN=density[0.5]");
        assert_eq!(render("NOPIN=density[5e-1]"), "NOPIN=density[0.5]");
        for (a, b) in [
            ("DCE=trace[0]", "DCE=trace[1]"),
            ("DCE=trace[0]", "DCE"),
            ("DCE:REDTEST", "REDTEST:DCE"),
        ] {
            assert_ne!(render(a), render(b), "{a} vs {b}");
        }
    }

    #[test]
    fn options_defaults() {
        let o = PassOptions::new().with("n", "7");
        assert_eq!(o.get_u64("n", 1), 7);
        assert_eq!(o.get_u64("missing", 13), 13);
        assert_eq!(o.get_f64("n", 0.0), 7.0);
    }

    #[test]
    fn context_trace_levels() {
        let mut ctx = PassContext::from_options(PassOptions::new().with("trace", "2"));
        ctx.pass = "TESTPASS".to_string();
        ctx.trace(1, || TraceEvent::new("kept").field("n", 7));
        ctx.trace(3, || TraceEvent::new("dropped"));
        assert_eq!(ctx.rendered_trace(), vec!["kept"]);
        assert_eq!(ctx.events.len(), 1);
        assert_eq!(ctx.events[0].level, 1);
        assert_eq!(ctx.events[0].scope, "TESTPASS");
        assert_eq!(ctx.events[0].fields, vec![("n".into(), "7".into())]);
    }

    #[test]
    fn disabled_trace_never_builds_the_event() {
        let mut ctx = PassContext::from_options(PassOptions::new());
        assert_eq!(ctx.trace_level, 0);
        let mut built = false;
        ctx.trace(1, || {
            built = true;
            TraceEvent::new("expensive")
        });
        assert!(!built, "closure must not run when the level is filtered");
        assert!(ctx.events.is_empty());
        // Level 0 still passes the filter.
        ctx.trace(0, || TraceEvent::new("level0"));
        assert_eq!(ctx.rendered_trace(), vec!["level0"]);
    }

    #[test]
    fn unknown_pass_errors() {
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let invs = parse_invocations("NOSUCHPASS").unwrap();
        let err = run_pipeline(&mut unit, &invs, None).unwrap_err();
        assert_eq!(err, PassError::UnknownPass("NOSUCHPASS".into()));
    }

    fn matches_once(_unit: &mut MaoUnit, _ctx: &mut PassContext) -> Result<PassStats, PassError> {
        let mut stats = PassStats::default();
        stats.matched(1);
        Ok(stats)
    }

    fn ext_pass(name: &'static str, isas: &'static [IsaId]) -> PassDescriptor {
        PassDescriptor {
            name,
            description: "extension-registry test pass",
            scope: PassScope::Unit,
            isas,
            options: &[],
            run: matches_once,
        }
    }

    #[test]
    fn extension_passes_join_the_registry_and_run() {
        register_extension(ext_pass("EXTTEST", &[IsaId::X86_64]));
        // Idempotent re-registration.
        register_extension(ext_pass("EXTTEST", &[IsaId::X86_64]));
        assert!(descriptor("EXTTEST").is_some());
        assert!(descriptor("REDTEST").is_some(), "built-ins still present");
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let invs = parse_invocations("EXTTEST").unwrap();
        let report = run_pipeline(&mut unit, &invs, None).unwrap();
        assert_eq!(report.stats("EXTTEST").unwrap().matches, 1);
    }

    /// A function-scope pass whose body deletes the first instruction of
    /// the *next* function: it breaks the locality contract the
    /// function-result memo relies on.
    fn edits_neighbour(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
        run_functions(unit, ctx, |unit, function, _| {
            let mut edits = EditSet::new();
            let next = unit
                .functions_cached()
                .iter()
                .find(|f| f.label_id > function.label_id);
            if let Some(next) = next {
                let insn = next.entry_ids().find(|&id| unit.insn_any(id).is_some());
                if let Some(id) = insn {
                    edits.delete(id);
                }
            }
            Ok(edits)
        })
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "edited entries outside function `f`")]
    fn run_functions_asserts_edits_stay_inside_their_function() {
        register_extension(PassDescriptor {
            name: "EDITSNEIGHBOUR",
            description: "test pass that edits the function after the one it is given",
            scope: PassScope::Function,
            isas: &IsaId::ALL,
            options: &[],
            run: edits_neighbour,
        });
        let mut unit = MaoUnit::parse(
            "\t.type\tf, @function\nf:\n\tnop\n\tret\n\t.type\tg, @function\ng:\n\tnop\n\tret\n",
        )
        .unwrap();
        let invs = parse_invocations("EDITSNEIGHBOUR").unwrap();
        let _ = run_pipeline(&mut unit, &invs, None);
    }

    fn a64_unit() -> MaoUnit {
        MaoUnit::parse_isa(
            ".type f, @function\nf:\n\tnop\n\tret\n",
            crate::isa::IsaId::Aarch64,
        )
        .unwrap()
    }

    #[test]
    fn x86_only_pass_on_a64_unit_is_a_structured_error() {
        let mut unit = a64_unit();
        assert_eq!(unit.isa(), IsaId::Aarch64);
        for name in ["SCHED", "LOOP16", "REDTEST"] {
            let invs = parse_invocations(name).unwrap();
            let err = run_pipeline(&mut unit, &invs, None).unwrap_err();
            assert_eq!(
                err,
                PassError::UnsupportedIsa {
                    pass: name.into(),
                    isa: IsaId::Aarch64,
                }
            );
            assert!(err.to_string().contains("does not support ISA `aarch64`"));
        }
    }

    #[test]
    fn isa_neutral_passes_run_on_a64_units() {
        let mut unit = a64_unit();
        let invs = parse_invocations("MAOPASS:NOPKILL:DCE").unwrap();
        let report = run_pipeline(&mut unit, &invs, None).unwrap();
        // NOPKILL operates purely on the neutral entry surface: the A64 NOP
        // is gone, the rest of the unit is intact.
        assert_eq!(report.stats("NOPKILL").unwrap().transformations, 1);
        let text = unit.emit();
        assert!(!text.contains("nop"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    #[test]
    fn extension_isa_declaration_is_enforced() {
        register_extension(ext_pass("EXTX86ONLY", &[IsaId::X86_64]));
        register_extension(ext_pass("EXTNEUTRAL", &IsaId::ALL));
        let mut unit = a64_unit();
        let err =
            run_pipeline(&mut unit, &parse_invocations("EXTX86ONLY").unwrap(), None).unwrap_err();
        assert_eq!(
            err,
            PassError::UnsupportedIsa {
                pass: "EXTX86ONLY".into(),
                isa: IsaId::Aarch64,
            }
        );
        let report =
            run_pipeline(&mut unit, &parse_invocations("EXTNEUTRAL").unwrap(), None).unwrap();
        assert_eq!(report.stats("EXTNEUTRAL").unwrap().matches, 1);
    }
}
