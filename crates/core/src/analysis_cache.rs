//! Per-function analyses for the pass pipeline, and the counters that
//! watch them.
//!
//! Every structural pass starts the same way: build the function's CFG,
//! often its loop nest and dataflow tables on top. Between passes that did
//! not modify a function, those results are identical — the paper's pipeline
//! recomputes them anyway. Here each function of a unit's index has one
//! analysis slot, a [`FunctionAnalyses`] holding its CFG, loop structure,
//! liveness and reaching definitions, built lazily. The slot lives in the
//! unit's index beside the function view (see `unit.rs`), so it lives as
//! long as the unit and no longer: a full index build starts every slot
//! empty, and an edit that touches or shifts a function gives it an empty
//! one, except that [`crate::pass::run_functions`] carries a function's
//! CFG and loop nest across an edit that leaves its control flow alone —
//! kept as they are when the edit moved nothing, re-based onto the new
//! positions when it shifted them (see [`FunctionAnalyses::carry`]).
//!
//! [`AnalysisCache`] is what a pipeline shares across its passes: the
//! lookup counters (a slot's first lookup misses, later lookups and carried
//! slots hit; the same for the unit's solved layout) and the function-result
//! memo handle. It holds no analysis, so a long-lived one (a `maod` shard's)
//! keeps nothing of a finished request; cross-request reuse in `maod` is the
//! function-result memo's job ([`crate::function_memo`]).
//!
//! Slots are `Sync`: the parallel driver reads one unit from several worker
//! threads. Analyses are built behind [`OnceLock`]s and handed out as
//! [`Arc`]s, so a hit costs one binary search over the function list, one
//! view comparison and a refcount bump.

use std::sync::{Arc, OnceLock};

use mao_asm::Entry;

use crate::cfg::{is_plain, Cfg};
use crate::dataflow::{Liveness, ReachingDefs};
use crate::function_memo::FunctionMemo;
use crate::loops::{find_loops, LoopNest};
use crate::relax::{Layout, RelaxError, Relaxed};
use crate::unit::{EditSet, EntryId, Function, Group, MaoUnit};
use mao_obs::Counter;

/// Lazily built analyses for one function of one unit.
#[derive(Debug, Default)]
pub struct FunctionAnalyses {
    cfg: OnceLock<Arc<Cfg>>,
    loops: OnceLock<Arc<LoopNest>>,
    liveness: OnceLock<Arc<Liveness>>,
    reaching: OnceLock<Arc<ReachingDefs>>,
}

impl FunctionAnalyses {
    /// The function's CFG (default build options).
    pub fn cfg(&self, unit: &MaoUnit, function: &Function) -> Arc<Cfg> {
        self.cfg
            .get_or_init(|| {
                #[cfg(test)]
                crate::unit::work_counts::bump(&crate::unit::work_counts::CFG_BUILDS, 1);
                Arc::new(Cfg::build(unit, function))
            })
            .clone()
    }

    /// The function's loop nest (Havlak over the cached CFG).
    pub fn loops(&self, unit: &MaoUnit, function: &Function) -> Arc<LoopNest> {
        self.loops
            .get_or_init(|| Arc::new(find_loops(&self.cfg(unit, function))))
            .clone()
    }

    /// Liveness over the cached CFG.
    pub fn liveness(&self, unit: &MaoUnit, function: &Function) -> Arc<Liveness> {
        self.liveness
            .get_or_init(|| {
                #[cfg(test)]
                crate::unit::work_counts::bump(&crate::unit::work_counts::LIVENESS_BUILDS, 1);
                Arc::new(Liveness::compute(unit, &self.cfg(unit, function)))
            })
            .clone()
    }

    /// Reaching definitions over the cached CFG.
    pub fn reaching(&self, unit: &MaoUnit, function: &Function) -> Arc<ReachingDefs> {
        self.reaching
            .get_or_init(|| Arc::new(ReachingDefs::compute(unit, &self.cfg(unit, function))))
            .clone()
    }

    /// What of this slot survives an edit to its function, or `None` when
    /// nothing does. `list` holds the function's own edits (sorted; `None`
    /// when the edit only shifts the function), `entries` are the unit's
    /// with the edit's permutes applied, and `slots_plain` tells whether
    /// every slot those permutes moved is plain ([`is_plain`]).
    ///
    /// A set of edits that moves nothing ([`EditSet::moves_nothing`], for
    /// every list of the apply: `in_place`) keeps the CFG and loop nest
    /// as they are when no edited entry, replacement or permuted slot can
    /// change a leader, an edge or a block boundary, for any number of
    /// spans (see [`survives_in_place`]). Any other edit shifts what follows
    /// it, and the caller only offers a one-span function; its CFG and loop
    /// nest are kept, to be re-based, when the edit leaves its control flow
    /// alone:
    ///
    /// * its CFG has no indirect jump, resolved or not (jump-table
    ///   resolution reads instructions an edit may change);
    /// * no edited id is a block's first entry;
    /// * every edited, inserted, replacement or permuted entry is plain.
    ///
    /// Liveness rides along only for a function the edit merely shifted;
    /// reaching definitions hold entry ids and are always dropped. The
    /// analyses are moved out when this is the last reference to the slot.
    pub(crate) fn carry(
        self: Arc<Self>,
        entries: &[Entry],
        list: Option<&EditSet>,
        in_place: bool,
        slots_plain: bool,
    ) -> Option<Carried> {
        let cfg = self.cfg.get()?;
        if !slots_plain || cfg.unresolved_indirect || cfg.resolved_indirect > 0 {
            return None;
        }
        let net = match list {
            Some(list) if in_place => {
                if !list.groups().all(|g| plain_edits(entries, g)) {
                    return None;
                }
                None
            }
            _ => Some(block_growth(entries, cfg, list)?),
        };
        let (cfg, loops, liveness) = match Arc::try_unwrap(self) {
            Ok(slot) => (
                slot.cfg.into_inner(),
                slot.loops.into_inner(),
                slot.liveness.into_inner(),
            ),
            Err(shared) => (
                shared.cfg.get().cloned(),
                shared.loops.get().cloned(),
                shared.liveness.get().cloned(),
            ),
        };
        Some(Carried {
            cfg: cfg?,
            net,
            loops,
            liveness: liveness.filter(|_| list.is_none()),
        })
    }
}

/// One function's analyses in flight across an edit (see
/// [`FunctionAnalyses::carry`]).
#[derive(Debug)]
pub(crate) struct Carried {
    cfg: Arc<Cfg>,
    /// Net entry-count change of each block, or `None` when the edit moved
    /// nothing and the CFG is kept as it is.
    net: Option<Vec<isize>>,
    loops: Option<Arc<LoopNest>>,
    liveness: Option<Arc<Liveness>>,
}

impl Carried {
    /// The function's slot in the edited unit, whose one span now starts
    /// at `start`. A CFG the edit shifted is re-based there (cloned first
    /// only if another holder still shares it); one it did not move keeps
    /// its `Arc`.
    pub(crate) fn into_slot(self, start: EntryId) -> FunctionAnalyses {
        let cfg = match self.net {
            None => self.cfg,
            Some(net) => {
                #[cfg(test)]
                crate::unit::work_counts::bump(&crate::unit::work_counts::CFG_REBASES, 1);
                let mut cfg = Arc::unwrap_or_clone(self.cfg);
                cfg.rebase(start, &net);
                Arc::new(cfg)
            }
        };
        FunctionAnalyses {
            cfg: OnceLock::from(cfg),
            loops: self.loops.map(OnceLock::from).unwrap_or_default(),
            liveness: self.liveness.map(OnceLock::from).unwrap_or_default(),
            reaching: OnceLock::new(),
        }
    }
}

/// Debug builds: the carried `slot` of `function` must equal from-scratch
/// builds on the edited `unit`.
pub(crate) fn check_carried(unit: &MaoUnit, function: &Function, slot: &FunctionAnalyses) {
    let Some(cfg) = slot.cfg.get() else {
        return;
    };
    let name = &function.name;
    debug_assert_eq!(
        **cfg,
        Cfg::build(unit, function),
        "carried CFG of `{name}` diverged from a rebuild"
    );
    debug_assert!(
        slot.loops.get().is_none_or(|l| **l == find_loops(cfg)),
        "carried loop nest of `{name}` diverged from a rebuild"
    );
    debug_assert!(
        slot.liveness
            .get()
            .is_none_or(|l| **l == Liveness::compute(unit, cfg)),
        "carried liveness of `{name}` diverged from a rebuild"
    );
}

/// Net entry-count change of each block of `cfg` under `list`, the edits
/// of its function (none when the function only shifts) — or `None` when
/// an edited id starts a block or an edited, inserted or replacement entry
/// is not plain. One walk over the blocks and the list, O(blocks + edits).
fn block_growth(entries: &[Entry], cfg: &Cfg, list: Option<&EditSet>) -> Option<Vec<isize>> {
    let mut net = vec![0isize; cfg.blocks.len()];
    let mut b = 0;
    for g in list.into_iter().flat_map(EditSet::groups) {
        // Blocks partition a one-span function's entries in order, so the
        // block holding `g.id` is the last one starting at or before it.
        while cfg
            .blocks
            .get(b + 1)
            .is_some_and(|next| next.entries[0] <= g.id)
        {
            b += 1;
        }
        if cfg.blocks[b].entries[0] == g.id || !plain_edits(entries, g) {
            return None;
        }
        net[b] += g.net();
    }
    Some(net)
}

/// Are the entry at `g.id` and every entry the edits put in plain
/// ([`is_plain`])? The slots a permute moves, the id of a permute-only
/// group among them, are checked once, where the permute is applied.
fn plain_edits(entries: &[Entry], g: Group) -> bool {
    (g.permute_only() || is_plain(&entries[g.id]))
        && g.inserted(true)
            .chain(g.fate())
            .chain(g.inserted(false))
            .flatten()
            .all(is_plain)
}

/// Lookup counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a function's slot.
    pub hits: u64,
    /// Lookups that found a function's slot empty and started it.
    pub misses: u64,
    /// Layout lookups answered from the unit's layout (solved or patched
    /// since its last edit).
    pub layout_hits: u64,
    /// Layout lookups that found no layout and paid a full solve.
    pub layout_misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Layout hits as a fraction of all layout lookups (0.0 when unused).
    pub fn layout_hit_rate(&self) -> f64 {
        let total = self.layout_hits + self.layout_misses;
        if total == 0 {
            0.0
        } else {
            self.layout_hits as f64 / total as f64
        }
    }
}

/// What a pipeline's passes share about analyses: lookup counters and the
/// function-result memo handle. The analyses themselves live in the unit.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    /// Optional function-result memo the pipeline consults before its
    /// function-scope prefix (see [`crate::function_memo`]).
    function_memo: OnceLock<Arc<FunctionMemo>>,
    /// Counter cells, owned from construction; [`AnalysisCache::stats`]
    /// reads them and [`AnalysisCache::attach_metrics`] registers them.
    hits: Counter,
    misses: Counter,
    layout_hits: Counter,
    layout_misses: Counter,
}

impl AnalysisCache {
    /// Fresh counters, no memo.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Register this cache's counter cells in `metrics` (families
    /// `mao_analysis_cache_{hits,misses}_total` and
    /// `mao_layout_cache_{hits,misses}_total`), so
    /// a scrape reads the same cells as [`AnalysisCache::stats`].
    pub fn attach_metrics(&self, metrics: &mao_obs::Metrics) {
        self.attach_metrics_labeled(metrics, &[]);
    }

    /// Like [`AnalysisCache::attach_metrics`], but every family carries
    /// `labels` — this is how `maod`'s per-shard caches register as
    /// distinct `{shard="N"}` series in one registry.
    pub fn attach_metrics_labeled(&self, metrics: &mao_obs::Metrics, labels: &[(&str, &str)]) {
        for (family, cell) in [
            ("mao_analysis_cache_hits_total", &self.hits),
            ("mao_analysis_cache_misses_total", &self.misses),
            ("mao_layout_cache_hits_total", &self.layout_hits),
            ("mao_layout_cache_misses_total", &self.layout_misses),
        ] {
            metrics.register_counter(family, labels, cell);
        }
    }

    /// Attach a function-result memo, typically one instance shared by
    /// every shard of a daemon. First attachment wins; later calls are
    /// no-ops.
    pub fn set_function_memo(&self, memo: Arc<FunctionMemo>) {
        let _ = self.function_memo.set(memo);
    }

    /// The attached function-result memo, if any.
    pub(crate) fn function_memo(&self) -> Option<&Arc<FunctionMemo>> {
        self.function_memo.get()
    }

    /// The analyses slot of `function` in `unit`'s index: a hit when an
    /// earlier lookup or a carry filled it, a miss when this lookup starts
    /// it. A view the index does not hold (a stale or hand-made one) gets a
    /// slot of its own that nothing keeps.
    pub fn for_function(&self, unit: &MaoUnit, function: &Function) -> Arc<FunctionAnalyses> {
        let Some(slot) = unit.analysis_slot(function) else {
            self.misses.inc();
            return Arc::default();
        };
        let mut started = false;
        let analyses = slot.get_or_init(|| {
            started = true;
            Arc::default()
        });
        if started { &self.misses } else { &self.hits }.inc();
        analyses.clone()
    }

    /// The unit's relaxed layout: the one it holds, solved or patched since
    /// its last edit, or a full solve that the unit then holds.
    pub fn layout(&self, unit: &MaoUnit) -> Result<Arc<Layout>, RelaxError> {
        let (relaxed, held) = Relaxed::of(unit)?;
        self.count_layout(held);
        Ok(relaxed.layout.clone())
    }

    /// Count one layout lookup: `held` if the unit held its layout.
    pub(crate) fn count_layout(&self, held: bool) {
        if held {
            &self.layout_hits
        } else {
            &self.layout_misses
        }
        .inc();
    }

    /// Cumulative lookup counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            layout_hits: self.layout_hits.get(),
            layout_misses: self.layout_misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::x86::Instruction;
    use crate::unit::EditSet;

    const TWO_FUNCS: &str = r#"
	.text
	.globl	f
	.type	f, @function
f:
	push %rbp
	pop %rbp
	ret
	.size	f, .-f
	.globl	g
	.type	g, @function
g:
	nop
	nop
	ret
	.size	g, .-g
"#;

    #[test]
    fn repeat_lookup_hits() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let a1 = cache.for_function(&unit, &f);
        let cfg1 = a1.cfg(&unit, &f);
        let a2 = cache.for_function(&unit, &f);
        let cfg2 = a2.cfg(&unit, &f);
        assert!(
            Arc::ptr_eq(&cfg1, &cfg2),
            "second lookup must reuse the CFG"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn all_analyses_build_once() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let a = cache.for_function(&unit, &f);
        let loops1 = a.loops(&unit, &f);
        let loops2 = a.loops(&unit, &f);
        assert!(Arc::ptr_eq(&loops1, &loops2));
        let live1 = a.liveness(&unit, &f);
        let live2 = a.liveness(&unit, &f);
        assert!(Arc::ptr_eq(&live1, &live2));
        let reach1 = a.reaching(&unit, &f);
        let reach2 = a.reaching(&unit, &f);
        assert!(Arc::ptr_eq(&reach1, &reach2));
    }

    /// Editing one function must invalidate it — and not its neighbours —
    /// when the edit is interior (non-structural).
    #[test]
    fn interior_edit_invalidates_only_touched_function() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();

        // g precedes nothing, so editing g leaves f's span untouched.
        // Edit g (the later function) so f's spans do not shift.
        let f = unit.find_function("f").unwrap();
        let g = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f).cfg(&unit, &f);
        let _ = cache.for_function(&unit, &g).cfg(&unit, &g);
        let baseline = cache.stats();

        let g_insn = g.entry_ids().find(|&id| unit.insn(id).is_some()).unwrap();
        let mut edits = EditSet::new();
        edits.replace_insn(g_insn, Instruction::nop_of_len(2));
        unit.apply(edits);

        let f2 = unit.find_function("f").unwrap();
        let g2 = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f2); // unchanged → hit
        let _ = cache.for_function(&unit, &g2); // edited → miss
        let after = cache.stats();
        assert_eq!(after.hits, baseline.hits + 1, "untouched f must hit");
        assert_eq!(after.misses, baseline.misses + 1, "edited g must miss");
    }

    /// An edit to an EARLIER function shifts later functions; their content
    /// is unchanged but their cached analyses hold stale absolute ids, so
    /// they must miss.
    #[test]
    fn shifted_function_misses() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let g = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &f);
        let _ = cache.for_function(&unit, &g);
        let baseline = cache.stats();

        let f_insn = f.entry_ids().find(|&id| unit.insn(id).is_some()).unwrap();
        let mut edits = EditSet::new();
        edits.delete(f_insn);
        unit.apply(edits);

        let g2 = unit.find_function("g").unwrap();
        let _ = cache.for_function(&unit, &g2);
        assert_eq!(
            cache.stats().misses,
            baseline.misses + 1,
            "shifted g holds stale entry ids and must be rebuilt"
        );
    }

    /// A unit holds its layout until it is edited: the same unit and a
    /// clone of it read it, identical text parsed again solves its own.
    #[test]
    fn a_unit_holds_its_layout_until_edited() {
        let cache = AnalysisCache::new();
        let mut unit = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let a = cache.layout(&unit).unwrap();
        let b = cache.layout(&unit).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same unit must hit");
        let clone = unit.clone();
        assert!(
            Arc::ptr_eq(&a, &cache.layout(&clone).unwrap()),
            "a clone holds its source's layout"
        );
        let again = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let c = cache.layout(&again).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "a re-parse must miss");
        assert!(c.agrees_with(&a));
        let mut edits = EditSet::new();
        edits.insert_before(0, vec![mao_asm::Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        let d = cache.layout(&unit).unwrap();
        assert_eq!(d.addr, [0, 1, 2], "an edited unit must miss");
        let stats = cache.stats();
        assert_eq!((stats.layout_hits, stats.layout_misses), (2, 3));
        assert!((stats.layout_hit_rate() - 0.4).abs() < 1e-9);
        assert!(
            Arc::ptr_eq(&a, &cache.layout(&clone).unwrap()),
            "the clone keeps its own"
        );
    }

    /// `entry_mut` may change anything, so every slot starts over.
    #[test]
    fn entry_mut_empties_every_slot() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let cache = AnalysisCache::new();
        let f = unit.find_function("f").unwrap();
        let _ = cache.for_function(&unit, &f);
        let _ = unit.entry_mut(0);
        let f2 = unit.find_function("f").unwrap();
        let _ = cache.for_function(&unit, &f2);
        assert_eq!(cache.stats().hits, 0, "even content-identical entries");
    }

    /// BRALIGN pads the second of two aliasing back branches through a
    /// layout patch that the unit then holds, so LOOP16 and LSDFIT read it:
    /// the pipeline pays one full solve.
    #[test]
    fn layout_passes_read_the_patched_layout() {
        use crate::pass::{parse_invocations, run_pipeline_shared, PipelineConfig};
        let text = "\t.type\tf, @function\nf:\n\tmovl $0, %eax\n.Louter:\n\tmovl $0, %ebx\n\
            .Linner:\n\taddl $1, %ebx\n\tcmpl $2, %ebx\n\tjne .Linner\n\taddl $1, %eax\n\
            \taddl $2, %ebx\n\tcmpl $2, %eax\n\tjne .Louter\n\tret\n";
        let mut unit = MaoUnit::parse(text).unwrap();
        let analyses = Arc::new(AnalysisCache::new());
        let report = run_pipeline_shared(
            &mut unit,
            &parse_invocations("BRALIGN:LOOP16:LSDFIT").unwrap(),
            None,
            &PipelineConfig { jobs: 1 },
            &analyses,
        )
        .unwrap();
        assert!(report.stats("BRALIGN").unwrap().transformations > 0);
        let stats = analyses.stats();
        assert_eq!(stats.layout_misses, 1, "one full solve: {stats:?}");
        assert!(stats.layout_hits >= 2, "LOOP16 and LSDFIT hit: {stats:?}");
        for pass in ["LOOP16", "LSDFIT"] {
            let notes = &report.stats(pass).unwrap().notes;
            assert!(
                notes.iter().any(|n| n.starts_with("relax: 0 solves")),
                "{pass} solved: {notes:?}"
            );
        }
        assert!(analyses
            .layout(&unit)
            .unwrap()
            .agrees_with(&crate::relax::relax(&unit).unwrap()));
    }

    /// Functions whose passes' edits are all carry-safe: a redundant test
    /// and an add pair (after a label, so no edit starts a block), a
    /// zero-extension and a foldable constant, a loop, and an aligned loop
    /// (LOOP16 and LSDFIT are unit-level passes, whose edits are not
    /// carried).
    const CARRY_UNIT: &str = "\t.text\n\t.type\tf0, @function\nf0:\n\
        \tsubl\t$16, %r15d\n\ttestl\t%r15d, %r15d\n\tjne\t.L1\n.L0:\n\
        \taddl\t$3, %eax\n\taddl\t$4, %eax\n.L1:\n\tret\n\
        \t.type\tf1, @function\nf1:\n\tandl\t$255, %eax\n\tmovl\t%eax, %eax\n\
        \tmovl\t$2, %ecx\n\taddl\t$5, %ecx\n\tret\n\
        \t.type\tf2, @function\nf2:\n\tmovl\t$0, %eax\n.L2:\n\taddl\t$1, %eax\n\
        \tcmpl\t$100, %eax\n\tjne\t.L2\n\tret\n\
        \t.type\tf3, @function\nf3:\n\tmovl\t$1, %edi\n\t.p2align\t4\n.L3:\n\tsubl\t$1, %edi\n\
        \tjne\t.L3\n\tret\n";

    /// The benchmark's ten-pass pipeline builds each function's CFG once:
    /// every later pass gets it from the cache, carried across the edits
    /// the earlier passes made.
    #[test]
    fn pipeline_builds_each_cfg_once() {
        use crate::pass::{parse_invocations, run_pipeline_shared, PipelineConfig};
        use crate::unit::work_counts::{get, CFG_BUILDS};
        let passes = "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT";
        let mut unit = MaoUnit::parse(CARRY_UNIT).unwrap();
        let functions = unit.functions().len();
        let analyses = Arc::new(AnalysisCache::new());
        let before = get(&CFG_BUILDS);
        let report = run_pipeline_shared(
            &mut unit,
            &parse_invocations(passes).unwrap(),
            None,
            &PipelineConfig { jobs: 1 },
            &analyses,
        )
        .unwrap();
        let builds = get(&CFG_BUILDS) - before;
        let edited: Vec<&str> = report
            .passes
            .iter()
            .filter(|(_, stats)| stats.transformations > 0)
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(edited.len() >= 3, "passes that edited: {edited:?}");
        assert!(
            builds <= functions as u64,
            "{builds} CFG builds for {functions} functions"
        );
    }
}

/// The passes whose edits are all one-for-one (SCHED's reorders, REDMOV's
/// load→move rewrites) keep their functions' CFGs in their slots as they
/// are: the first pass builds each CFG once, and no edit after it rebuilds
/// or re-bases one.
#[cfg(test)]
mod rekey_tests {
    use super::*;
    use crate::pass::{parse_invocations, run_pipeline_shared, PipelineConfig};
    use crate::unit::work_counts::{get, CFG_BUILDS, CFG_REBASES};

    #[test]
    fn sched_and_redmov_rebuild_no_cfg_and_rebase_none() {
        let corpus = mao_corpus::generate(&mao_corpus::GeneratorConfig::core_library(0.01));
        let mut unit = MaoUnit::parse(&corpus.asm).unwrap();
        let functions = unit.functions().len() as u64;
        let analyses = Arc::new(AnalysisCache::new());
        let counts = || [&CFG_BUILDS, &CFG_REBASES].map(get);
        let before = counts();
        let report = run_pipeline_shared(
            &mut unit,
            &parse_invocations("SCHED:REDMOV:SCHED").unwrap(),
            None,
            &PipelineConfig { jobs: 1 },
            &analyses,
        )
        .unwrap();
        for f in unit.functions() {
            let cfg = analyses.for_function(&unit, &f).cfg(&unit, &f);
            assert_eq!(*cfg, Cfg::build(&unit, &f), "CFG of `{}`", f.name);
        }
        let after = counts();
        let [builds, rebases] = std::array::from_fn(|i| after[i] - before[i]);
        for pass in ["SCHED", "REDMOV"] {
            assert!(
                report.stats(pass).unwrap().transformations > 0,
                "{pass} edited nothing"
            );
        }
        assert_eq!(
            builds, functions,
            "{builds} CFG builds for {functions} functions"
        );
        assert_eq!(rebases, 0, "{rebases} CFGs re-based");
    }
}

/// The carry rule of [`FunctionAnalyses::carry`]: carried CFGs and loop
/// nests equal from-scratch builds, and every exclusion rebuilds.
#[cfg(test)]
mod carry_tests {
    use super::*;
    use crate::isa::x86::{Cond, Instruction};
    use crate::pass::{run_functions, PassContext};
    use crate::unit::work_counts::{get, CFG_BUILDS};
    use mao_asm::Entry;

    /// Run one function-level pass whose body builds each function's CFG
    /// and loop nest and returns `edit`'s edits for it. Then look every
    /// function up again, check its CFG and loop nest against from-scratch
    /// builds, and return the CFG builds each lookup cost (0 = carried or
    /// left alone).
    fn edit_and_relook(
        unit: &mut MaoUnit,
        ctx: &mut PassContext,
        edit: impl Fn(&MaoUnit, &Function, &Cfg) -> EditSet + Sync,
    ) -> Vec<u64> {
        run_functions(unit, ctx, |unit, function, fctx| {
            let cfg = fctx.cfg(unit, function);
            fctx.loops(unit, function);
            Ok(edit(unit, function, &cfg))
        })
        .unwrap();
        unit.functions()
            .iter()
            .map(|f| {
                let before = get(&CFG_BUILDS);
                let slot = ctx.analyses.for_function(unit, f);
                let cfg = slot.cfg(unit, f);
                assert_eq!(*cfg, Cfg::build(unit, f), "CFG of `{}`", f.name);
                assert_eq!(
                    *slot.loops(unit, f),
                    find_loops(&cfg),
                    "loops of `{}`",
                    f.name
                );
                get(&CFG_BUILDS) - before
            })
            .collect()
    }

    fn nop() -> Vec<Entry> {
        vec![Entry::Insn(Instruction::nop().into())]
    }

    /// xorshift64*: a seeded stream for the property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A seeded unit of one-span functions: blocks that open with or
    /// without a label, plain instructions and calls inside, and forward
    /// and backward conditional and unconditional branches at their ends.
    fn random_unit(rng: &mut Rng) -> String {
        let plain = [
            "\taddl\t$1, %eax\n",
            "\tmovl\t%ecx, %edx\n",
            "\tsubq\t$8, %rsp\n",
            "\tnop\n",
            "\tmovq\t8(%rsp), %rdi\n",
            "\tcall\tg\n",
            "\t.p2align\t4\n",
        ];
        let mut text = String::from("\t.text\n");
        for f in 0..4 {
            text += &format!("\t.type\tf{f}, @function\nf{f}:\n");
            let blocks = 2 + rng.below(6);
            for b in 0..blocks {
                if b > 0 && rng.below(3) > 0 {
                    text += &format!(".L{f}_{b}:\n");
                }
                for _ in 0..1 + rng.below(5) {
                    text += plain[rng.below(plain.len())];
                }
                let target = rng.below(blocks);
                match rng.below(5) {
                    0 => text += &format!("\tjne\t.L{f}_{target}\n"),
                    1 => text += &format!("\tjmp\t.L{f}_{target}\n"),
                    2 if b + 1 == blocks => text += "\tret\n",
                    _ => {}
                }
            }
            text += "\tret\n";
        }
        text
    }

    /// Seeded plain edit sets — deletes, instruction replacements, and
    /// inserts before and after — at ids that start no block, over several
    /// rounds: every function's CFG and loop nest is carried, never
    /// rebuilt, and equals a from-scratch build.
    #[test]
    fn carried_analyses_match_a_rebuild() {
        let edited = std::sync::atomic::AtomicUsize::new(0);
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let text = random_unit(&mut rng);
            let mut unit = MaoUnit::parse(&text).unwrap();
            let mut ctx = PassContext::default();
            for round in 0..4u64 {
                let builds = edit_and_relook(&mut unit, &mut ctx, |unit, f, cfg| {
                    let mut rng = Rng((seed << 8 | round) ^ fnv(&f.name) | 1);
                    let mut edits = EditSet::new();
                    for block in &cfg.blocks {
                        for &id in &block.entries[1..] {
                            if !is_plain(unit.entry(id)) || rng.below(4) > 0 {
                                continue;
                            }
                            match rng.below(5) {
                                0 => edits.delete(id),
                                1 => edits.replace_insn(id, Instruction::nop_of_len(2)),
                                2 => edits.insert_before(id, nop()),
                                3 => edits.insert_after(id, nop()),
                                _ => edits.replace(id, [nop(), nop()].concat()),
                            };
                        }
                    }
                    edited.fetch_add(edits.len(), std::sync::atomic::Ordering::Relaxed);
                    edits
                });
                assert!(
                    builds.iter().all(|&b| b == 0),
                    "seed {seed} round {round}: CFG rebuilds {builds:?}\n{text}"
                );
            }
        }
        assert!(
            edited.into_inner() > 1000,
            "the edit sets must not be empty"
        );
    }

    fn fnv(name: &str) -> u64 {
        crate::isa::x86::fnv::fnv1a64(name.as_bytes())
    }

    /// Two functions: `f` with a branch over a fallthrough block and a
    /// labeled block, and `g`, which every edit to `f` shifts.
    const BRANCHY: &str = "\t.text\n\t.type\tf, @function\nf:\n\tmovl\t$1, %eax\n\
        \tjne\t.L1\n\taddl\t$2, %eax\n\taddl\t$3, %eax\n.L1:\n\taddl\t$4, %eax\n\tret\n\
        \t.type\tg, @function\ng:\n\tnop\n\tnop\n\tret\n";

    /// Apply `edit` to `f` of `text` and return the CFG builds each
    /// function's next lookup costs (`g`'s 0 shows the index was patched).
    fn rebuilds_after(text: &str, edit: impl Fn(&MaoUnit, &Cfg) -> EditSet + Sync) -> Vec<u64> {
        let mut unit = MaoUnit::parse(text).unwrap();
        let mut ctx = PassContext::default();
        edit_and_relook(&mut unit, &mut ctx, |unit, f, cfg| {
            if f.name == "f" {
                edit(unit, cfg)
            } else {
                EditSet::new()
            }
        })
    }

    /// A plain edit in `f` carries both functions: the edited one and the
    /// one it shifts.
    #[test]
    fn plain_edit_carries_the_edited_and_the_shifted_function() {
        let builds = rebuilds_after(BRANCHY, |_, cfg| {
            let mut edits = EditSet::new();
            edits.delete(cfg.blocks[1].entries[1]);
            edits
        });
        assert_eq!(builds, [0, 0]);
    }

    /// Liveness rides along with a function the edit only shifts; the
    /// edited function's is recomputed (the inserted `movl` reads `%edx`,
    /// so `f`'s live-in set changes).
    #[test]
    fn liveness_is_carried_only_for_a_shifted_function() {
        let mut unit = MaoUnit::parse(BRANCHY).unwrap();
        let mut ctx = PassContext::default();
        let before: Vec<Arc<Liveness>> = unit
            .functions()
            .iter()
            .map(|f| ctx.analyses.for_function(&unit, f).liveness(&unit, f))
            .collect();
        run_functions(&mut unit, &mut ctx, |unit, f, fctx| {
            let cfg = fctx.cfg(unit, f);
            let mut edits = EditSet::new();
            if f.name == "f" {
                let reads_edx = MaoUnit::parse("\tmovl\t%edx, %ebx\n").unwrap();
                edits.insert_before(cfg.blocks[0].entries[1], reads_edx.entries().to_vec());
            }
            Ok(edits)
        })
        .unwrap();
        let after: Vec<Arc<Liveness>> = unit
            .functions()
            .iter()
            .map(|f| {
                let live = ctx.analyses.for_function(&unit, f).liveness(&unit, f);
                assert_eq!(*live, Liveness::compute(&unit, &Cfg::build(&unit, f)));
                live
            })
            .collect();
        assert_ne!(before[0], after[0], "f's live-in set gains %edx");
        assert!(
            Arc::ptr_eq(&before[1], &after[1]),
            "g's liveness is carried"
        );
    }

    #[test]
    fn an_edit_at_a_label_rebuilds() {
        let builds = rebuilds_after(BRANCHY, |_, cfg| {
            let mut edits = EditSet::new();
            edits.insert_before(cfg.blocks[2].entries[0], nop());
            edits
        });
        assert_eq!(builds, [1, 0]);
    }

    #[test]
    fn a_replaced_jcc_rebuilds() {
        let builds = rebuilds_after(BRANCHY, |unit, cfg| {
            let (jcc, _) = cfg.blocks[0].terminator(unit).unwrap();
            let mut edits = EditSet::new();
            edits.replace_insn(jcc, crate::isa::x86::insn::build::jcc(Cond::E, ".L1"));
            edits
        });
        assert_eq!(builds, [1, 0]);
    }

    #[test]
    fn an_insert_at_a_blocks_first_entry_rebuilds() {
        let builds = rebuilds_after(BRANCHY, |_, cfg| {
            // Block 1 is the fallthrough after `jne`: it opens with an
            // instruction, not a label.
            let mut edits = EditSet::new();
            edits.insert_before(cfg.blocks[1].entries[0], nop());
            edits
        });
        assert_eq!(builds, [1, 0]);
    }

    #[test]
    fn a_jump_table_function_rebuilds() {
        let text = "\t.text\n\t.type\tf, @function\nf:\n\tnop\n\tnop\n\tjmp *.Ltab(,%rax,8)\n\
            .Lc0:\n\tret\n.Lc1:\n\tret\n\t.type\tg, @function\ng:\n\tnop\n\tret\n\
            \t.section\t.rodata\n.Ltab:\n\t.quad\t.Lc0\n\t.quad\t.Lc1\n";
        let builds = rebuilds_after(text, |_, cfg| {
            assert_eq!(cfg.resolved_indirect, 1);
            let mut edits = EditSet::new();
            edits.delete(cfg.blocks[0].entries[1]);
            edits
        });
        assert_eq!(builds, [1, 0]);
    }

    #[test]
    fn a_two_span_function_rebuilds() {
        let text = "\t.text\n\t.type\tf, @function\nf:\n\tnop\n\tnop\n\
            \t.section\t.rodata\n\t.long\t1\n\t.text\n\tnop\n\tret\n\
            \t.type\tg, @function\ng:\n\tnop\n\tret\n";
        let builds = rebuilds_after(text, |unit, cfg| {
            assert_eq!(unit.find_function("f").unwrap().spans.len(), 2);
            let mut edits = EditSet::new();
            edits.delete(cfg.blocks[0].entries[1]);
            edits
        });
        assert_eq!(builds, [1, 0]);
    }
}
