//! [`AnalysisCache`] across units and runs: a function's analyses live in
//! its unit's index, so sequential `run_pipeline_shared` runs over
//! different unit instances share one cache without sharing analyses —
//! identical text parsed twice misses, a clone shares its source's until
//! either copy is edited, and units that differ only outside their
//! functions (jump tables) keep their own CFGs. A structural edit empties
//! every slot, and a long-lived cache keeps nothing of a dropped unit.

use std::sync::{Arc, Weak};

use mao::cfg::Cfg;
use mao::isa::x86::Instruction;
use mao::pass::{parse_invocations, run_pipeline_shared, PipelineConfig};
use mao::{AnalysisCache, EditSet, MaoUnit};
use mao_asm::Entry;

/// `n` distinct small functions; LFIND (analysis-only) visits each one.
fn unit_text(n: usize) -> String {
    let mut text = String::from("\t.text\n");
    for i in 0..n {
        text.push_str(&format!(
            "\t.type\tf{i}, @function\nf{i}:\n.L{i}:\n\taddl ${i}, %eax\n\tjne .L{i}\n\tret\n"
        ));
    }
    text
}

fn run(unit: &mut MaoUnit, passes: &str, analyses: &Arc<AnalysisCache>) {
    let invocations = parse_invocations(passes).unwrap();
    run_pipeline_shared(
        unit,
        &invocations,
        None,
        &PipelineConfig { jobs: 1 },
        analyses,
    )
    .unwrap();
}

/// The function-level analyses of `unit`, looked up once per function.
fn lookups(unit: &MaoUnit, analyses: &AnalysisCache) {
    for f in unit.functions() {
        analyses.for_function(unit, &f).cfg(unit, &f);
    }
}

#[test]
fn a_second_parse_of_identical_text_misses_every_function() {
    let text = unit_text(6);
    let analyses = Arc::new(AnalysisCache::new());

    // First run, fresh cache: every function's analyses are built exactly
    // once. (The counters are per *lookup* — a pass that asks for cfg then
    // loops performs two lookups per function, so hits can be non-zero
    // even on the first run; what matters is the build count.)
    let mut first = MaoUnit::parse(&text).unwrap();
    let functions = first.functions().len() as u64;
    assert_eq!(functions, 6);
    run(&mut first, "LFIND", &analyses);
    let s1 = analyses.stats();
    assert_eq!(s1.misses, functions, "each function built exactly once");

    // A *different* unit parsed from the same text has slots of its own: every
    // function misses once, then hits within the run as before.
    let mut second = MaoUnit::parse(&text).unwrap();
    run(&mut second, "LFIND", &analyses);
    let s2 = analyses.stats();
    assert_eq!(s2.misses, 2 * functions, "identical text is another unit");
    assert_eq!(s2.hits, 2 * s1.hits);
}

#[test]
fn a_clone_shares_its_sources_analyses_until_edited() {
    let text = unit_text(3);
    let analyses = AnalysisCache::new();
    let mut unit = MaoUnit::parse(&text).unwrap();
    lookups(&unit, &analyses);
    assert_eq!(analyses.stats().misses, 3);

    // A clone shares the index and its slots: every function hits.
    let clone = unit.clone();
    lookups(&clone, &analyses);
    assert_eq!(analyses.stats().misses, 3);
    assert_eq!(analyses.stats().hits, 3);

    // Editing the original's last function empties its slot alone
    // (nothing after it shifts); the clone keeps its own slots.
    let last = unit.functions().pop().unwrap();
    let insn = last
        .entry_ids()
        .find(|&id| unit.insn(id).is_some())
        .unwrap();
    let mut edits = EditSet::new();
    edits.replace_insn(insn, Instruction::nop_of_len(3));
    unit.apply(edits);
    lookups(&unit, &analyses);
    assert_eq!(analyses.stats().misses, 4, "only the edited function");
    lookups(&clone, &analyses);
    assert_eq!(analyses.stats().misses, 4, "the clone's copy is its own");
    for copy in [&unit, &clone] {
        for f in copy.functions() {
            let cfg = analyses.for_function(copy, &f).cfg(copy, &f);
            assert_eq!(*cfg, Cfg::build(copy, &f), "CFG of `{}`", f.name);
        }
    }
}

#[test]
fn an_edit_that_only_shifts_a_function_empties_its_slot() {
    let text = unit_text(3);
    let analyses = AnalysisCache::new();
    let mut unit = MaoUnit::parse(&text).unwrap();
    lookups(&unit, &analyses);
    let f0 = unit.find_function("f0").unwrap();
    let insn = f0.entry_ids().find(|&id| unit.insn(id).is_some()).unwrap();
    let mut edits = EditSet::new();
    edits.insert_after(insn, vec![Entry::Insn(Instruction::nop().into())]);
    unit.apply(edits);
    let before = analyses.stats();
    lookups(&unit, &analyses);
    let after = analyses.stats();
    // f0 is edited, f1 and f2 only shift: all three start over.
    assert_eq!(after.misses, before.misses + 3);
    assert_eq!(after.hits, before.hits);
}

/// `f` dispatches through `.Ltab`; the units differ only in the table.
fn jump_table_unit(table: &str) -> MaoUnit {
    MaoUnit::parse(&format!(
        "\t.text\n\t.type\tf, @function\nf:\n\tjmp *.Ltab(,%rax,8)\n\
         .Lc0:\n\tret\n.Lc1:\n\tret\n\t.section\t.rodata\n.Ltab:\n{table}"
    ))
    .unwrap()
}

#[test]
fn units_differing_only_in_jump_tables_keep_their_own_cfgs() {
    let a = jump_table_unit("\t.quad\t.Lc0\n\t.quad\t.Lc1\n");
    let b = jump_table_unit("\t.quad\t.Lc1\n\t.quad\t.Lc1\n");
    let analyses = AnalysisCache::new();
    let (fa, fb) = (a.find_function("f").unwrap(), b.find_function("f").unwrap());
    assert_eq!(fa, fb, "identical bodies at identical positions");
    for _ in 0..2 {
        for unit in [&a, &b] {
            let cfg = analyses.for_function(unit, &fa).cfg(unit, &fa);
            assert_eq!(*cfg, Cfg::build(unit, &fa));
        }
    }
    assert_ne!(
        Cfg::build(&a, &fa).blocks[0].succs,
        Cfg::build(&b, &fb).blocks[0].succs,
        "the tables lead to different successors"
    );
}

#[test]
fn structural_mutation_empties_every_slot() {
    // One function with an unreachable block: DCE deletes it, label and
    // all, so the index is rebuilt.
    let text = "\t.text\n\t.type\tf, @function\nf:\n\tret\n.Ldead:\n\taddl $1, %eax\n\tret\n";
    let analyses = Arc::new(AnalysisCache::new());
    let mut unit = MaoUnit::parse(text).unwrap();

    run(&mut unit, "LFIND", &analyses);
    assert_eq!(analyses.stats().misses, 1);
    run(&mut unit, "DCE", &analyses);
    assert!(
        !unit.emit().contains(".Ldead"),
        "DCE deletes the dead block"
    );
    let mid = analyses.stats();

    // The function's slot started over: the next run rebuilds instead of
    // serving pre-mutation analyses.
    run(&mut unit, "LFIND", &analyses);
    let after = analyses.stats();
    assert_eq!(
        after.misses,
        mid.misses + 1,
        "post-mutation run must rebuild, not hit stale pre-mutation analyses"
    );
}

/// A long-lived cache (a `maod` shard's) keeps nothing of a unit it served:
/// once the unit is dropped, its CFGs and its layout are freed.
#[test]
fn a_long_lived_cache_keeps_nothing_of_a_dropped_unit() {
    let passes = "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT";
    let analyses = Arc::new(AnalysisCache::new());
    let mut unit = MaoUnit::parse(&unit_text(6)).unwrap();
    run(&mut unit, passes, &analyses);
    let f = unit.find_function("f3").unwrap();
    let cfg: Weak<Cfg> = Arc::downgrade(&analyses.for_function(&unit, &f).cfg(&unit, &f));
    let layout = Arc::downgrade(&analyses.layout(&unit).unwrap());
    assert!(analyses.stats().hits > 0, "the passes shared analyses");
    assert!(cfg.strong_count() > 0 && layout.strong_count() > 0);
    drop(unit);
    assert_eq!(cfg.strong_count(), 0, "the CFG outlived its unit");
    assert_eq!(layout.strong_count(), 0, "the layout outlived its unit");
}

#[test]
fn shared_cache_and_private_cache_agree_on_results() {
    // The cache must be invisible to pass semantics: the same pipeline on
    // the same input emits byte-identical assembly with a cold cache and a
    // warm shared one.
    let text = unit_text(5);
    let passes = "REDTEST:ADDADD:CONSTFOLD:DCE:SCHED";

    let mut cold = MaoUnit::parse(&text).unwrap();
    run(&mut cold, passes, &Arc::new(AnalysisCache::new()));

    let shared = Arc::new(AnalysisCache::new());
    let mut warmup = MaoUnit::parse(&text).unwrap();
    run(&mut warmup, passes, &shared);
    let mut warm = MaoUnit::parse(&text).unwrap();
    run(&mut warm, passes, &shared);

    assert_eq!(cold.emit(), warm.emit());
}
