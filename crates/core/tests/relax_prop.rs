//! Property tests for the fragment relaxation engine.
//!
//! 1. On arbitrary generated units, `relax` (fragments + worklist) must
//!    produce exactly the layout of `relax_reference` (the retained legacy
//!    entry-at-a-time solver): same addresses, sizes, branch forms, and
//!    iteration count.
//! 2. After arbitrary random edit batches, `LayoutCache::patch` must leave
//!    the unit and its cached layout identical to applying the same edits
//!    to a clone and solving from scratch — including edits that force the
//!    full-solve fallback (section directives).
//! 3. On the synthetic corpus plus the paper's branch-heavy kernels, a full
//!    solve, a NOP edit sequence solved three ways, and the
//!    `BRALIGN:LOOP16:LSDFIT` pipeline all agree with the reference. In
//!    debug builds the pipeline also checks every layout its passes read
//!    against the reference.
//!
//! The generator derives whole programs from one `u64` via SplitMix64, so
//! every failure reproduces from the printed seed.

use mao::isa::x86::Instruction;
use mao::pass::{parse_invocations, run_pipeline_with, PipelineConfig};
use mao::relax::{relax, relax_reference, LayoutCache};
use mao::unit::{EditSet, EntryId, MaoUnit};
use mao_asm::Entry;
use mao_corpus::{generate, kernels, GeneratorConfig, Workload};
use proptest::prelude::*;

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// `.Lx` is only rarely defined, so branches to it usually stay unresolved
/// (pinned rel32) — the case the worklist must never re-check.
const LABELS: [&str; 5] = [".La", ".Lb", ".Lc", ".Ld", ".Lx"];

/// A random unit: nop runs sized to put branch deltas near the ±0x7f rel8
/// boundary, duplicate labels, forward/backward/unresolved branches, calls,
/// `.p2align` with and without max-skip, and occasional section switches.
fn random_asm(seed: u64) -> String {
    let mut st = seed;
    let mut s = String::new();
    let items = 8 + below(&mut st, 32);
    for _ in 0..items {
        match below(&mut st, 20) {
            0..=6 => {
                for _ in 0..=below(&mut st, 45) {
                    s.push_str("\tnop\n");
                }
            }
            7..=9 => {
                // Repeated definitions exercise first-wins label resolution.
                s.push_str(LABELS[below(&mut st, 4) as usize]);
                s.push_str(":\n");
            }
            10..=12 => {
                let op = ["jne", "je", "jl", "jmp"][below(&mut st, 4) as usize];
                let l = LABELS[below(&mut st, 5) as usize];
                s.push_str(&format!("\t{op} {l}\n"));
            }
            13 => {
                let l = ["f", ".La"][below(&mut st, 2) as usize];
                s.push_str(&format!("\tcall {l}\n"));
            }
            14..=15 => {
                let d = [".p2align 4", ".p2align 4,,7", ".p2align 3,,2", ".p2align 5"]
                    [below(&mut st, 4) as usize];
                s.push_str(&format!("\t{d}\n"));
            }
            16..=18 => {
                let i = [
                    "addl $1, %eax",
                    "movl $305419896, %ecx",
                    "cmpl $0, %edx",
                    "subl $1, -4(%rbp)",
                    "ret",
                ][below(&mut st, 5) as usize];
                s.push_str(&format!("\t{i}\n"));
            }
            _ => {
                let d = [".text", ".section .text.cold"][below(&mut st, 2) as usize];
                s.push_str(&format!("\t{d}\n"));
            }
        }
    }
    s
}

fn parse_entries(asm: &str) -> Vec<Entry> {
    MaoUnit::parse(asm).unwrap().entries().to_vec()
}

/// A random edit batch against a unit of `len` entries: inserts (including
/// labels, branches, alignment, and — to exercise the patch fallback —
/// section directives), deletes, replaces, and end-of-unit appends.
fn random_edits(st: &mut u64, len: usize) -> EditSet {
    let snippets = [
        "\tnop\n",
        "\tnop\n\tnop\n\tnop\n",
        "\taddl $1, %eax\n",
        ".Lb:\n",
        "\tjne .La\n",
        "\t.p2align 4,,7\n",
        "\t.section .text.cold\n",
    ];
    let mut edits = EditSet::new();
    for _ in 0..=below(st, 3) {
        let snippet = snippets[below(st, snippets.len() as u64) as usize];
        match below(st, 10) {
            0..=4 if len > 0 => {
                edits.insert_before(below(st, len as u64) as usize, parse_entries(snippet));
            }
            5..=6 if len > 0 => {
                edits.delete(below(st, len as u64) as usize);
            }
            7..=8 if len > 0 => {
                edits.replace(below(st, len as u64) as usize, parse_entries(snippet));
            }
            _ => {
                edits.insert_before(usize::MAX, parse_entries(snippet));
            }
        }
    }
    edits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn fragment_relax_matches_reference(seed in any::<u64>()) {
        let asm = random_asm(seed);
        let unit = MaoUnit::parse(&asm)
            .unwrap_or_else(|e| panic!("generated asm must parse ({e:?}), seed {seed}:\n{asm}"));
        let reference = relax_reference(&unit)
            .unwrap_or_else(|e| panic!("reference solve failed ({e}), seed {seed}:\n{asm}"));
        let fragment = relax(&unit)
            .unwrap_or_else(|e| panic!("fragment solve failed ({e}), seed {seed}:\n{asm}"));
        prop_assert!(
            fragment.agrees_with(&reference),
            "layouts diverge, seed {seed}:\n{asm}"
        );
    }

    #[test]
    fn incremental_patch_matches_full_relax(seed in any::<u64>()) {
        let asm = random_asm(seed);
        let mut unit = MaoUnit::parse(&asm)
            .unwrap_or_else(|e| panic!("generated asm must parse ({e:?}), seed {seed}:\n{asm}"));
        let mut cache = LayoutCache::new();
        cache
            .layout(&unit)
            .unwrap_or_else(|e| panic!("initial solve failed ({e}), seed {seed}:\n{asm}"));
        let mut st = seed ^ 0x5ca1_ab1e_0ddb_a11;
        for round in 0..3 {
            let edits = random_edits(&mut st, unit.len());
            let mut expected_unit = unit.clone();
            expected_unit.apply(edits.clone());
            cache
                .patch(&mut unit, edits)
                .unwrap_or_else(|e| panic!("patch failed ({e}), seed {seed} round {round}:\n{asm}"));
            prop_assert_eq!(
                unit.entries(),
                expected_unit.entries(),
                "patched unit text diverged, seed {} round {}",
                seed,
                round
            );
            let patched = cache
                .layout(&unit)
                .unwrap_or_else(|e| panic!("patched solve failed ({e}), seed {seed}:\n{asm}"));
            let expected = relax_reference(&expected_unit)
                .unwrap_or_else(|e| panic!("reference solve failed ({e}), seed {seed}:\n{asm}"));
            prop_assert!(
                patched.agrees_with(&expected),
                "patched layout diverges from full solve, seed {seed} round {round}:\n{asm}"
            );
        }
    }
}

/// Synthetic compiler output plus the paper's branch-heavy kernels. The
/// generator plants only forward branches, so the kernels supply the
/// back-branch and alignment work; labels and entry symbols are uniquified
/// so several instances coexist in one unit.
fn corpus_unit() -> MaoUnit {
    let mut asm = generate(&GeneratorConfig::core_library(0.02)).asm;
    let instances: Vec<Workload> = vec![
        kernels::mcf_fig1(false, 8),
        kernels::mcf_fig1(true, 8),
        kernels::eon_short_loop(10, 4, 4),
        kernels::eon_short_loop(3, 4, 4),
        kernels::hashing(true, 16),
        kernels::hashing(false, 16),
        kernels::port_contention(16),
        kernels::lsd_loop(10, 8),
        kernels::lsd_loop(2, 8),
        kernels::image_nest(12, 4),
        kernels::streaming_with_hot_set(false, 8),
    ];
    for (i, w) in instances.into_iter().enumerate() {
        let text = w
            .asm
            .replace(".L", &format!(".Lk{i}_"))
            .replace(&w.entry, &format!("{}_{i}", w.entry));
        asm.push_str(&text);
    }
    MaoUnit::parse(&asm).expect("corpus parses")
}

/// `n` instruction ids spread over the unit, descending, so inserting
/// before one leaves the ids of the sites still to come unchanged.
fn edit_sites(unit: &MaoUnit, n: usize) -> Vec<EntryId> {
    let ids: Vec<EntryId> = (0..unit.len())
        .filter(|&id| unit.insn(id).is_some())
        .collect();
    let mut sites: Vec<EntryId> = (1..=n)
        .map(|k| ids[k * (ids.len() - 1) / (n + 1)])
        .collect();
    sites.sort_unstable();
    sites.dedup();
    sites.reverse();
    sites
}

fn one_nop_before(site: EntryId) -> EditSet {
    let mut edits = EditSet::new();
    edits.insert_before(site, vec![Entry::Insn(Instruction::nop_of_len(1).into())]);
    edits
}

#[test]
fn corpus_full_solve_matches_reference() {
    let unit = corpus_unit();
    let reference = relax_reference(&unit).expect("reference solve");
    assert!(reference.branch_form.iter().flatten().count() > 0);
    assert!(
        relax(&unit)
            .expect("fragment solve")
            .agrees_with(&reference),
        "fragment layout diverges from the reference solver"
    );
}

#[test]
fn corpus_edit_sequence_agrees_across_solvers() {
    let base = corpus_unit();
    let sites = edit_sites(&base, 8);
    assert_eq!(sites.len(), 8);

    // Each step re-laid-out three ways: reference full solve, fragment full
    // solve, and an incremental patch of the cached fragment model.
    let (mut by_reference, mut by_fragments, mut by_patch) =
        (base.clone(), base.clone(), base.clone());
    let mut cache = LayoutCache::new();
    cache.layout(&by_patch).expect("initial solve");
    for &site in &sites {
        by_reference.apply(one_nop_before(site));
        let reference = relax_reference(&by_reference).expect("reference solve");
        by_fragments.apply(one_nop_before(site));
        let fragments = relax(&by_fragments).expect("fragment solve");
        assert!(
            fragments.agrees_with(&reference),
            "site {site}: fragment solve diverges"
        );
        cache
            .patch(&mut by_patch, one_nop_before(site))
            .expect("patch applies");
    }
    let text = by_patch.emit();
    assert_eq!(by_reference.emit(), text, "edit sequences must agree");
    assert_eq!(by_fragments.emit(), text, "edit sequences must agree");
    let patched = cache.layout(&by_patch).expect("patched layout");
    assert!(
        patched.agrees_with(&relax_reference(&by_patch).expect("final reference solve")),
        "patched unit's layout diverges from the reference solver"
    );
}

#[test]
fn corpus_alignment_pipeline_agrees_with_reference() {
    let mut unit = corpus_unit();
    let before = unit.emit();
    let invocations = parse_invocations("BRALIGN:LOOP16:LSDFIT").expect("pipeline parses");
    run_pipeline_with(&mut unit, &invocations, None, &PipelineConfig { jobs: 1 })
        .expect("pipeline runs");
    let after = unit.emit();
    assert_ne!(before, after, "the kernels give the alignment passes work");
    let reparsed = MaoUnit::parse(&after).expect("output reparses");
    assert!(
        relax(&reparsed)
            .expect("fragment solve")
            .agrees_with(&relax_reference(&reparsed).expect("reference solve")),
        "aligned output's layout diverges from the reference solver"
    );
}
