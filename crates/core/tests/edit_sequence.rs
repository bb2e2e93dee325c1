//! Seeded edit sequences against one shared [`AnalysisCache`].
//!
//! Analyses live in the unit: one slot per function in its index, kept
//! across patches that leave the function alone and emptied (or carried)
//! when an edit touches or shifts it, every slot dropped with the index by
//! a structural edit; and the layout the unit holds until its next edit.
//! Each step below applies a random interior, boundary-adjacent,
//! structural or multi-function `EditSet`, or writes through `entry_mut`,
//! and then checks every function's cached CFG and liveness against a fresh
//! build, and the unit's layout against a from-scratch solve. A slot kept
//! across an edit that changed its function shows up as a stale CFG or
//! liveness table.
//!
//! The generator is a xorshift64 loop, so a failure reproduces from the
//! printed seed and step.

use mao::cfg::Cfg;
use mao::dataflow::Liveness;
use mao::relax::relax;
use mao::unit::{EditSet, EntryId, Function, MaoUnit};
use mao::AnalysisCache;
use mao_asm::Entry;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        (!items.is_empty()).then(|| &items[self.below(items.len())])
    }
}

const REGS: [&str; 6] = ["%eax", "%ebx", "%ecx", "%edx", "%esi", "%edi"];

/// One random instruction line of function `k`, which defines labels
/// `.L{k}_0 .. .L{k}_{labels-1}`.
fn random_insn(rng: &mut XorShift, k: usize, labels: usize) -> String {
    let r = REGS[rng.below(REGS.len())];
    let s = REGS[rng.below(REGS.len())];
    match rng.below(8) {
        0 => format!("\tmovl\t{r}, {s}\n"),
        1 => format!("\taddl\t${}, {r}\n", rng.below(9)),
        2 => format!("\tsubl\t{r}, {s}\n"),
        3 => "\tnop\n".to_string(),
        4 => format!("\tcmpl\t${}, {r}\n", rng.below(9)),
        5 => format!("\ttestl\t{r}, {r}\n"),
        6 => "\tret\n".to_string(),
        _ => {
            let op = ["jne", "je", "jl", "jmp"][rng.below(4)];
            format!("\t{op}\t.L{k}_{}\n", rng.below(labels))
        }
    }
}

fn entries(text: &str) -> Vec<Entry> {
    mao_asm::parse(text).unwrap()
}

/// A unit of 2–5 functions with local labels, branches and loops; some
/// functions dispatch through a jump table in `.rodata`, either after all
/// the text or splitting the function's own text (the §II pattern).
fn random_unit(rng: &mut XorShift) -> MaoUnit {
    let mut text = String::from("\t.text\n");
    let mut trailing = String::new();
    for k in 0..2 + rng.below(4) {
        text.push_str(&format!(
            "\t.globl\tf{k}\n\t.type\tf{k}, @function\nf{k}:\n"
        ));
        let labels = 1 + rng.below(4);
        let dispatch_at = rng.below(labels + 1);
        for j in 0..labels {
            if j == dispatch_at {
                text.push_str(&format!("\tjmp\t*.Ltab{k}(,%rax,8)\n"));
                let mut table = format!(".Ltab{k}:\n");
                for _ in 0..1 + rng.below(3) {
                    table.push_str(&format!("\t.quad\t.L{k}_{}\n", rng.below(labels)));
                }
                if rng.below(2) == 0 {
                    text.push_str(&format!("\t.section\t.rodata\n{table}\t.text\n"));
                } else {
                    trailing.push_str(&table);
                }
            }
            for _ in 0..rng.below(5) {
                text.push_str(&random_insn(rng, k, labels));
            }
            text.push_str(&format!(".L{k}_{j}:\n"));
        }
        for _ in 0..rng.below(4) {
            text.push_str(&random_insn(rng, k, labels));
        }
        text.push_str("\tret\n");
    }
    if !trailing.is_empty() {
        text.push_str("\t.section\t.rodata\n");
        text.push_str(&trailing);
    }
    MaoUnit::parse(&text).unwrap()
}

fn is_structural(e: &Entry) -> bool {
    match e {
        Entry::Label(_) => true,
        Entry::Insn(_) => false,
        Entry::Directive(d) => {
            d.section_name().is_some() || matches!(d, mao_asm::Directive::Type { .. })
        }
    }
}

/// Non-structural ids strictly inside `f`'s spans: editing one patches the
/// index in place.
fn interior(unit: &MaoUnit, f: &Function) -> Vec<EntryId> {
    f.spans
        .iter()
        .flat_map(|s| s.start + 1..s.end)
        .filter(|&id| !is_structural(unit.entry(id)))
        .collect()
}

/// A random interior edit of `f`: replace (entry count unchanged), delete,
/// or insert around one interior entry. `None` if `f` has none.
fn interior_edit(rng: &mut XorShift, unit: &MaoUnit, f: &Function, k: usize) -> Option<EditSet> {
    let &id = rng.pick(&interior(unit, f))?;
    let mut edits = EditSet::new();
    let insn = entries(&random_insn(rng, k, 2));
    match rng.below(4) {
        0 | 1 => edits.replace(id, insn),
        2 => edits.delete(id),
        _ if rng.below(2) == 0 => edits.insert_before(id, insn),
        _ => edits.insert_after(id, insn),
    };
    Some(edits)
}

/// One random step; returns what it did, for failure messages.
fn step(rng: &mut XorShift, unit: &mut MaoUnit) -> String {
    let functions = unit.functions();
    let Some(f) = rng.pick(&functions).cloned() else {
        return "no functions left".to_string();
    };
    let k = rng.below(4);
    match rng.below(10) {
        // Interior edits: the index is patched, slots kept, carried or emptied.
        0..=3 => match interior_edit(rng, unit, &f, k) {
            Some(edits) => {
                unit.apply(edits);
                format!("interior edit of {}", f.name)
            }
            None => "no interior entry".to_string(),
        },
        // Interior edits in two functions, merged into one set.
        4 => {
            let mut edits = EditSet::new();
            for g in [&f, rng.pick(&functions).unwrap()] {
                if let Some(e) = interior_edit(rng, unit, g, k) {
                    edits.merge(e);
                }
            }
            unit.apply(edits);
            "merged interior edits".to_string()
        }
        // Boundary-adjacent: right after the function label (patchable),
        // the last entry of a span (patchable if not structural), or right
        // before the label (falls back to a rebuild).
        5 => {
            let mut edits = EditSet::new();
            let insn = entries(&random_insn(rng, k, 2));
            let last = f.spans[rng.below(f.spans.len())].end - 1;
            match rng.below(3) {
                0 => edits.insert_after(f.label_id, insn),
                1 if last > f.label_id && !is_structural(unit.entry(last)) => {
                    edits.replace(last, insn)
                }
                _ => edits.insert_before(f.label_id, insn),
            };
            unit.apply(edits);
            format!("boundary edit of {}", f.name)
        }
        // Structural: a new local label, a deleted one, or a rewritten
        // jump-table entry outside every function span.
        6 | 7 => {
            let mut edits = EditSet::new();
            let data: Vec<EntryId> = (0..unit.len())
                .filter(|&id| {
                    matches!(
                        unit.entry(id),
                        Entry::Directive(mao_asm::Directive::Data { .. })
                    )
                })
                .collect();
            let labels: Vec<EntryId> = f
                .entry_ids()
                .filter(|&id| id != f.label_id && matches!(unit.entry(id), Entry::Label(_)))
                .collect();
            match rng.below(3) {
                0 if !data.is_empty() => {
                    let id = *rng.pick(&data).unwrap();
                    let line = format!("\t.quad\t.L{k}_{}\n", rng.below(3));
                    edits.replace(id, entries(&line));
                }
                1 if !labels.is_empty() => {
                    edits.delete(*rng.pick(&labels).unwrap());
                }
                _ => {
                    let id = rng.pick(&interior(unit, &f)).copied().unwrap_or(f.label_id);
                    edits.insert_after(id, entries(&format!(".L{k}_{}:\n", rng.below(5))));
                }
            }
            unit.apply(edits);
            format!("structural edit near {}", f.name)
        }
        // Appending at the end of the unit (the last function or `.rodata`
        // grows): always a rebuild.
        8 => {
            let mut edits = EditSet::new();
            edits.insert_before(usize::MAX, entries(&random_insn(rng, k, 2)));
            unit.apply(edits);
            "append".to_string()
        }
        // A write through `entry_mut` to an instruction.
        _ => {
            let insns: Vec<EntryId> = (0..unit.len())
                .filter(|&id| unit.insn_any(id).is_some())
                .collect();
            match rng.pick(&insns) {
                Some(&id) => {
                    let new = entries(&random_insn(rng, k, 2)).remove(0);
                    *unit.entry_mut(id) = new;
                    format!("entry_mut at {id}")
                }
                None => "no instruction".to_string(),
            }
        }
    }
}

/// Every function's cached analyses equal a fresh build, through the
/// index's own view and through one that does not match the index (built
/// uncached); and the layout the unit holds is that of its current
/// entries, not of an earlier version of them.
fn check(unit: &MaoUnit, cache: &AnalysisCache, ctx: &str) {
    for f in unit.functions() {
        let mut trimmed = f.clone();
        trimmed.name.push_str(".trimmed");
        trimmed.spans.last_mut().unwrap().end -= 1;
        for view in [&f, &trimmed] {
            let analyses = cache.for_function(unit, view);
            let fresh = Cfg::build(unit, view);
            assert_eq!(
                *analyses.cfg(unit, view),
                fresh,
                "{ctx}: stale CFG for {view:?}\n{}",
                unit.emit()
            );
            assert_eq!(
                *analyses.liveness(unit, view),
                Liveness::compute(unit, &fresh),
                "{ctx}: stale liveness for {view:?}\n{}",
                unit.emit()
            );
        }
    }
    assert!(
        cache
            .layout(unit)
            .unwrap()
            .agrees_with(&relax(unit).unwrap()),
        "{ctx}: the unit held a stale layout"
    );
}

#[test]
fn cached_analyses_track_random_edit_sequences() {
    // One cache for every seed: units from different seeds reuse the names
    // f0..f4 and must still keep their analyses apart.
    let cache = AnalysisCache::new();
    for seed in 1..=60u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut unit = random_unit(&mut rng);
        check(&unit, &cache, &format!("seed {seed} initial"));
        for n in 0..30 {
            let what = step(&mut rng, &mut unit);
            check(&unit, &cache, &format!("seed {seed} step {n} ({what})"));
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
}
