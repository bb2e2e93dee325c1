//! `INSTPREP` — dynamic instrumentation support (paper §III.E.l).
//!
//! A binary instrumenter that wants to patch a probe into running code must
//! overwrite 5 bytes (a rel32 branch) atomically. That is only safe if a
//! single 5-byte instruction already sits at the patch site and does not
//! cross a cache line. This pass plants a 5-byte NOP at every function entry
//! and before every exit (`ret`), then iterates with relaxation until none
//! of the planted NOPs crosses a cache-line boundary (padding with 1-byte
//! NOPs as needed).
//!
//! Options: `line[N]` — cache-line size (default 64).

use crate::isa::x86::{Instruction, Mnemonic};
use mao_asm::Entry;
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::passes::layout_util::LayoutProvider;
use crate::unit::{EditSet, EntryId, MaoUnit};

/// Is this entry one of our 5-byte probe NOPs?
fn is_probe(unit: &MaoUnit, id: EntryId) -> bool {
    unit.insn(id)
        .is_some_and(|i| *i == Instruction::nop_of_len(5))
}

/// The instrumentation-point preparation pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let line = ctx.options.get_u64("line", 64).max(8);

    // Phase 1: plant the probes (function-local, runs on the parallel
    // driver; phase 2 below is layout-global and stays sequential).
    let mut stats = run_functions(unit, ctx, |unit, function, fctx| {
        let mut edits = EditSet::new();
        let probe = || vec![Entry::Insn(Instruction::nop_of_len(5).into())];
        // Entry: after the function label (so the label address stays the
        // call target), i.e. before the first instruction.
        let first_insn = function.entry_ids().find(|&id| unit.insn(id).is_some());
        if let Some(first) = first_insn {
            if !is_probe(unit, first) {
                edits.insert_before(first, probe());
                fctx.stats.transformed(1);
            }
        }
        // Exits: before every ret whose predecessor is not already a probe.
        let ids: Vec<EntryId> = function.entry_ids().collect();
        for (k, &id) in ids.iter().enumerate() {
            if unit.insn(id).map(|i| i.mnemonic) != Some(Mnemonic::Ret) {
                continue;
            }
            let prev_is_probe = k > 0 && is_probe(unit, ids[k - 1]);
            let is_entry_probe_target = Some(id) == first_insn;
            if !prev_is_probe && !is_entry_probe_target {
                edits.insert_before(id, probe());
                fctx.stats.transformed(1);
            }
        }
        Ok(edits)
    })?;

    // Phase 2: iterate until no probe crosses a cache line. Each round's
    // padding patches the cached layout instead of re-relaxing from
    // scratch.
    let mut provider = LayoutProvider::new(ctx);
    for _round in 0..16 {
        let layout = provider.layout(unit)?;
        let mut edits = EditSet::new();
        for id in 0..unit.len() {
            if !is_probe(unit, id) {
                continue;
            }
            let start = layout.addr[id];
            let end = layout.end_addr(id);
            if start / line != (end - 1) / line {
                // Pad to the next line so the probe sits at its start.
                let pad = (start / line + 1) * line - start;
                edits.insert_before(
                    id,
                    Instruction::nop_pad(pad as usize)
                        .into_iter()
                        .map(|i| Entry::Insn(i.into()))
                        .collect(),
                );
                stats.matched(1);
            }
        }
        if edits.is_empty() {
            break;
        }
        provider.apply(unit, edits)?;
    }
    if let Some(note) = provider.note() {
        stats.notes.push(note);
    }
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "INSTPREP: {} probes planted, {} line-crossings fixed",
            stats.transformations, stats.matches
        ))
        .field("probes", stats.transformations)
        .field("crossings_fixed", stats.matches)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};
    use crate::relax::relax;

    const SAMPLE: &str = r#"
	.type	f, @function
f:
	movl $1, %eax
	cmpl $0, %edi
	je .L
	ret
.L:
	movl $2, %eax
	ret
"#;

    fn probe_addrs(unit: &MaoUnit, line: u64) -> Vec<(u64, u64)> {
        let layout = relax(unit).unwrap();
        (0..unit.len())
            .filter(|&id| is_probe(unit, id))
            .map(|id| (layout.addr[id], layout.end_addr(id)))
            .inspect(|&(s, e)| {
                assert_eq!(
                    s / line,
                    (e - 1) / line,
                    "probe crosses line: {s:#x}..{e:#x}"
                )
            })
            .collect()
    }

    #[test]
    fn probes_at_entry_and_exits() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let stats = run(&mut unit, &mut PassContext::default()).unwrap();
        // 1 entry + 2 rets.
        assert_eq!(stats.transformations, 3);
        let probes = probe_addrs(&unit, 64);
        assert_eq!(probes.len(), 3);
    }

    #[test]
    fn no_probe_crosses_cache_line() {
        // Force a crossing: ~60 bytes of code then a ret near offset 64.
        let body = "\taddl $1, %eax\n".repeat(20); // 60 bytes
        let text = format!(".type f, @function\nf:\n{body}\tret\n");
        let mut unit = MaoUnit::parse(&text).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let probes = probe_addrs(&unit, 64); // panics inside on crossing
        assert_eq!(probes.len(), 2);
    }

    #[test]
    fn small_line_option() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        run(
            &mut unit,
            &mut PassContext::from_options(PassOptions::new().with("line", "8")),
        )
        .unwrap();
        let probes = probe_addrs(&unit, 8);
        assert!(!probes.is_empty());
    }

    #[test]
    fn second_run_adds_nothing() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let after_first = unit.emit();
        let stats = run(&mut unit, &mut PassContext::default()).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), after_first);
    }

    #[test]
    fn probe_is_the_canonical_5_byte_nop() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        assert!(unit.emit().contains("nopl 0(%rax,%rax,1)"));
    }
}
