//! `BRALIGN` — branch de-aliasing (paper §III.C.g).
//!
//! Many Intel branch-predictor structures are indexed by `PC >> 5`. When two
//! short-running loops place their back branches inside the same 32-byte
//! bucket, both branches share one predictor entry and keep evicting each
//! other's history — the paper found a 3% whole-benchmark win from simply
//! moving the second branch into the next bucket with NOPs.
//!
//! The pass finds pairs of *conditional back branches* whose instruction
//! addresses fall in the same `PC >> shift` bucket and pads the second one
//! into the next bucket. Relaxation re-runs between fixes because padding
//! moves everything downstream (the phase-ordering hazard §II discusses).

use crate::isa::x86::Instruction;
use mao_asm::Entry;
use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::passes::layout_util::LayoutProvider;
use crate::unit::{EditSet, EntryId, MaoUnit};

/// Conditional back branches of a function with their addresses.
fn back_branches(
    unit: &MaoUnit,
    function: &crate::unit::Function,
    layout: &crate::relax::Layout,
) -> Vec<(EntryId, u64)> {
    let mut out = Vec::new();
    for id in function.entry_ids() {
        let Some(insn) = unit.insn(id) else { continue };
        if !insn.mnemonic.is_cond_branch() {
            continue;
        }
        let Some(tid) = unit.branch_target(id) else {
            continue;
        };
        if layout.addr[tid] <= layout.addr[id] {
            out.push((id, layout.addr[id]));
        }
    }
    out
}

/// The branch de-aliasing pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    // Predictor index shift comes from the installed cost model (PC>>5
    // on the built-in Core-2-like table); an explicit option overrides.
    let model_shift = u64::from(crate::isa::x86::cost::current().machine.predictor_shift);
    let shift = ctx.options.get_u64("shift", model_shift.min(16).max(1));
    let bucket = 1u64 << shift;
    // A couple of rounds: fixing one pair can move later branches into
    // (or out of) aliasing.
    let max_rounds = ctx.options.get_u64("rounds", 8);
    // Edits go through the provider so each fix costs an incremental
    // layout patch instead of a from-scratch relaxation.
    let mut provider = LayoutProvider::new(ctx);
    let mut trace: Vec<String> = Vec::new();
    for _ in 0..max_rounds {
        let before_round = stats.transformations;
        let mut k = 0;
        loop {
            let Some(function) = unit.functions_cached().get(k).cloned() else {
                break;
            };
            let layout = provider.layout(unit)?;
            let branches = back_branches(unit, &function, &layout);
            let mut edits = EditSet::new();
            for pair in branches.windows(2) {
                let (first_id, first_addr) = pair[0];
                let (second_id, second_addr) = pair[1];
                if first_addr >> shift != second_addr >> shift || first_id == second_id {
                    continue;
                }
                stats.matched(1);
                let pad = (second_addr / bucket + 1) * bucket - second_addr;
                trace.push(format!(
                    "{}: branches at {:#x}/{:#x} share bucket {:#x}; padding {} bytes",
                    function.name,
                    first_addr,
                    second_addr,
                    first_addr >> shift,
                    pad,
                ));
                let pad_entries: Vec<Entry> = Instruction::nop_pad(pad as usize)
                    .into_iter()
                    .map(|i| Entry::Insn(i.into()))
                    .collect();
                edits.insert_before(second_id, pad_entries);
                stats.transformed(1);
                break; // one fix per function per round, then re-relax
            }
            if !edits.is_empty() {
                provider.apply(unit, edits)?;
            }
            k += 1;
        }
        // Fixed point: stop when a full sweep changed nothing.
        if stats.transformations == before_round {
            break;
        }
        // Check for remaining aliasing; if none, stop early.
        let mut any_alias = false;
        let layout = provider.layout(unit)?;
        for function in unit.functions() {
            let branches = back_branches(unit, &function, &layout);
            if branches
                .windows(2)
                .any(|p| p[0].1 >> shift == p[1].1 >> shift)
            {
                any_alias = true;
                break;
            }
        }
        if !any_alias {
            break;
        }
    }
    if let Some(note) = provider.note() {
        stats.notes.push(note);
    }
    for line in trace {
        ctx.trace(2, || TraceEvent::new(line));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassContext;
    use crate::relax::relax;

    /// The §III.C.g shape: a two-deep nest of short loops whose back
    /// branches land in the same 32-byte bucket.
    fn nested_short_loops() -> &'static str {
        r#"
	.type	f, @function
f:
	movl $0, %eax
.Louter:
	movl $0, %ebx
.Linner:
	addl $1, %ebx
	cmpl $2, %ebx
	jne .Linner
	addl $1, %eax
	addl $2, %ebx
	cmpl $2, %eax
	jne .Louter
	ret
"#
    }

    fn branch_addrs(unit: &MaoUnit) -> Vec<u64> {
        let layout = relax(unit).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        back_branches(unit, &f, &layout)
            .into_iter()
            .map(|(_, a)| a)
            .collect()
    }

    #[test]
    fn aliasing_branches_are_separated() {
        let mut unit = MaoUnit::parse(nested_short_loops()).unwrap();
        let before = branch_addrs(&unit);
        assert_eq!(before.len(), 2);
        assert_eq!(before[0] >> 5, before[1] >> 5, "precondition: aliasing");

        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert!(stats.transformations >= 1);

        let after = branch_addrs(&unit);
        assert_ne!(after[0] >> 5, after[1] >> 5, "buckets differ: {after:?}");
    }

    #[test]
    fn non_aliasing_untouched() {
        // Pad the outer loop body so the branches straddle a boundary.
        let text =
            nested_short_loops().replace("\taddl $1, %eax\n", &"\taddl $1, %eax\n".repeat(12));
        let mut unit = MaoUnit::parse(&text).unwrap();
        let before = branch_addrs(&unit);
        if before[0] >> 5 == before[1] >> 5 {
            // Layout happened to alias anyway; skip this configuration.
            return;
        }
        let emitted = unit.emit();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), emitted);
    }

    #[test]
    fn forward_branches_ignored() {
        let mut unit = MaoUnit::parse(
            ".type f, @function\nf:\n\tje .La\n\tnop\n.La:\n\tje .Lb\n\tnop\n.Lb:\n\tret\n",
        )
        .unwrap();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn custom_shift_option() {
        // With shift=10 (1 KiB buckets) the two branches of the nest alias;
        // padding to the next 1 KiB bucket would be enormous, but the pass
        // still performs it — verify the bucket separation honours shift.
        let mut unit = MaoUnit::parse(nested_short_loops()).unwrap();
        let mut ctx = PassContext::from_options(
            crate::pass::PassOptions::new()
                .with("shift", "4")
                .with("rounds", "4"),
        );
        run(&mut unit, &mut ctx).unwrap();
        let after = branch_addrs(&unit);
        assert_ne!(after[0] >> 4, after[1] >> 4);
    }
}
