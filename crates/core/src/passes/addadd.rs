//! `ADDADD` — add/add sequence folding (paper §III.B.d).
//!
//! GCC 4.3 emitted patterns of multiple immediate adds to the same register:
//!
//! ```text
//! add/sub rX, IMM1
//! ... no re-definition/use of rX,
//! ... no use of condition codes
//! add/sub rX, IMM2
//! ```
//!
//! which fold into a single add/sub of the combined constant. The flag
//! condition matters: the first add's flags must not be observed (the fold
//! removes them); the second add's flags are recomputed and remain correct
//! only in the sense that they now describe the combined operation — which
//! is precisely what any consumer after the fold sees.

use crate::isa::x86::{def_use, Mnemonic, Operand, Width};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// Is this `add $imm, %reg` or `sub $imm, %reg`? Returns the signed delta.
fn as_imm_addsub(
    insn: &crate::isa::x86::Instruction,
) -> Option<(i64, crate::isa::x86::Reg, Width)> {
    let sign = match insn.mnemonic {
        Mnemonic::Add => 1,
        Mnemonic::Sub => -1,
        _ => return None,
    };
    if insn.lock {
        return None;
    }
    match (insn.operands.first(), insn.operands.get(1)) {
        (Some(Operand::Imm(v)), Some(Operand::Reg(r))) if r.id.is_gpr() && !r.high8 => {
            Some((sign * v, *r, insn.width()))
        }
        _ => None,
    }
}

/// Build the folded instruction (prefers `add` for non-negative deltas so
/// immediates stay small and positive where possible).
fn folded(delta: i64, reg: crate::isa::x86::Reg, width: Width) -> crate::isa::x86::Instruction {
    if delta >= 0 {
        crate::isa::x86::insn::build::add(width, Operand::Imm(delta), reg)
    } else {
        crate::isa::x86::insn::build::sub(width, Operand::Imm(-delta), reg)
    }
}

/// The add/add folding pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let analyze_only = ctx.options.has("count-only");
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let mut edits = EditSet::new();
        for block in &cfg.blocks {
            let insns: Vec<_> = block.insns(unit).collect();
            // A fold consumes two instructions; track consumed first-halves
            // so chains fold pairwise left-to-right within one run.
            let mut consumed = vec![false; insns.len()];
            for (pos, &(first_id, first)) in insns.iter().enumerate() {
                if consumed[pos] {
                    continue;
                }
                let Some((d1, reg, width)) = as_imm_addsub(first) else {
                    continue;
                };
                // Scan forward for the matching second add/sub.
                for (off, &(second_id, second)) in insns[pos + 1..].iter().enumerate() {
                    let between_pos = pos + 1 + off;
                    if let Some((d2, reg2, width2)) = as_imm_addsub(second) {
                        if reg2.id == reg.id {
                            if reg2 == reg && width2 == width {
                                let total = match d1.checked_add(d2) {
                                    Some(t) if i32::try_from(t).is_ok() => t,
                                    _ => break,
                                };
                                fctx.stats.matched(1);
                                if !analyze_only {
                                    edits.delete(first_id);
                                    edits.replace_insn(second_id, folded(total, reg, width));
                                    consumed[between_pos] = true;
                                    fctx.stats.transformed(1);
                                }
                            }
                            break;
                        }
                    }
                    // Abort conditions: re-definition/use of rX, use of
                    // condition codes, or a barrier.
                    let du = def_use(second);
                    if du.barrier
                        || du.defs_reg(reg.id)
                        || du.uses_reg(reg.id)
                        || !du.flags_use.is_empty()
                    {
                        break;
                    }
                }
            }
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!("ADDADD: {} folds", stats.transformations))
            .field("folds", stats.transformations)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassContext;

    fn run(text: &str) -> (MaoUnit, PassStats) {
        let mut unit = MaoUnit::parse(text).unwrap();
        let mut ctx = PassContext::default();
        let stats = super::run(&mut unit, &mut ctx).unwrap();
        (unit, stats)
    }

    const HEADER: &str = ".type f, @function\nf:\n";

    #[test]
    fn adjacent_adds_fold() {
        let (unit, stats) = run(&format!(
            "{HEADER}\taddl $3, %eax\n\taddl $4, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains("addl $7, %eax"), "{text}");
        assert_eq!(text.matches("addl").count(), 1);
    }

    #[test]
    fn add_sub_becomes_difference() {
        let (unit, stats) = run(&format!(
            "{HEADER}\taddl $3, %eax\n\tsubl $10, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("subl $7, %eax"));
    }

    #[test]
    fn fold_with_unrelated_instructions_between() {
        let (unit, stats) = run(&format!(
            "{HEADER}\taddq $8, %rdi\n\tmovl %ebx, %ecx\n\taddq $8, %rdi\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("addq $16, %rdi"));
    }

    #[test]
    fn use_between_blocks_fold() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\taddl $3, %eax\n\tmovl %eax, %ebx\n\taddl $4, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn flag_read_between_blocks_fold() {
        // The jcc consumes the first add's flags.
        let (_unit, stats) = run(&format!(
            "{HEADER}\taddl $3, %eax\n\tje .L\n\taddl $4, %eax\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn memory_destination_not_folded() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\taddl $3, (%rdi)\n\taddl $4, (%rdi)\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn width_mismatch_not_folded() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\taddl $3, %eax\n\taddq $4, %rax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn chain_of_three_folds_once_per_run() {
        let (unit, stats) = run(&format!(
            "{HEADER}\taddl $1, %eax\n\taddl $2, %eax\n\taddl $3, %eax\n\tret\n"
        ));
        // First pair folds; the third needs another run (classic peephole).
        assert_eq!(stats.transformations, 1);
        let mut unit2 = unit;
        let mut ctx = PassContext::default();
        let stats2 = super::run(&mut unit2, &mut ctx).unwrap();
        assert_eq!(stats2.transformations, 1);
        assert!(unit2.emit().contains("addl $6, %eax"));
    }

    #[test]
    fn overflow_is_left_alone() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\taddl $2000000000, %eax\n\taddl $2000000000, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn cancelling_pair_folds_to_zero_add() {
        let (unit, stats) = run(&format!(
            "{HEADER}\taddl $5, %eax\n\tsubl $5, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("addl $0, %eax"));
    }
}
