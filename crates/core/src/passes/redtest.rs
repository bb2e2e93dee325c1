//! `REDTEST` — redundant test removal (paper §III.B.b).
//!
//! GCC does not model the x86 condition codes well and emits
//!
//! ```text
//! subl  $16, %r15d
//! testl %r15d, %r15d    # redundant: subl already set the flags
//! ```
//!
//! `test r, r` computes SF/ZF/PF from `r` and clears CF/OF. A preceding
//! instruction that wrote `r` *and* set SF/ZF/PF from the same result makes
//! the test redundant — **provided** every consumer reads only flags the two
//! instructions agree on (SF/ZF/PF; CF/OF generally differ). The paper:
//! *"MAO precisely models the x86/64 condition codes, enabling it to remove
//! the redundant tests."* The precision lives in [`crate::isa::x86::Cond::flags_read`]
//! and the flag liveness walk.

use crate::isa::x86::{def_use, Flags, Mnemonic, Operand, Width};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// Is `insn` a same-register `test r, r`?
fn is_self_test(insn: &crate::isa::x86::Instruction) -> Option<(crate::isa::x86::Reg, Width)> {
    if insn.mnemonic != Mnemonic::Test {
        return None;
    }
    match (insn.operands.first(), insn.operands.get(1)) {
        (Some(Operand::Reg(a)), Some(Operand::Reg(b))) if a == b && !a.high8 => {
            Some((*a, insn.width()))
        }
        _ => None,
    }
}

/// Does `prev` define register `reg` as its destination *and* set SF/ZF/PF
/// from the result, with the same operand width?
fn sets_result_flags_for(
    prev: &crate::isa::x86::Instruction,
    reg: crate::isa::x86::Reg,
    width: Width,
) -> bool {
    use Mnemonic as M;
    let result_flag_setter = match prev.mnemonic {
        M::Add | M::Sub | M::Adc | M::Sbb | M::And | M::Or | M::Xor | M::Neg | M::Inc | M::Dec => {
            true
        }
        // Shifts set result flags only for non-zero counts; a dynamic %cl
        // count may be zero (flags unchanged) so only constant counts apply.
        M::Shl | M::Shr | M::Sar => match prev.operands.first() {
            Some(Operand::Imm(n)) => *n != 0,
            None => true, // implicit shift-by-1
            _ => false,   // %cl count
        },
        _ => false,
    };
    if !result_flag_setter || prev.width() != width {
        return false;
    }
    matches!(prev.dest(), Some(Operand::Reg(d)) if d.id == reg.id && d.width == width && !d.high8)
}

/// The redundant test removal pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let analyze_only = ctx.options.has("count-only");
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let liveness = fctx.liveness(unit, function);
        let mut edits = EditSet::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            let insns: Vec<_> = block.insns(unit).collect();
            for (pos, &(id, insn)) in insns.iter().enumerate() {
                let Some((reg, width)) = is_self_test(insn) else {
                    continue;
                };
                // Find the previous instruction that defines flags or the
                // register; both searches stop at the same place.
                let mut verdict = false;
                for &(_, prev) in insns[..pos].iter().rev() {
                    let du = def_use(prev);
                    if du.barrier {
                        break;
                    }
                    if !du.flags_killed().is_empty() {
                        // The nearest flag writer: it must be our
                        // result-flag setter on the same register, with
                        // no redefinition of the register in between
                        // (it *is* the defining instruction, so any
                        // later def would have been seen first).
                        verdict = sets_result_flags_for(prev, reg, width);
                        break;
                    }
                    if du.defs_reg(reg.id) {
                        // Register changed after the last flag write:
                        // flags no longer describe its value.
                        break;
                    }
                }
                if !verdict {
                    continue;
                }
                // Consumers: flags read after the test must be a subset
                // of the result flags (SF/ZF/PF), where test and the ALU
                // op agree.
                let consumed = liveness.flags_live_after(unit, &cfg, b, id);
                if !Flags::RESULT.contains(consumed) {
                    continue;
                }
                fctx.stats.matched(1);
                if !analyze_only {
                    edits.delete(id);
                    fctx.stats.transformed(1);
                }
            }
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!("REDTEST: {} removed", stats.transformations))
            .field("removed", stats.transformations)
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
    fn paper_pattern_removed() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(!unit.emit().contains("test"));
    }

    #[test]
    fn kept_when_consumer_reads_carry() {
        // jae reads CF: sub sets CF from the subtraction, test clears it —
        // NOT equivalent.
        let (unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjae .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
        assert!(unit.emit().contains("test"));
    }

    #[test]
    fn kept_when_consumer_reads_signed_less() {
        // jl reads SF != OF; OF differs between sub and test.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjl .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn removed_for_js_consumer() {
        // js reads SF only — produced identically by subl and testl.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjs .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
    }

    #[test]
    fn kept_when_register_redefined_between() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\tmovl %eax, %r15d\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn kept_when_other_reg_set_flags() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %eax\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn kept_for_width_mismatch() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubq $16, %r15\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn kept_after_shift_by_cl() {
        // Count in %cl may be zero: flags would be unchanged, so the test is
        // load-bearing.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tshll %cl, %r15d\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn removed_after_shift_by_imm() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tshll $3, %r15d\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
    }

    #[test]
    fn flags_consumed_in_successor_block() {
        // The jcc lives in the next block; liveness must still see it.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n.Lmid:\n\tjae .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0, "jae in successor reads CF");
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n.Lmid:\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1, "je in successor reads only ZF");
    }

    #[test]
    fn mov_between_does_not_block() {
        // mov writes no flags and a different register.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tsubl $16, %r15d\n\tmovl %eax, %ebx\n\ttestl %r15d, %r15d\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
    }
}
