//! `REDZEXT` — redundant zero-extension removal (paper §III.B.a).
//!
//! GCC 4.3/4.4 did not model zero-extension well and emitted sequences like
//!
//! ```text
//! andl $255, %eax
//! mov  %eax, %eax      # zero-extend — already done by the andl
//! ```
//!
//! On x86-64 *every* 32-bit register write zero-extends into the full
//! 64-bit register, so a same-register 32-bit `mov` is redundant whenever
//! the most recent definition of that register was itself a 32-bit write.
//! (It is *not* redundant after a 64-bit write: there it truncates.)

use crate::isa::x86::{def_use, Mnemonic, Operand, Width};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// Is `insn` the `mov %rX, %rX` 32-bit self-move idiom?
fn is_self_zext(insn: &crate::isa::x86::Instruction) -> bool {
    insn.mnemonic == Mnemonic::Mov
        && insn.width() == Width::B4
        && matches!(
            (&insn.operands.first(), &insn.operands.get(1)),
            (Some(Operand::Reg(a)), Some(Operand::Reg(b)))
                if a == b && a.width == Width::B4 && !a.high8
        )
}

/// The redundant zero-extension elimination pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let analyze_only = ctx.options.has("count-only");
    run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let mut edits = EditSet::new();
        for block in &cfg.blocks {
            let insns: Vec<_> = block.insns(unit).collect();
            for (pos, &(id, insn)) in insns.iter().enumerate() {
                if !is_self_zext(insn) {
                    continue;
                }
                let reg = insn.operands[0]
                    .reg()
                    .expect("self-zext has register operands");
                // Walk backward to the most recent def of the register.
                let mut redundant = false;
                for &(_, prev) in insns[..pos].iter().rev() {
                    let du = def_use(prev);
                    if du.barrier {
                        break;
                    }
                    if !du.defs_reg(reg.id) {
                        continue;
                    }
                    // Found the def: redundant iff it is a plain 32-bit
                    // destination-register write (which zero-extends).
                    redundant = du
                        .reg_defs
                        .iter()
                        .any(|d| d.id == reg.id && d.width == Width::B4 && !d.high8);
                    break;
                }
                if redundant {
                    fctx.stats.matched(1);
                    fctx.trace(2, || {
                        TraceEvent::new(format!("{}: redundant `{insn}`", function.name))
                            .field("function", &function.name)
                    });
                    if !analyze_only {
                        edits.delete(id);
                        fctx.stats.transformed(1);
                    }
                }
            }
        }
        Ok(edits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};

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
            "{HEADER}\tandl $255, %eax\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(!text.contains("movl %eax, %eax"), "{text}");
        assert!(text.contains("andl"));
    }

    #[test]
    fn not_removed_after_64bit_write() {
        // movq writes the full register; the 32-bit self-move truncates and
        // is meaningful.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq %rbx, %rax\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn not_removed_after_partial_write() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovb $1, %al\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn not_removed_without_known_def() {
        let (_unit, stats) = run(&format!("{HEADER}\tmov %eax, %eax\n\tret\n"));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn not_removed_across_call() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tandl $255, %eax\n\tcall g\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn intervening_unrelated_instructions_ok() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tandl $255, %eax\n\taddl $1, %ebx\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
    }

    #[test]
    fn different_registers_not_matched() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tandl $255, %eax\n\tmov %eax, %ebx\n\tret\n"
        ));
        assert_eq!(stats.matches, 0);
    }

    #[test]
    fn count_only_mode() {
        let mut unit = MaoUnit::parse(&format!(
            "{HEADER}\tandl $255, %eax\n\tmov %eax, %eax\n\tret\n"
        ))
        .unwrap();
        let before = unit.emit();
        let mut ctx = PassContext::from_options(PassOptions::new().with("count-only", ""));
        let stats = super::run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn block_boundary_stops_search() {
        // Def in another block: conservatively not matched (block-local scan).
        let (_unit, stats) = run(&format!(
            "{HEADER}\tandl $255, %eax\n.Lmid:\n\tmov %eax, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }
}
