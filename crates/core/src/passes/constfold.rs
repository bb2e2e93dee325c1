//! `CONSTFOLD` — constant folding (paper §III.D).
//!
//! The second of the standard scalar optimizations MAO offers for simple
//! code generators: when a register provably holds a constant (from a
//! `mov $imm, %reg`) and an immediate ALU operation updates it, the
//! operation is rewritten to a `mov` of the folded constant. The ALU op's
//! flag outputs must be dead (a `mov` sets no flags).

use crate::isa::x86::{def_use, Mnemonic, Operand, Width};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// `mov $imm, %reg` with a 32/64-bit register destination.
fn as_const_def(insn: &crate::isa::x86::Instruction) -> Option<(i64, crate::isa::x86::Reg)> {
    if insn.mnemonic != Mnemonic::Mov && insn.mnemonic != Mnemonic::Movabs {
        return None;
    }
    match (insn.operands.first(), insn.operands.get(1)) {
        (Some(Operand::Imm(v)), Some(Operand::Reg(r)))
            if matches!(r.width, Width::B4 | Width::B8) =>
        {
            Some((*v, *r))
        }
        _ => None,
    }
}

/// Apply `op imm` to `value` in the register's width. Returns the folded
/// 64-bit value as seen in the register afterwards.
fn fold(mnemonic: Mnemonic, value: i64, imm: i64, width: Width) -> Option<i64> {
    let v = match mnemonic {
        Mnemonic::Add => value.wrapping_add(imm),
        Mnemonic::Sub => value.wrapping_sub(imm),
        Mnemonic::And => value & imm,
        Mnemonic::Or => value | imm,
        Mnemonic::Xor => value ^ imm,
        Mnemonic::Shl => value.wrapping_shl((imm & 63) as u32),
        Mnemonic::Shr => {
            let masked = (value as u64) & width.mask();
            (masked >> (imm as u32 & (width.bits() - 1))) as i64
        }
        _ => return None,
    };
    let folded = match width {
        Width::B4 => (v as u32) as i64, // 32-bit ops zero-extend
        Width::B8 => v,
        _ => return None,
    };
    // Must be re-materializable by the mov encoder.
    if width == Width::B4 || i32::try_from(folded).is_ok() {
        Some(folded)
    } else {
        None
    }
}

/// The constant folding pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        // Fetched at the first fold candidate: most functions have none.
        let mut liveness = None;
        let mut edits = EditSet::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            // reg -> known constant.
            let mut known: std::collections::HashMap<crate::isa::x86::RegId, (i64, Width)> =
                std::collections::HashMap::new();
            for (id, insn) in block.insns(unit) {
                let du = def_use(insn);
                if du.barrier {
                    known.clear();
                    continue;
                }
                // Try to fold an immediate ALU op on a known register.
                let mut folded_this = false;
                if let (mnemonic, Some(Operand::Imm(imm)), Some(Operand::Reg(dst))) =
                    (insn.mnemonic, insn.operands.first(), insn.operands.get(1))
                {
                    if let Some(&(value, w)) = known.get(&dst.id) {
                        if w == insn.width() && dst.width == w {
                            if let Some(result) = fold(mnemonic, value, *imm, w) {
                                // The op's flags must be dead.
                                let liveness =
                                    liveness.get_or_insert_with(|| fctx.liveness(unit, function));
                                let flags_after = liveness.flags_live_after(unit, &cfg, b, id);
                                if !du.flags_def.intersects(flags_after)
                                    && !du.flags_undef.intersects(flags_after)
                                {
                                    fctx.stats.matched(1);
                                    edits.replace_insn(
                                        id,
                                        crate::isa::x86::insn::build::mov(
                                            w,
                                            Operand::Imm(result),
                                            *dst,
                                        ),
                                    );
                                    fctx.stats.transformed(1);
                                    known.insert(dst.id, (result, w));
                                    folded_this = true;
                                }
                            }
                        }
                    }
                }
                if folded_this {
                    continue;
                }
                // Update known constants.
                if let Some((v, r)) = as_const_def(insn) {
                    known.insert(r.id, (v, r.width));
                } else {
                    for d in &du.reg_defs {
                        known.remove(&d.id);
                    }
                }
            }
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!("CONSTFOLD: {} folds", stats.transformations))
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
    fn mov_add_folds() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\taddl $5, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains("movl $15, %eax"), "{text}");
        assert!(!text.contains("addl"));
    }

    #[test]
    fn chained_folds_in_one_run() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\taddl $5, %eax\n\tsubl $3, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 2);
        assert!(unit.emit().contains("movl $12, %eax"));
    }

    #[test]
    fn flags_consumer_blocks_fold() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\taddl $5, %eax\n\tje .L\n.L:\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
        assert!(unit.emit().contains("addl"));
    }

    #[test]
    fn unknown_register_not_folded() {
        let (_unit, stats) = run(&format!("{HEADER}\taddl $5, %eax\n\tret\n"));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn clobber_between_blocks_fold() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\tmovl %ebx, %eax\n\taddl $5, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn call_clears_knowledge() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\tcall g\n\taddl $5, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn bitwise_ops_fold() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovl $0xff, %eax\n\tandl $0x0f, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("movl $15, %eax"));
        let (unit, _) = run(&format!(
            "{HEADER}\tmovl $1, %ecx\n\tshll $4, %ecx\n\tret\n"
        ));
        assert!(unit.emit().contains("movl $16, %ecx"));
    }

    #[test]
    fn wrap_around_uses_32bit_semantics() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovl $-1, %eax\n\taddl $1, %eax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("movl $0, %eax"));
    }

    /// Liveness is asked for only at a fold candidate: a unit with none
    /// builds no liveness table, and one with a candidate builds one.
    #[test]
    fn liveness_is_built_only_for_a_candidate() {
        use crate::unit::work_counts::{get, LIVENESS_BUILDS};
        let builds = |text: &str| {
            let before = get(&LIVENESS_BUILDS);
            let (_, stats) = run(text);
            (get(&LIVENESS_BUILDS) - before, stats.transformations)
        };
        let none = format!("{HEADER}\tmovl $10, %eax\n\taddl %ebx, %eax\n\tje .L\n.L:\n\tret\n");
        assert_eq!(builds(&none), (0, 0));
        let one = format!("{HEADER}\tmovl $10, %eax\n\taddl $5, %eax\n\tret\n");
        assert_eq!(builds(&one), (1, 1));
    }

    #[test]
    fn width_mismatch_not_folded() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovl $10, %eax\n\taddq $5, %rax\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }
}
