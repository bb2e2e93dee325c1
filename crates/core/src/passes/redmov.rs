//! `REDMOV` — redundant memory-access removal (paper §III.B.c).
//!
//! Phase-ordering in GCC's register allocator produces repeated loads:
//!
//! ```text
//! movq 24(%rsp), %rdx
//! movq 24(%rsp), %rcx
//! ```
//!
//! The second load can reuse the already-loaded register:
//!
//! ```text
//! movq 24(%rsp), %rdx
//! movq %rdx, %rcx
//! ```
//!
//! which is two bytes shorter and performs one explicit memory access.
//! Soundness: between the two loads there must be no store, no barrier, and
//! no redefinition of the first destination or of the address registers.

use std::collections::HashMap;

use crate::isa::x86::operand::{Mem, Operand};
use crate::isa::x86::{def_use, Mnemonic, Reg, Width};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// Is this a plain GPR load `mov mem, reg`?
fn as_load(insn: &crate::isa::x86::Instruction) -> Option<(&Mem, Reg, Width)> {
    if insn.mnemonic != Mnemonic::Mov || insn.lock {
        return None;
    }
    match (insn.operands.first(), insn.operands.get(1)) {
        (Some(Operand::Mem(m)), Some(Operand::Reg(r))) if r.id.is_gpr() && !r.high8 => {
            Some((m, *r, insn.width()))
        }
        _ => None,
    }
}

/// The redundant memory-access removal pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let analyze_only = ctx.options.has("count-only");
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let mut edits = EditSet::new();
        for block in &cfg.blocks {
            // Available loads: memory operand -> (dest holding it, width).
            let mut available: HashMap<Mem, (Reg, Width)> = HashMap::new();
            for (id, insn) in block.insns(unit) {
                let du = def_use(insn);
                if du.barrier || du.mem_write {
                    available.clear();
                    // Fall through: a barrier also defines registers via
                    // reg_defs handling below (calls clobber, but barrier
                    // already cleared the table).
                }

                let mut replaced = false;
                if let Some((mem, dest, width)) = as_load(insn) {
                    if let Some(&(held, held_width)) = available.get(mem) {
                        if held_width == width && held.id != dest.id {
                            fctx.stats.matched(1);
                            if !analyze_only {
                                edits.replace_insn(
                                    id,
                                    crate::isa::x86::insn::build::mov(width, held, dest),
                                );
                                fctx.stats.transformed(1);
                            }
                            replaced = true;
                        }
                    }
                }

                // Invalidate table entries clobbered by this instruction's
                // register definitions (including the load's own dest).
                for def in &du.reg_defs {
                    available.retain(|mem, (held, _)| {
                        held.id != def.id && mem.regs_used().all(|r| r.id != def.id)
                    });
                }

                // Record this load as available (also when replaced: the
                // new dest now holds the value too — but the replacement
                // mov is a reg move, not a load; record under the same
                // memory key so a third load can reuse either register).
                // A load that overwrites one of its own address registers
                // (mov (%rax), %rax) leaves the value unaddressable.
                if let Some((mem, dest, width)) = as_load(insn) {
                    if mem.regs_used().any(|r| r.id == dest.id) {
                        // Not recordable; the invalidation above already
                        // dropped any entries using the old register.
                    } else if !replaced {
                        available.insert(mem.clone(), (dest, width));
                    } else {
                        // After replacement dest holds the same value.
                        available.entry(mem.clone()).or_insert((dest, width));
                    }
                }
            }
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!("REDMOV: {} loads reused", stats.transformations))
            .field("reused", stats.transformations)
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
    fn paper_pattern_rewritten() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq 24(%rsp), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains("movq %rdx, %rcx"), "{text}");
        assert_eq!(text.matches("24(%rsp)").count(), 1);
    }

    #[test]
    fn store_between_invalidates() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq %rax, 24(%rsp)\n\tmovq 24(%rsp), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn call_between_invalidates() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tcall g\n\tmovq 24(%rsp), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn dest_redefined_invalidates() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq %rax, %rdx\n\tmovq 24(%rsp), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn address_reg_redefined_invalidates() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 8(%rbx), %rdx\n\taddq $16, %rbx\n\tmovq 8(%rbx), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn load_overwriting_its_own_base() {
        // mov (%rax), %rax: the loaded value is not addressable afterwards.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq (%rax), %rax\n\tmovq (%rax), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn width_mismatch_not_reused() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovl 24(%rsp), %ecx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn different_addresses_not_reused() {
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq 32(%rsp), %rcx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn three_loads_chain() {
        let (unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq 24(%rsp), %rcx\n\tmovq 24(%rsp), %rbx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 2);
        let text = unit.emit();
        assert_eq!(text.matches("24(%rsp)").count(), 1);
        assert!(text.contains("movq %rdx, %rcx"));
        assert!(text.contains("movq %rdx, %rbx"));
    }

    #[test]
    fn same_dest_reload_not_touched() {
        // mov M,%rdx ; mov M,%rdx — the second is fully redundant but a
        // self-move replacement would be silly; the pass skips same-dest.
        let (_unit, stats) = run(&format!(
            "{HEADER}\tmovq 24(%rsp), %rdx\n\tmovq 24(%rsp), %rdx\n\tret\n"
        ));
        assert_eq!(stats.transformations, 0);
    }
}
