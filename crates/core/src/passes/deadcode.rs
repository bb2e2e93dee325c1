//! `DCE` — unreachable-code elimination (paper §III.D).
//!
//! One of the "standard set of scalar optimizations" MAO offers for simple
//! code generators. Blocks not reachable from the function entry are
//! removed. Labels are kept when anything still references them (data
//! directives — jump tables — or branches anywhere in the unit); functions
//! flagged for unresolved indirect branches are skipped entirely, the
//! pass-level policy decision §II describes.

use std::collections::HashSet;
use std::sync::OnceLock;

use mao_asm::{DataItem, Directive, Entry};
use mao_obs::TraceEvent;

use crate::isa::{x86, Sym};
use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// Labels referenced from anywhere: branch targets, memory operands, data.
fn referenced_labels(unit: &MaoUnit) -> HashSet<Sym> {
    let mut refs = HashSet::new();
    for e in unit.entries() {
        match e {
            Entry::Insn(i) => {
                refs.extend(i.target_sym());
                let Some(i) = i.x86() else { continue };
                for op in &i.operands {
                    if let x86::Operand::Mem(m) | x86::Operand::IndirectMem(m) = op {
                        if let x86::Disp::Symbol { name, .. } = &m.disp {
                            refs.insert(*name);
                        }
                    }
                }
            }
            Entry::Directive(Directive::Data { items, .. }) => {
                for item in items {
                    if let DataItem::Symbol(s) = item {
                        refs.insert(*s);
                    }
                }
            }
            _ => {}
        }
    }
    refs
}

/// The unreachable-code elimination pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    // Built on first need, by whichever worker first meets an unreachable
    // block; most units have none.
    let refs = OnceLock::new();
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let mut edits = EditSet::new();
        if cfg.unresolved_indirect {
            // Flagged function: the safe policy is to not touch it.
            return Ok(edits);
        }
        let reachable = cfg.reachable();
        for (b, block) in cfg.blocks.iter().enumerate() {
            if reachable[b] {
                continue;
            }
            for &id in &block.entries {
                match unit.entry(id) {
                    Entry::Insn(_) => {
                        edits.delete(id);
                        fctx.stats.transformed(1);
                    }
                    Entry::Label(l)
                        if !refs.get_or_init(|| referenced_labels(unit)).contains(l) =>
                    {
                        edits.delete(id);
                    }
                    _ => {}
                }
            }
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "DCE: removed {} instructions",
            stats.transformations
        ))
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

    #[test]
    fn dead_block_after_ret_removed() {
        let (unit, stats) = run(
            ".type f, @function\nf:\n\tret\n.Ldead:\n\taddl $1, %eax\n\taddl $2, %eax\n\tret\n",
        );
        assert_eq!(stats.transformations, 3);
        let text = unit.emit();
        assert!(!text.contains("addl"));
        assert!(!text.contains(".Ldead"));
    }

    #[test]
    fn reachable_code_kept() {
        let (unit, stats) =
            run(".type f, @function\nf:\n\tje .La\n\tret\n.La:\n\taddl $1, %eax\n\tret\n");
        assert_eq!(stats.transformations, 0);
        assert!(unit.emit().contains("addl"));
    }

    #[test]
    fn label_in_jump_table_survives() {
        let text = r#"
	.type	f, @function
f:
	ret
.Ldead:
	ret
	.section	.rodata
.Ltab:
	.quad	.Ldead
"#;
        let (unit, stats) = run(text);
        // The instruction goes; the label stays (referenced by .quad).
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains(".Ldead:"));
    }

    #[test]
    fn flagged_function_untouched() {
        let text = ".type f, @function\nf:\n\tjmp *%rax\n.Ldead:\n\tret\n";
        let (unit, stats) = run(text);
        assert_eq!(stats.transformations, 0);
        assert!(unit.emit().contains(".Ldead"));
    }

    #[test]
    fn code_after_unconditional_jmp_removed() {
        let (unit, stats) =
            run(".type f, @function\nf:\n\tjmp .Lend\n\taddl $1, %eax\n.Lend:\n\tret\n");
        assert_eq!(stats.transformations, 1);
        assert!(!unit.emit().contains("addl"));
    }
}
