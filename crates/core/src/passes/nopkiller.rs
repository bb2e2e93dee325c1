//! `NOPKILL` — the Nop Killer (paper §III.E.j).
//!
//! Compilers insert alignment directives "based on some rough ideas about an
//! underlying micro-architecture"; the assembler expands them into NOPs.
//! This pass removes both the alignment directives and existing NOP
//! instructions from text sections, to measure how much those crude
//! alignments actually help. The paper found the performance effect mostly
//! in the noise, with ~1% code-size improvement.
//!
//! Options: `keep-aligns` (only kill NOP instructions), `keep-nops` (only
//! kill alignment directives).

use mao_asm::{Directive, Entry};
use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// The alignment-removal pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    let kill_aligns = !ctx.options.has("keep-aligns");
    let kill_nops = !ctx.options.has("keep-nops");
    let names = unit.section_names();
    let mut edits = EditSet::new();
    for (id, entry) in unit.entries().iter().enumerate() {
        let in_text = names[id] == ".text" || names[id].starts_with(".text.");
        if !in_text {
            continue;
        }
        match entry {
            Entry::Directive(Directive::Align(_)) if kill_aligns => {
                edits.delete(id);
                stats.transformed(1);
            }
            Entry::Insn(i) if kill_nops && i.is_nop() => {
                edits.delete(id);
                stats.transformed(1);
            }
            _ => {}
        }
    }
    stats.matched(stats.transformations);
    unit.apply(edits);
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "NOPKILL: removed {} entries",
            stats.transformations
        ))
        .field("removed", stats.transformations)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};

    const SAMPLE: &str = r#"
	.text
	.type	f, @function
	.p2align 4,,15
f:
	nop
	nopw 0(%rax,%rax,1)
	addl $1, %eax
	.p2align 3
.L:
	ret
	.section	.rodata
	.align 8
.LC:
	.long 1
"#;

    #[test]
    fn kills_text_aligns_and_nops() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let stats = run(&mut unit, &mut PassContext::default()).unwrap();
        // 2 p2aligns + 2 nops.
        assert_eq!(stats.transformations, 4);
        let text = unit.emit();
        assert!(!text.contains(".p2align"));
        assert!(!text.contains("\tnop"));
        // rodata .align untouched.
        assert!(text.contains(".align 8"));
        assert!(text.contains("addl"));
    }

    #[test]
    fn keep_aligns_option() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let stats = run(
            &mut unit,
            &mut PassContext::from_options(PassOptions::new().with("keep-aligns", "")),
        )
        .unwrap();
        assert_eq!(stats.transformations, 2);
        assert!(unit.emit().contains(".p2align"));
    }

    #[test]
    fn keep_nops_option() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let stats = run(
            &mut unit,
            &mut PassContext::from_options(PassOptions::new().with("keep-nops", "")),
        )
        .unwrap();
        assert_eq!(stats.transformations, 2);
        assert!(unit.emit().contains("\tnop"));
    }

    #[test]
    fn code_size_shrinks() {
        use crate::relax::relax;
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let before: u64 = {
            let l = relax(&unit).unwrap();
            (0..unit.len()).map(|i| u64::from(l.size[i])).sum()
        };
        run(&mut unit, &mut PassContext::default()).unwrap();
        let after: u64 = {
            let l = relax(&unit).unwrap();
            (0..unit.len()).map(|i| u64::from(l.size[i])).sum()
        };
        assert!(after < before, "{after} < {before}");
    }
}
