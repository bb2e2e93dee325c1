//! `LFIND` — loop finding and reporting.
//!
//! The pass named in the paper's example invocation
//! (`mao --mao=LFIND=trace[0]:ASM=o[/dev/null] in.s`): run loop recognition
//! over every function and report the loop structure graph through the
//! tracing facility. Analysis-only; `matches` counts loops found.

use mao_obs::TraceEvent;

use crate::loops::{LoopKind, LoopNest};
use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

fn describe(nest: &LoopNest, idx: usize, out: &mut Vec<String>, indent: usize) {
    let l = &nest.loops[idx];
    let kind = match l.kind {
        LoopKind::Reducible => "reducible",
        LoopKind::Irreducible => "irreducible",
        LoopKind::SelfLoop => "self-loop",
    };
    out.push(format!(
        "{:indent$}loop depth {} ({kind}): header block {}, {} block(s)",
        "",
        l.depth,
        l.header,
        l.blocks.len(),
        indent = indent * 2,
    ));
    for &c in &l.children {
        describe(nest, c, out, indent + 1);
    }
}

/// The loop-finding pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let nest = fctx.loops(unit, function);
        fctx.stats.matched(nest.len());
        if nest.is_empty() {
            return Ok(EditSet::new());
        }
        let mut lines = vec![format!(
            "{}: {} loop(s){}",
            function.name,
            nest.len(),
            if cfg.unresolved_indirect {
                " [function flagged: unresolved indirect branch]"
            } else {
                ""
            }
        )];
        for (i, l) in nest.loops.iter().enumerate() {
            if l.parent.is_none() {
                describe(&nest, i, &mut lines, 1);
            }
        }
        for line in lines {
            fctx.trace(1, || TraceEvent::new(line));
        }
        Ok(EditSet::new())
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!("LFIND: {} loop(s) total", stats.matches))
            .field("loops", stats.matches)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};

    const NESTED: &str = r#"
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
	cmpl $2, %eax
	jne .Louter
	ret
"#;

    #[test]
    fn finds_and_reports_nest() {
        let mut unit = MaoUnit::parse(NESTED).unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("trace", "1"));
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.transformations, 0, "analysis-only");
        let text = ctx.rendered_trace().join("\n");
        assert!(text.contains("f: 2 loop(s)"), "{text}");
        assert!(text.contains("depth 1"));
        assert!(text.contains("depth 2"));
    }

    #[test]
    fn does_not_modify_the_unit() {
        let mut unit = MaoUnit::parse(NESTED).unwrap();
        let before = unit.emit();
        run(&mut unit, &mut PassContext::default()).unwrap();
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn flags_unresolved_functions() {
        let mut unit =
            MaoUnit::parse(".type f, @function\nf:\n.L:\n\taddl $1, %eax\n\tjne .L\n\tjmp *%rax\n")
                .unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("trace", "1"));
        run(&mut unit, &mut ctx).unwrap();
        let text = ctx.rendered_trace().join("\n");
        assert!(text.contains("flagged"), "{text}");
    }
}
