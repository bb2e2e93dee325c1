//! `LOOP16` — short-loop alignment (paper §III.C.e).
//!
//! The Core-2 front end decodes instructions in 16-byte chunks. A short loop
//! that fits in 16 bytes but happens to *cross* a 16-byte boundary needs two
//! decode lines per iteration instead of one — the effect behind the 7%
//! 252.eon regression between GCC 4.2 and 4.3 the paper dissects.
//!
//! The pass finds innermost loops that would fit within one aligned 16-byte
//! chunk but currently cross a boundary, and inserts a `.p2align 4,,15`
//! before the loop. Relaxation is re-run after every change because moving
//! one loop can move (and re-break) everything after it.

use mao_asm::{Align, Directive, Entry};
use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::passes::layout_util::{loop_span, LayoutProvider};
use crate::unit::{EditSet, MaoUnit};

/// The short-loop 16-byte alignment pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    // Decode-line geometry comes from the installed cost model (16 on
    // the built-in Core-2-like table); non-power-of-two measurements
    // cannot be expressed as a `.p2align`, so fall back to 16.
    let line = match u64::from(crate::isa::x86::cost::current().machine.decode_line) {
        l if l.is_power_of_two() => l,
        _ => 16,
    };
    // Loops at most this many bytes are candidates (default: one line).
    let max_size = ctx.options.get_u64("max-size", line);
    let mut trace: Vec<String> = Vec::new();
    // Layouts come from the shared cache (free when the unit is
    // unchanged); edits patch the cached layout incrementally.
    let mut provider = LayoutProvider::new(ctx);
    let mut k = 0;
    loop {
        let Some(function) = unit.functions_cached().get(k).cloned() else {
            break;
        };
        let layout = provider.layout(unit)?;
        let analyses = ctx.analyses.for_function(unit, &function);
        let cfg = analyses.cfg(unit, &function);
        let nest = analyses.loops(unit, &function);
        let mut edits = EditSet::new();
        for &li in &nest.innermost() {
            let Some(span) = loop_span(&cfg, &nest, &nest.loops[li], &layout) else {
                continue;
            };
            if span.size() == 0 || span.size() > max_size {
                continue;
            }
            if !span.crosses(line) {
                continue;
            }
            stats.matched(1);
            trace.push(format!(
                "{}: aligning loop at {:#x}..{:#x} ({} bytes)",
                function.name,
                span.start,
                span.end,
                span.size()
            ));
            edits.insert_before(
                span.first_entry,
                vec![Entry::Directive(Directive::Align(Align {
                    alignment: line,
                    fill: None,
                    max_skip: Some(line - 1),
                    p2_form: true,
                }))],
            );
            stats.transformed(1);
        }
        if !edits.is_empty() {
            provider.apply(unit, edits)?;
        }
        k += 1;
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
    use crate::relax::{relax, Layout};

    /// The §III.C.e loop: movss+add+cmp+jne, 13 bytes. Offset it so it
    /// crosses a 16-byte boundary, run the pass, verify it no longer does.
    #[test]
    fn eon_short_loop_gets_aligned() {
        // 10 bytes of padding puts the 13-byte loop at offset 10: crosses 16.
        let text = r#"
	.type	f, @function
f:
	nopw 0(%rax,%rax,1)
	nopl (%rax)
	nop
.Lloop:
	movss %xmm0, (%rdi,%rax,4)
	addq $1, %rax
	cmpq $8, %rax
	jne .Lloop
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        // Confirm the precondition: loop crosses a boundary.
        let layout = relax(&unit).unwrap();
        let start = unit.find_label(".Lloop").unwrap();
        assert_eq!(layout.addr[start], 10);

        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);

        let layout = relax(&unit).unwrap();
        let start_id = unit.find_label(".Lloop").unwrap();
        let start = layout.addr[start_id];
        assert_eq!(start % 16, 0, "loop now starts on a decode line");
        assert_eq!(Layout::decode_lines(start, start + 13), 1);
        assert!(unit.emit().contains(".p2align 4,,15"));
    }

    #[test]
    fn aligned_loop_untouched() {
        let text = r#"
	.type	f, @function
f:
.Lloop:
	movss %xmm0, (%rdi,%rax,4)
	addq $1, %rax
	cmpq $8, %rax
	jne .Lloop
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        let before = unit.emit();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn large_loop_not_aligned() {
        // A loop bigger than 16 bytes cannot fit one line; leave it alone.
        let body = "\taddl $1, %eax\n".repeat(8); // 8 * 3 = 24 bytes
        let text = format!(".type f, @function\nf:\n\tnop\n.Lloop:\n{body}\tjne .Lloop\n\tret\n");
        let mut unit = MaoUnit::parse(&text).unwrap();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn max_size_option_widens_candidates() {
        let body = "\taddl $1, %eax\n".repeat(8); // 24 bytes, fits 2 lines
        let text = format!(".type f, @function\nf:\n\tnop\n.Lloop:\n{body}\tjne .Lloop\n\tret\n");
        let mut unit = MaoUnit::parse(&text).unwrap();
        let mut ctx =
            PassContext::from_options(crate::pass::PassOptions::new().with("max-size", "32"));
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);
    }

    #[test]
    fn idempotent_on_second_run() {
        let text = r#"
	.type	f, @function
f:
	nopw 0(%rax,%rax,1)
	nopl (%rax)
	nop
.Lloop:
	movss %xmm0, (%rdi,%rax,4)
	addq $1, %rax
	cmpq $8, %rax
	jne .Lloop
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        let mut ctx = PassContext::default();
        run(&mut unit, &mut ctx).unwrap();
        let after_first = unit.emit();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), after_first);
    }
}
