//! `LSDFIT` — Loop Stream Detector fitting (paper §III.C.f, Figs. 4/5).
//!
//! The Intel Loop Stream Detector replays decoded loop iterations, bypassing
//! fetch and decode, but only for loops that (on Core-2-era parts) span at
//! most four 16-byte decode lines. The paper's Figure 4 shows a 3-block loop
//! physically spread over six lines; inserting six NOPs in front moves it to
//! span four lines (Figure 5) and doubles its speed.
//!
//! This pass shifts qualifying loops — small enough to fit the LSD window
//! but currently spanning too many lines — by inserting NOPs *before* the
//! loop (executed once on entry, never inside the loop body).

use crate::isa::x86::Instruction;
use mao_asm::Entry;
use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::passes::layout_util::{loop_span, LayoutProvider};
use crate::relax::Layout;
use crate::unit::{EditSet, MaoUnit};

/// Smallest shift `k` (in bytes) that brings `[start+k, start+k+size)` to at
/// most `max_lines` decode lines, if one exists within one line of shifting.
pub(crate) fn fitting_shift(start: u64, size: u64, max_lines: u64) -> Option<u64> {
    if size == 0 || size > max_lines * 16 {
        return None;
    }
    (0..16).find(|k| Layout::decode_lines(start + k, start + k + size) <= max_lines)
}

/// The LSD-fitting pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    // The LSD window in decode lines (4 on Core-2 era parts; the paper
    // notes the requirement changes across generations). The default
    // comes from the installed cost model — a calibrated table retargets
    // the pass without recompiling; an explicit option still overrides.
    let model_lines = u64::from(crate::isa::x86::cost::current().machine.lsd_max_lines);
    let max_lines = ctx.options.get_u64("max-lines", model_lines.max(1));
    let mut trace: Vec<String> = Vec::new();
    // Layouts come from the shared cache; each NOP insertion patches the
    // cached layout instead of re-relaxing the whole unit.
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
            if span.decode_lines() <= max_lines {
                continue;
            }
            let Some(shift) = fitting_shift(span.start, span.size(), max_lines) else {
                continue; // too big for the window no matter the placement
            };
            if shift == 0 {
                continue;
            }
            stats.matched(1);
            trace.push(format!(
                "{}: loop at {:#x} spans {} lines; shifting by {} NOP bytes to fit {}",
                function.name,
                span.start,
                span.decode_lines(),
                shift,
                max_lines,
            ));
            let pad: Vec<Entry> = Instruction::nop_pad(shift as usize)
                .into_iter()
                .map(|i| Entry::Insn(i.into()))
                .collect();
            edits.insert_before(span.first_entry, pad);
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
    use crate::cfg::Cfg;
    use crate::loops::find_loops;
    use crate::pass::{PassContext, PassOptions};
    use crate::relax::relax;

    /// A ~62-byte three-block loop placed at offset 10 so it spans 5 decode
    /// lines; the pass must shift it into 4.
    fn figure4_like() -> String {
        let mut s = String::from(".type f, @function\nf:\n");
        // 10 bytes of preamble.
        s.push_str("\tnopw 0(%rax,%rax,1)\n\tnopl (%rax)\n\tnop\n");
        s.push_str(".L0:\n");
        s.push_str("\tcmpl %r10d, %edx\n\tjne .L1\n");
        s.push_str("\taddl $7, %r9d\n\taddl $5, %r9d\n\taddl $3, %r9d\n");
        s.push_str(".L1:\n");
        s.push_str("\taddl $9, %r8d\n\tmovl %r10d, %edx\n\taddl $1, %esi\n");
        s.push_str("\taddl $1, %r10d\n\taddl $2, %esi\n\taddl $3, %esi\n");
        s.push_str("\taddl $4, %esi\n\taddl $5, %esi\n\taddl $6, %esi\n");
        s.push_str("\taddl $7, %esi\n\taddl $8, %esi\n");
        s.push_str("\tcmpl $305419896, %r10d\n\tjl .L0\n");
        s.push_str("\tret\n");
        s
    }

    #[test]
    fn oversize_loop_is_shifted_into_window() {
        let mut unit = MaoUnit::parse(&figure4_like()).unwrap();
        let layout = relax(&unit).unwrap();
        let l0 = unit.find_label(".L0").unwrap();
        let start = layout.addr[l0];
        assert_eq!(start, 10);

        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);

        let layout = relax(&unit).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let nest = find_loops(&cfg);
        let span = loop_span(&cfg, &nest, &nest.loops[nest.innermost()[0]], &layout).unwrap();
        assert!(
            span.decode_lines() <= 4,
            "loop spans {} lines after fit",
            span.decode_lines()
        );
        // The inserted NOPs are before the loop, not inside it.
        let l0 = unit.find_label(".L0").unwrap();
        assert!(span.first_entry >= l0);
    }

    #[test]
    fn fitting_loop_untouched() {
        // Same loop but starting at 0: within the window already.
        let text = figure4_like().replace("\tnopw 0(%rax,%rax,1)\n\tnopl (%rax)\n\tnop\n", "");
        let mut unit = MaoUnit::parse(&text).unwrap();
        let before = unit.emit();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn too_large_loop_skipped() {
        let body = "\taddl $1, %eax\n".repeat(30); // 90 bytes > 64
        let text = format!(".type f, @function\nf:\n\tnop\n.L:\n{body}\tjne .L\n\tret\n");
        let mut unit = MaoUnit::parse(&text).unwrap();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn max_lines_option() {
        // With a 2-line window the figure-4 loop (~62 bytes) can never fit.
        let mut unit = MaoUnit::parse(&figure4_like()).unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("max-lines", "2"));
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn fitting_shift_math() {
        // 62 bytes at offset 10: lines(10, 72) = 5; at 16: lines = 4.
        assert_eq!(fitting_shift(10, 62, 4), Some(6));
        // Already fitting: shift 0.
        assert_eq!(fitting_shift(16, 62, 4), Some(0));
        // 65 bytes cannot fit 4 lines.
        assert_eq!(fitting_shift(0, 65, 4), None);
        // Empty loop: no shift.
        assert_eq!(fitting_shift(0, 0, 4), None);
    }

    #[test]
    fn figure_4_to_5_is_six_nops() {
        // The paper's loop spans 6 lines and six NOPs bring it to 4: our
        // synthetic equivalent at offset 10 needs exactly 6 bytes too.
        let mut unit = MaoUnit::parse(&figure4_like()).unwrap();
        let mut ctx = PassContext::default();
        run(&mut unit, &mut ctx).unwrap();
        let nops_before_l0 = unit
            .entries()
            .iter()
            .take_while(|e| e.label() != Some(".L0"))
            .filter(|e| e.insn().is_some_and(Instruction::is_nop))
            .count();
        // 3 preamble NOPs + the inserted pad (1 x 6-byte NOP).
        assert_eq!(nops_before_l0, 4);
    }
}
