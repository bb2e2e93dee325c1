//! Fault-injection passes for testing request isolation.
//!
//! A long-running optimization service must survive a pass blowing up on a
//! pathological unit. These passes exist so tests (and operators probing a
//! deployment) can trigger the failure modes deliberately:
//!
//! * `PANIC` — panics unconditionally (or only when a function matching
//!   `func[NAME]` exists), modeling a pass bug;
//! * `PANIC=sleep_ms[N]` — first sleeps, modeling a runaway pass that must
//!   be cut off by the service's request timeout;
//! * `MISOPT` — deliberately *miscompiles* the unit (corrupts an immediate
//!   or drops an instruction) so the differential checker's oracle,
//!   shrinker, and regression persistence can be exercised end to end
//!   against a known-bad transformation.

use mao_obs::TraceEvent;

use crate::isa::x86::Operand;

use crate::pass::{PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// `PANIC` — deliberately panic (fault injection for isolation tests).
pub(crate) fn run_panic(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let sleep_ms = ctx.options.get_u64("sleep_ms", 0);
    if sleep_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
    }
    if let Some(name) = ctx.options.get("func") {
        if unit.find_function(name).is_none() {
            return Ok(PassStats::default());
        }
    }
    if ctx.options.has("error") {
        return Err(PassError::Other("injected pass error".to_string()));
    }
    panic!("injected pass panic (PANIC fault-injection pass)");
}

/// `MISOPT` — deliberately miscompile the unit (fault injection for the
/// differential checker).
///
/// Options:
/// * `mode[imm]` (default) — add 1 to the immediate of the `nth` ALU/mov
///   instruction that has one;
/// * `mode[drop]` — delete the `nth` non-control-flow instruction;
/// * `nth[N]` — which candidate to corrupt (default 0, in unit order).
///
/// The corruption is a *semantic* change with an unchanged-looking unit:
/// it still parses, lays out, and runs — only the computed values differ.
/// `mao check` must catch it; if it does not, the oracle is broken.
pub(crate) fn run_misopt(
    unit: &mut MaoUnit,
    ctx: &mut PassContext,
) -> Result<PassStats, PassError> {
    let mode = ctx.options.get("mode").unwrap_or("imm").to_string();
    let nth = ctx.options.get_u64("nth", 0) as usize;
    let mut stats = PassStats::default();
    let mut edits = EditSet::new();
    let mut seen = 0usize;
    for (id, entry) in unit.entries().iter().enumerate() {
        let Some(insn) = entry.insn() else { continue };
        let candidate = match mode.as_str() {
            "drop" => !insn.mnemonic.is_control_flow(),
            _ => {
                !insn.mnemonic.is_control_flow()
                    && insn.operands.iter().any(|o| matches!(o, Operand::Imm(_)))
            }
        };
        if !candidate {
            continue;
        }
        if seen < nth {
            seen += 1;
            continue;
        }
        match mode.as_str() {
            "drop" => {
                edits.delete(id);
            }
            _ => {
                let mut bad = insn.clone();
                for op in &mut bad.operands {
                    if let Operand::Imm(v) = op {
                        *v = v.wrapping_add(1);
                        break;
                    }
                }
                edits.replace_insn(id, bad);
            }
        }
        stats.transformed(1);
        break;
    }
    unit.apply(edits);
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "MISOPT: injected {} {mode} corruption(s)",
            stats.transformations
        ))
        .field("mode", &mode)
        .field("injected", stats.transformations)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassOptions;

    #[test]
    fn panics_unconditionally_by_default() {
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let mut ctx = PassContext::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_panic(&mut unit, &mut ctx);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn func_filter_skips_when_absent() {
        let mut unit = MaoUnit::parse(".type f, @function\nf:\n\tret\n").unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("func", "nosuch"));
        let stats = run_panic(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn error_option_returns_structured_error() {
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("error", ""));
        let err = run_panic(&mut unit, &mut ctx).unwrap_err();
        assert_eq!(err, PassError::Other("injected pass error".into()));
    }

    #[test]
    fn misopt_corrupts_one_immediate() {
        let mut unit =
            MaoUnit::parse(".type f, @function\nf:\n\tmovl $40, %eax\n\taddl $2, %eax\n\tret\n")
                .unwrap();
        let mut ctx = PassContext::default();
        let stats = run_misopt(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains("$41"), "first immediate bumped: {text}");
        assert!(text.contains("$2"), "later immediates untouched: {text}");
    }

    #[test]
    fn misopt_drop_deletes_one_instruction() {
        let mut unit =
            MaoUnit::parse(".type f, @function\nf:\n\tmovl $40, %eax\n\taddl $2, %eax\n\tret\n")
                .unwrap();
        let mut ctx =
            PassContext::from_options(PassOptions::new().with("mode", "drop").with("nth", "1"));
        let stats = run_misopt(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        assert!(text.contains("movl"), "nth=1 keeps the first insn: {text}");
        assert!(!text.contains("addl"), "nth=1 drops the second: {text}");
    }
}
