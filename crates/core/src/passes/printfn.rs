//! The minimal example pass from the paper's Figure 3: print every function
//! name through the standard tracing facility.

use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::unit::MaoUnit;

/// `MAOPASS` — prints function names (Fig. 3's `MaoPass`).
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    for function in unit.functions_cached() {
        ctx.trace(3, || {
            TraceEvent::new(format!("Func: {}", function.name)).field("function", &function.name)
        });
        stats.matched(1);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassOptions;

    #[test]
    fn prints_function_names_at_level_3() {
        let mut unit =
            MaoUnit::parse(".type f, @function\nf:\n\tret\n.type g, @function\ng:\n\tret\n")
                .unwrap();
        let mut ctx = PassContext::from_options(PassOptions::new().with("trace", "3"));
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.matches, 2);
        assert_eq!(ctx.rendered_trace(), vec!["Func: f", "Func: g"]);
        assert!(
            ctx.events.iter().all(|ev| ev.scope.is_empty()),
            "scope is stamped by the pipeline"
        );
    }

    #[test]
    fn silent_at_level_0() {
        let mut unit = MaoUnit::parse(".type f, @function\nf:\n\tret\n").unwrap();
        let mut ctx = PassContext::default();
        run(&mut unit, &mut ctx).unwrap();
        assert!(ctx.events.is_empty());
    }
}
