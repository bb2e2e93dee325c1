//! `NOPIN` — the Nopinizer (paper §III.E.i).
//!
//! Inspired by blind optimization (Knights/Mytkowicz/Diwan): insert *random*
//! NOP sequences into the code stream to shift code around and expose
//! micro-architectural cliffs (alias constraints, predictor limits). The
//! paper: *"A random number seed can be specified to produce repeatable
//! experiments. Furthermore, the insertion density can be specified ... as
//! well as the length of the NOP sequences."*
//!
//! Options: `seed[N]` (default 0), `density[0..1]` (probability of inserting
//! before an instruction, default 0.05), `maxlen[N]` (maximum NOP-sequence
//! byte length, default 3).

use crate::isa::x86::Instruction;
use mao_asm::Entry;
use mao_obs::TraceEvent;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::pass::{for_each_function, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// The random NOP-insertion pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    let seed = ctx.options.get_u64("seed", 0);
    let density = ctx.options.get_f64("density", 0.05).clamp(0.0, 1.0);
    let maxlen = ctx.options.get_u64("maxlen", 3).max(1) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    for_each_function(unit, |unit, function| {
        let mut edits = EditSet::new();
        for id in function.entry_ids() {
            if unit.insn(id).is_none() {
                continue;
            }
            if rng.random::<f64>() >= density {
                continue;
            }
            let len = rng.random_range(1..=maxlen);
            let pad: Vec<Entry> = Instruction::nop_pad(len)
                .into_iter()
                .map(|i| Entry::Insn(i.into()))
                .collect();
            stats.transformed(pad.len());
            stats.matched(1);
            edits.insert_before(id, pad);
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "NOPIN: seed={seed} density={density} -> {} NOPs at {} sites",
            stats.transformations, stats.matches
        ))
        .field("seed", seed)
        .field("density", density)
        .field("nops", stats.transformations)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};

    fn body() -> String {
        let insns = "\taddl $1, %eax\n".repeat(100);
        format!(".type f, @function\nf:\n{insns}\tret\n")
    }

    fn nop_count(unit: &MaoUnit) -> usize {
        unit.entries()
            .iter()
            .filter(|e| e.insn().is_some_and(Instruction::is_nop))
            .count()
    }

    #[test]
    fn same_seed_is_repeatable() {
        let mut a = MaoUnit::parse(&body()).unwrap();
        let mut b = MaoUnit::parse(&body()).unwrap();
        let opts = PassOptions::new().with("seed", "42").with("density", "0.3");
        run(&mut a, &mut PassContext::from_options(opts.clone())).unwrap();
        run(&mut b, &mut PassContext::from_options(opts)).unwrap();
        assert_eq!(a.emit(), b.emit());
        assert!(nop_count(&a) > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = MaoUnit::parse(&body()).unwrap();
        let mut b = MaoUnit::parse(&body()).unwrap();
        run(
            &mut a,
            &mut PassContext::from_options(
                PassOptions::new().with("seed", "1").with("density", "0.3"),
            ),
        )
        .unwrap();
        run(
            &mut b,
            &mut PassContext::from_options(
                PassOptions::new().with("seed", "2").with("density", "0.3"),
            ),
        )
        .unwrap();
        assert_ne!(a.emit(), b.emit());
    }

    #[test]
    fn density_zero_inserts_nothing() {
        let mut unit = MaoUnit::parse(&body()).unwrap();
        let before = unit.emit();
        let stats = run(
            &mut unit,
            &mut PassContext::from_options(PassOptions::new().with("density", "0")),
        )
        .unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn density_one_inserts_everywhere() {
        let mut unit = MaoUnit::parse(&body()).unwrap();
        let stats = run(
            &mut unit,
            &mut PassContext::from_options(
                PassOptions::new().with("density", "1").with("maxlen", "1"),
            ),
        )
        .unwrap();
        // 101 instructions (100 adds + ret): one site each.
        assert_eq!(stats.matches, 101);
        assert_eq!(nop_count(&unit), 101);
    }

    #[test]
    fn directives_and_labels_not_targeted() {
        let mut unit =
            MaoUnit::parse(".type f, @function\nf:\n\t.p2align 4\n.Lx:\n\tret\n").unwrap();
        let stats = run(
            &mut unit,
            &mut PassContext::from_options(PassOptions::new().with("density", "1")),
        )
        .unwrap();
        assert_eq!(stats.matches, 1, "only the ret is an insertion site");
    }
}
