//! The MAO optimization passes (paper §III).
//!
//! | Registry name | Paper section | What it does |
//! |---|---|---|
//! | `MAOPASS` | Fig. 3 | example pass: prints function names |
//! | `LFIND` | §III.A | loop recognition report (the paper's example invocation) |
//! | `REDZEXT` | §III.B.a | remove redundant zero-extension moves |
//! | `REDTEST` | §III.B.b | remove redundant `test` instructions |
//! | `REDMOV` | §III.B.c | reuse registers for repeated loads |
//! | `ADDADD` | §III.B.d | fold add/add immediate sequences |
//! | `LOOP16` | §III.C.e | align short loops to 16-byte decode lines |
//! | `LSDFIT` | §III.C.f | shift loops into ≤4 decode lines for the LSD |
//! | `BRALIGN` | §III.C.g | de-alias back branches sharing a PC>>5 bucket |
//! | `DCE` | §III.D | unreachable-code elimination |
//! | `CONSTFOLD` | §III.D | constant folding |
//! | `NOPIN` | §III.E.i | Nopinizer: seeded random NOP insertion |
//! | `NOPKILL` | §III.E.j | Nop Killer: strip alignment NOPs/directives |
//! | `PREFNTA` | §III.E.k | inverse prefetching from reuse-distance profile |
//! | `INSTPREP` | §III.E.l | 5-byte NOPs at entry/exit for instrumentation |
//! | `SIMADDR` | §III.E.m | fwd/bwd instruction simulation of PMU samples |
//! | `SCHED` | §III.F | basic-block list scheduling |
//! | `PANIC` | — | fault injection: deliberate panic/error/sleep for isolation tests |
//! | `MISOPT` | — | fault injection: deliberate miscompile for checker self-tests |

mod addadd;
mod branchalign;
mod constfold;
mod deadcode;
mod faultinject;
mod instrument;
mod layout_util;
mod lfind;
mod loopalign;
mod lsdfit;
mod nopinizer;
mod nopkiller;
mod prefetch;
mod printfn;
mod redmov;
mod redtest;
mod redzext;
pub mod schedule;
pub mod simaddr;

use crate::isa::IsaId;
use crate::pass::{OptionSpec, PassDescriptor, PassScope::*};

pub use crate::isa::x86::cost::CostModel;
pub use schedule::Policy;

/// ISA-neutral: entries, labels, layout and the neutral `Insn` surface.
const ALL: &[IsaId] = &IsaId::ALL;
/// x86 mnemonics, operand shapes, cost tables or decode geometry.
const X86: &[IsaId] = &[IsaId::X86_64];
const COUNT_ONLY: &[OptionSpec] = &[OptionSpec::flag("count-only")];

/// The built-in passes, one row each. [`crate::pass::register_extension`]
/// adds passes that live above this crate to the same registry.
#[rustfmt::skip]
pub const BUILTINS: &[PassDescriptor] = &[
    PassDescriptor { name: "MAOPASS", scope: Unit, isas: ALL, options: &[], run: printfn::run,
        description: "example pass: print the name of every function" },
    PassDescriptor { name: "LFIND", scope: Unit, isas: ALL, options: &[], run: lfind::run,
        description: "find loops and report the loop structure graph" },
    PassDescriptor { name: "REDZEXT", scope: Function, isas: X86, options: COUNT_ONLY,
        run: redzext::run,
        description: "remove zero-extension moves made redundant by a prior 32-bit write" },
    PassDescriptor { name: "REDTEST", scope: Function, isas: X86, options: COUNT_ONLY,
        run: redtest::run,
        description: "remove test instructions whose flags were already set by a prior ALU op" },
    PassDescriptor { name: "REDMOV", scope: Function, isas: X86, options: COUNT_ONLY,
        run: redmov::run, description: "replace repeated identical loads with register moves" },
    PassDescriptor { name: "ADDADD", scope: Function, isas: X86, options: COUNT_ONLY,
        run: addadd::run,
        description: "fold sequences of immediate add/sub on the same register" },
    PassDescriptor { name: "LOOP16", scope: Unit, isas: X86, run: loopalign::run,
        options: &[OptionSpec::u64("max-size", 1, 4096)],
        description: "align short innermost loops so they fit one 16-byte decode line" },
    PassDescriptor { name: "LSDFIT", scope: Unit, isas: X86, run: lsdfit::run,
        options: &[OptionSpec::u64("max-lines", 1, 64)],
        description: "shift loops into the Loop Stream Detector's decode-line window" },
    PassDescriptor { name: "BRALIGN", scope: Unit, isas: X86, run: branchalign::run,
        options: &[OptionSpec::u64("shift", 1, 16), OptionSpec::u64("rounds", 0, 64)],
        description: "separate back branches that alias in the PC>>5-indexed predictor" },
    PassDescriptor { name: "DCE", scope: Function, isas: ALL, options: &[], run: deadcode::run,
        description: "remove basic blocks unreachable from the function entry" },
    PassDescriptor { name: "CONSTFOLD", scope: Function, isas: X86, options: &[],
        run: constfold::run,
        description: "rewrite immediate ALU ops on known-constant registers into movs" },
    PassDescriptor { name: "NOPIN", scope: Unit, isas: X86, run: nopinizer::run,
        options: &[OptionSpec::u64("seed", 0, u64::MAX), OptionSpec::f64("density", 0.0, 1.0),
                   OptionSpec::u64("maxlen", 1, 64)],
        description: "insert random NOP sequences to expose micro-architectural cliffs" },
    PassDescriptor { name: "NOPKILL", scope: Unit, isas: ALL, run: nopkiller::run,
        options: &[OptionSpec::flag("keep-aligns"), OptionSpec::flag("keep-nops")],
        description: "remove alignment directives and padding NOPs from text sections" },
    PassDescriptor { name: "PREFNTA", scope: Unit, isas: X86, run: prefetch::run,
        options: &[OptionSpec::u64("threshold", 0, u64::MAX)],
        description: "make low-reuse loads non-temporal via prefetchnta insertion" },
    PassDescriptor { name: "INSTPREP", scope: Unit, isas: X86, run: instrument::run,
        options: &[OptionSpec::u64("line", 8, 4096)],
        description: "plant 5-byte NOPs at function entries/exits for atomic patching" },
    PassDescriptor { name: "SIMADDR", scope: Unit, isas: X86, options: &[], run: simaddr::run,
        description: "amplify PMU address samples by forward/backward simulation" },
    PassDescriptor { name: "SCHED", scope: Function, isas: X86, run: schedule::run,
        options: &[OptionSpec::one_of("policy", &["critical-path", "source-order"])],
        description: "critical-path list scheduling within basic blocks" },
    PassDescriptor { name: "PANIC", scope: Unit, isas: ALL, run: faultinject::run_panic,
        options: &[OptionSpec::text("func"), OptionSpec::u64("sleep_ms", 0, 3_600_000),
                   OptionSpec::flag("error")],
        description: "fault injection: panic, or fail with `error`" },
    PassDescriptor { name: "MISOPT", scope: Unit, isas: X86, run: faultinject::run_misopt,
        options: &[OptionSpec::one_of("mode", &["imm", "drop"]),
                   OptionSpec::u64("nth", 0, u64::MAX)],
        description: "fault injection: deliberately miscompile the nth candidate" },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_all_paper_passes() {
        let names: Vec<&str> = BUILTINS.iter().map(|d| d.name).collect();
        for name in [
            "MAOPASS",
            "LFIND",
            "REDZEXT",
            "REDTEST",
            "REDMOV",
            "ADDADD",
            "LOOP16",
            "LSDFIT",
            "BRALIGN",
            "DCE",
            "CONSTFOLD",
            "NOPIN",
            "NOPKILL",
            "PREFNTA",
            "INSTPREP",
            "SIMADDR",
            "SCHED",
            "PANIC",
            "MISOPT",
        ] {
            assert!(names.contains(&name), "missing pass {name}");
        }
        assert_eq!(names.len(), 19);
    }
}
