//! The ISA boundary for the optimizer core.
//!
//! Passes and relaxation reach every target-specific fact — instruction
//! shapes, encoded lengths, branch forms, effects, alignment policy — through
//! this module rather than importing `mao_x86` directly. Hot paths use the
//! statically dispatched helpers on the neutral [`Insn`] enum (x86 stays
//! monomorphic; the enum arm is resolved at compile time). Cold paths
//! (parsing hooks, nop padding, cost-table binding) go through the
//! [`Isa`] vtable obtained from [`isa()`].
//!
//! The submodules [`x86`] and [`aarch64`] re-export the concrete backends so
//! genuinely target-specific passes (SCHED, SUPEROPT, LOOP16) can name their
//! types without a direct `mao_x86`/`mao_aarch64` dependency edge in the
//! pass source — such passes must also list their targets in their
//! descriptor's [`crate::pass::PassDescriptor::isas`].

pub use mao_isa::{
    branch_lengths, effect_summary, effective_jobs, encoded_length, isa, relaxable_branch,
    AlignPolicy, BranchForm, EffectSummary, Insn, Isa, IsaError, IsaId, Sym,
};

pub use mao_isa::aarch64;
pub use mao_isa::container;
pub use mao_isa::x86;
