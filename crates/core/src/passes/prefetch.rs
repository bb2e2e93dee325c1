//! `PREFNTA` — inverse prefetching (paper §III.E.k).
//!
//! On Core-2, preceding a load with a `prefetchnta` to the same address
//! makes the load non-temporal: the line fills a single way of the cache
//! instead of polluting the whole set. The paper pairs this with *"a novel
//! memory reuse distance profiler to identify loads with little reuse"*.
//!
//! This pass consumes the reuse-distance side of a [`Profile`]: loads whose
//! measured reuse distance exceeds a threshold (i.e. the data will be
//! evicted before any reuse) get the prefetch treatment.
//!
//! Options: `threshold[N]` — minimum reuse distance in cache lines to
//! qualify (default 8192, i.e. beyond a 512 KiB L2 at 64 B lines).

use crate::isa::x86::operand::Operand;
use crate::isa::x86::{def_use, Instruction, Mnemonic};
use mao_asm::Entry;
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::profile::Site;
use crate::unit::{EditSet, MaoUnit};

/// The inverse-prefetching pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let threshold = ctx.options.get_u64("threshold", 8192);
    if ctx.profile.is_none() {
        ctx.trace(1, || {
            TraceEvent::new("PREFNTA: no profile attached; nothing to do")
        });
        return Ok(PassStats::default());
    }
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let profile = fctx.profile.expect("checked above");
        let mut edits = EditSet::new();
        let mut insn_index = 0usize;
        for id in function.entry_ids() {
            let Some(insn) = unit.insn(id) else { continue };
            let this_index = insn_index;
            insn_index += 1;
            // A plain load with an addressable memory source.
            let du = def_use(insn);
            if !du.mem_read || du.mem_write || insn.mnemonic == Mnemonic::Prefetchnta {
                continue;
            }
            let Some(Operand::Mem(mem)) = insn.operands.first() else {
                continue;
            };
            let site = Site::new(&function.name, this_index);
            let Some(distance) = profile.reuse_distance(&site) else {
                continue;
            };
            if distance < threshold {
                continue;
            }
            fctx.stats.matched(1);
            let prefetch = Instruction::new(Mnemonic::Prefetchnta, vec![Operand::Mem(mem.clone())]);
            edits.insert_before(id, vec![Entry::Insn(prefetch.into())]);
            fctx.stats.transformed(1);
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "PREFNTA: {} loads made non-temporal",
            stats.transformations
        ))
        .field("converted", stats.transformations)
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PassContext, PassOptions};
    use crate::profile::Profile;

    const SAMPLE: &str = r#"
	.type	f, @function
f:
	movq (%rdi), %rax
	movq 8(%rdi), %rbx
	addq %rbx, %rax
	ret
"#;

    fn ctx_with_profile(profile: Profile, threshold: Option<&str>) -> PassContext {
        let mut opts = PassOptions::new();
        if let Some(t) = threshold {
            opts.set("threshold", t);
        }
        let mut ctx = PassContext::from_options(opts);
        ctx.profile = Some(profile);
        ctx
    }

    #[test]
    fn low_reuse_load_gets_prefetch() {
        let mut profile = Profile::new();
        // Instruction index 0 = the first movq; huge reuse distance.
        profile.set_reuse_distance(Site::new("f", 0), 1_000_000);
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let mut ctx = ctx_with_profile(profile, None);
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);
        let text = unit.emit();
        let pf = text.find("prefetchnta (%rdi)").expect("prefetch inserted");
        let ld = text.find("movq (%rdi), %rax").unwrap();
        assert!(pf < ld, "prefetch precedes the load");
    }

    #[test]
    fn high_reuse_load_untouched() {
        let mut profile = Profile::new();
        profile.set_reuse_distance(Site::new("f", 0), 4); // hot data
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let mut ctx = ctx_with_profile(profile, None);
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn threshold_option_respected() {
        let mut profile = Profile::new();
        profile.set_reuse_distance(Site::new("f", 1), 100);
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let mut ctx = ctx_with_profile(profile, Some("50"));
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 1);
        assert!(unit.emit().contains("prefetchnta 8(%rdi)"));
    }

    #[test]
    fn no_profile_is_a_noop() {
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let before = unit.emit();
        let mut ctx = PassContext::default();
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
        assert_eq!(unit.emit(), before);
    }

    #[test]
    fn stores_not_prefetched() {
        let text = ".type f, @function\nf:\n\tmovq %rax, (%rdi)\n\tret\n";
        let mut profile = Profile::new();
        profile.set_reuse_distance(Site::new("f", 0), 1_000_000);
        let mut unit = MaoUnit::parse(text).unwrap();
        let mut ctx = ctx_with_profile(profile, None);
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0);
    }

    #[test]
    fn idempotence_prefetch_not_reprefetched() {
        // After one run the indices shift; rerunning with the same profile
        // must not prefetch the prefetch.
        let mut profile = Profile::new();
        profile.set_reuse_distance(Site::new("f", 0), 1_000_000);
        let mut unit = MaoUnit::parse(SAMPLE).unwrap();
        let mut ctx = ctx_with_profile(profile.clone(), None);
        run(&mut unit, &mut ctx).unwrap();
        let mut ctx = ctx_with_profile(profile, None);
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.transformations, 0, "{}", unit.emit());
    }
}
