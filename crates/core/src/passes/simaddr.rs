//! `SIMADDR` — forward/backward instruction simulation (paper §III.E.m).
//!
//! For the RACEZ sampling race detector, each PMU sample delivers one
//! effective address plus the whole register file. Instead of raising the
//! sampling frequency, MAO simulates a *small subset* of instructions
//! forward and backward from the sample point, recovering the effective
//! addresses of neighbouring memory instructions from the captured register
//! content. The paper reports amplification factors of 4.1–6.3×.
//!
//! The simulated subset: register-to-register moves, immediate moves,
//! immediate add/sub, inc/dec, and `lea` with known inputs. Any other
//! definition makes the register's value unknown (forward) or
//! unrecoverable (backward).

use std::collections::HashMap;

use crate::isa::x86::operand::{Disp, Mem, Operand};
use crate::isa::x86::{def_use, Instruction, Mnemonic, RegId};
use mao_obs::TraceEvent;

use crate::pass::{PassContext, PassError, PassStats};
use crate::profile::{Profile, Sample, Site};
use crate::unit::MaoUnit;

/// A recovered effective address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredAddress {
    /// The memory instruction whose address was recovered.
    pub site: Site,
    /// The effective address.
    pub address: u64,
}

/// Evaluate a memory operand under a partial register valuation.
fn eval_mem(mem: &Mem, regs: &HashMap<RegId, u64>) -> Option<u64> {
    let disp = match &mem.disp {
        Disp::None => 0,
        Disp::Imm(v) => *v,
        Disp::Symbol { .. } => return None,
    };
    let mut addr = disp as u64;
    if let Some(b) = mem.base {
        if b.id == RegId::Rip {
            return None;
        }
        addr = addr.wrapping_add(*regs.get(&b.id)?);
    }
    if let Some(i) = mem.index {
        addr = addr.wrapping_add(regs.get(&i.id)?.wrapping_mul(u64::from(mem.scale)));
    }
    Some(addr)
}

/// The first directly-addressable memory operand of an instruction.
fn mem_operand(insn: &Instruction) -> Option<&Mem> {
    insn.operands.iter().find_map(|op| match op {
        Operand::Mem(m) => Some(m),
        _ => None,
    })
}

/// Result of stepping the simulator over one instruction.
enum Step {
    /// State updated; simulation continues.
    Ok,
    /// Instruction outside the simulated subset: the defined registers
    /// become unknown, simulation continues.
    Clobber,
    /// Control flow or barrier: simulation stops.
    Stop,
}

/// Apply `insn` to the register valuation, forward in time.
fn step_forward(insn: &Instruction, regs: &mut HashMap<RegId, u64>) -> Step {
    use Mnemonic as M;
    let du = def_use(insn);
    if du.barrier || insn.mnemonic.is_control_flow() {
        return Step::Stop;
    }
    let masked = |v: i64| v as u64 & insn.width().mask();
    match (insn.mnemonic, insn.operands.first(), insn.operands.get(1)) {
        (M::Mov, Some(Operand::Imm(v)), Some(Operand::Reg(d))) => {
            regs.insert(d.id, masked(*v));
            Step::Ok
        }
        (M::Mov, Some(Operand::Reg(s)), Some(Operand::Reg(d))) => {
            match regs.get(&s.id).copied() {
                Some(v) => {
                    regs.insert(d.id, v & insn.width().mask());
                }
                None => {
                    regs.remove(&d.id);
                }
            }
            Step::Ok
        }
        (M::Add, Some(Operand::Imm(v)), Some(Operand::Reg(d))) => {
            match regs.get(&d.id).copied() {
                Some(old) => {
                    regs.insert(d.id, old.wrapping_add(*v as u64) & insn.width().mask());
                }
                None => {}
            }
            Step::Ok
        }
        (M::Sub, Some(Operand::Imm(v)), Some(Operand::Reg(d))) => {
            if let Some(old) = regs.get(&d.id).copied() {
                regs.insert(d.id, old.wrapping_sub(*v as u64) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Inc, Some(Operand::Reg(d)), None) => {
            if let Some(old) = regs.get(&d.id).copied() {
                regs.insert(d.id, old.wrapping_add(1) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Dec, Some(Operand::Reg(d)), None) => {
            if let Some(old) = regs.get(&d.id).copied() {
                regs.insert(d.id, old.wrapping_sub(1) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Lea, Some(Operand::Mem(m)), Some(Operand::Reg(d))) => {
            match eval_mem(m, regs) {
                Some(addr) => {
                    regs.insert(d.id, addr & insn.width().mask());
                }
                None => {
                    regs.remove(&d.id);
                }
            }
            Step::Ok
        }
        _ => {
            for d in &du.reg_defs {
                regs.remove(&d.id);
            }
            Step::Clobber
        }
    }
}

/// Un-apply `insn` to the register valuation, walking backward in time.
/// `regs` holds post-instruction values on entry, pre-instruction on exit.
fn step_backward(insn: &Instruction, regs: &mut HashMap<RegId, u64>) -> Step {
    use Mnemonic as M;
    let du = def_use(insn);
    if du.barrier || insn.mnemonic.is_control_flow() {
        return Step::Stop;
    }
    match (insn.mnemonic, insn.operands.first(), insn.operands.get(1)) {
        (M::Add, Some(Operand::Imm(v)), Some(Operand::Reg(d))) => {
            if let Some(after) = regs.get(&d.id).copied() {
                regs.insert(d.id, after.wrapping_sub(*v as u64) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Sub, Some(Operand::Imm(v)), Some(Operand::Reg(d))) => {
            if let Some(after) = regs.get(&d.id).copied() {
                regs.insert(d.id, after.wrapping_add(*v as u64) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Inc, Some(Operand::Reg(d)), None) => {
            if let Some(after) = regs.get(&d.id).copied() {
                regs.insert(d.id, after.wrapping_sub(1) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Dec, Some(Operand::Reg(d)), None) => {
            if let Some(after) = regs.get(&d.id).copied() {
                regs.insert(d.id, after.wrapping_add(1) & insn.width().mask());
            }
            Step::Ok
        }
        (M::Mov, Some(Operand::Reg(s)), Some(Operand::Reg(d))) => {
            // After: d == s. Before: d unknown, s unchanged (so s's value is
            // recoverable *from* d if s is unknown going backward).
            let after_d = regs.get(&d.id).copied();
            regs.remove(&d.id);
            if let Some(v) = after_d {
                regs.entry(s.id).or_insert(v);
            }
            Step::Ok
        }
        _ => {
            // Any other definition destroys backward knowledge of its regs.
            for d in &du.reg_defs {
                regs.remove(&d.id);
            }
            Step::Clobber
        }
    }
}

/// Amplify one sample into recovered addresses for neighbouring memory
/// instructions. `insns` is the function's instruction list; the sample's
/// `insn_index` points into it. Returns recovered (site, address) pairs,
/// excluding the sampled instruction itself.
pub fn amplify_sample(
    function: &str,
    insns: &[&Instruction],
    sample: &Sample,
) -> Vec<RecoveredAddress> {
    let mut out = Vec::new();
    let start = sample.site.insn_index;
    if start >= insns.len() {
        return out;
    }

    // Forward: the snapshot is the state *before* the sampled instruction.
    let mut regs = sample.regs.clone();
    for (idx, insn) in insns.iter().enumerate().skip(start) {
        if idx > start {
            if let Some(mem) = mem_operand(insn) {
                if def_use(insn).mem_read || def_use(insn).mem_write {
                    if let Some(addr) = eval_mem(mem, &regs) {
                        out.push(RecoveredAddress {
                            site: Site::new(function, idx),
                            address: addr,
                        });
                    }
                }
            }
        }
        match step_forward(insn, &mut regs) {
            Step::Stop => break,
            _ => {}
        }
    }

    // Backward from the sample point.
    let mut regs = sample.regs.clone();
    for idx in (0..start).rev() {
        let insn = insns[idx];
        // First recover pre-instruction state, then evaluate the address
        // (operands are read before the instruction executes).
        match step_backward(insn, &mut regs) {
            Step::Stop => break,
            _ => {}
        }
        if let Some(mem) = mem_operand(insn) {
            if def_use(insn).mem_read || def_use(insn).mem_write {
                if let Some(addr) = eval_mem(mem, &regs) {
                    out.push(RecoveredAddress {
                        site: Site::new(function, idx),
                        address: addr,
                    });
                }
            }
        }
    }
    out
}

/// Amplify every sample in `profile` against `unit`. Returns all recovered
/// addresses (the amplification product the paper measures).
pub fn amplify(unit: &MaoUnit, profile: &Profile) -> Vec<RecoveredAddress> {
    let mut out = Vec::new();
    let functions = unit.functions();
    for sample in &profile.samples {
        let Some(function) = functions.iter().find(|f| f.name == sample.site.function) else {
            continue;
        };
        let insns: Vec<&Instruction> = function
            .entry_ids()
            .filter_map(|id| unit.insn(id))
            .collect();
        out.extend(amplify_sample(&function.name, &insns, sample));
    }
    out
}

/// The sample-amplification pass (analysis only: annotates the profile).
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let mut stats = PassStats::default();
    let Some(profile) = ctx.profile.take() else {
        ctx.trace(1, || {
            TraceEvent::new("SIMADDR: no profile attached; nothing to do")
        });
        return Ok(stats);
    };
    let recovered = amplify(unit, &profile);
    let original: usize = profile
        .samples
        .iter()
        .filter(|s| s.address.is_some())
        .count();
    stats.matched(original);
    stats.transformed(recovered.len());
    let factor = if original > 0 {
        (original + recovered.len()) as f64 / original as f64
    } else {
        0.0
    };
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "SIMADDR: {original} sampled addresses -> {} total ({factor:.1}x)",
            original + recovered.len()
        ))
        .field("sampled", original)
        .field("amplified", original + recovered.len())
    });
    // Write recovered addresses back as synthetic samples.
    let mut profile = profile;
    for r in recovered {
        profile.add_sample(Sample {
            site: r.site,
            regs: HashMap::new(),
            address: Some(r.address),
        });
    }
    ctx.profile = Some(profile);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassContext;

    /// The paper's example sequence:
    /// ```text
    /// IP1: mov -0x08(%rbp), %edx
    /// IP2: mov %edx, (%rax)
    /// IP3: addl $0x1, -0x4(%rbp)
    /// ```
    const PAPER_SEQ: &str = r#"
	.type	f, @function
f:
	movl -8(%rbp), %edx
	movl %edx, (%rax)
	addl $1, -4(%rbp)
	ret
"#;

    fn sample_at(idx: usize, regs: &[(RegId, u64)]) -> Sample {
        Sample {
            site: Site::new("f", idx),
            regs: regs.iter().copied().collect(),
            address: Some(0),
        }
    }

    #[test]
    fn forward_simulation_recovers_ip2() {
        let unit = MaoUnit::parse(PAPER_SEQ).unwrap();
        let mut profile = Profile::new();
        // Sampled IP1 with %rax and %rbp known.
        profile.add_sample(sample_at(0, &[(RegId::Rax, 0x5000), (RegId::Rbp, 0x7000)]));
        let rec = amplify(&unit, &profile);
        // IP2 (store через %rax) and IP3 (-4(%rbp)) both recovered.
        assert!(rec
            .iter()
            .any(|r| r.site.insn_index == 1 && r.address == 0x5000));
        assert!(rec
            .iter()
            .any(|r| r.site.insn_index == 2 && r.address == 0x7000 - 4));
    }

    #[test]
    fn backward_simulation_recovers_ip2() {
        let unit = MaoUnit::parse(PAPER_SEQ).unwrap();
        let mut profile = Profile::new();
        // Sampled IP3: %rax survived untouched since IP2.
        profile.add_sample(sample_at(2, &[(RegId::Rax, 0x5000), (RegId::Rbp, 0x7000)]));
        let rec = amplify(&unit, &profile);
        assert!(
            rec.iter()
                .any(|r| r.site.insn_index == 1 && r.address == 0x5000),
            "recovered: {rec:?}"
        );
        assert!(rec
            .iter()
            .any(|r| r.site.insn_index == 0 && r.address == 0x7000 - 8));
    }

    #[test]
    fn backward_inverts_immediate_adds() {
        let text = r#"
	.type	f, @function
f:
	movq (%rdi), %rax
	addq $16, %rdi
	movq (%rdi), %rbx
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let mut profile = Profile::new();
        // Sample the second load; %rdi = 0x1010 there, so the first load
        // read 0x1000.
        profile.add_sample(sample_at(2, &[(RegId::Rdi, 0x1010)]));
        let rec = amplify(&unit, &profile);
        assert!(rec
            .iter()
            .any(|r| r.site.insn_index == 0 && r.address == 0x1000));
    }

    #[test]
    fn unknown_registers_do_not_produce_addresses() {
        let unit = MaoUnit::parse(PAPER_SEQ).unwrap();
        let mut profile = Profile::new();
        profile.add_sample(sample_at(0, &[(RegId::Rbp, 0x7000)])); // %rax unknown
        let rec = amplify(&unit, &profile);
        assert!(rec.iter().all(|r| r.site.insn_index != 1));
        assert!(rec.iter().any(|r| r.site.insn_index == 2));
    }

    #[test]
    fn clobber_kills_forward_knowledge() {
        let text = r#"
	.type	f, @function
f:
	movq (%rdi), %rax
	imulq %rsi, %rdi
	movq (%rdi), %rbx
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let mut profile = Profile::new();
        profile.add_sample(sample_at(0, &[(RegId::Rdi, 0x1000)]));
        let rec = amplify(&unit, &profile);
        assert!(
            rec.iter().all(|r| r.site.insn_index != 2),
            "imul made %rdi unknown: {rec:?}"
        );
    }

    #[test]
    fn control_flow_stops_simulation() {
        let text = r#"
	.type	f, @function
f:
	movq (%rdi), %rax
	je .L
	movq 8(%rdi), %rbx
.L:
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let mut profile = Profile::new();
        profile.add_sample(sample_at(0, &[(RegId::Rdi, 0x1000)]));
        let rec = amplify(&unit, &profile);
        assert!(rec.is_empty(), "branch ends the simulated region: {rec:?}");
    }

    #[test]
    fn pass_reports_amplification() {
        let mut unit = MaoUnit::parse(PAPER_SEQ).unwrap();
        let mut profile = Profile::new();
        profile.add_sample(sample_at(0, &[(RegId::Rax, 0x5000), (RegId::Rbp, 0x7000)]));
        let mut ctx = PassContext::default();
        ctx.profile = Some(profile);
        ctx.trace_level = 1;
        let stats = run(&mut unit, &mut ctx).unwrap();
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.transformations, 2);
        // The profile came back enriched.
        assert_eq!(ctx.profile.as_ref().unwrap().samples.len(), 3);
        assert!(ctx.rendered_trace()[0].contains("3.0x"));
    }
}
