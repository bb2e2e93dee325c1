//! Window canonicalization: register renaming into a window-normal form.
//!
//! Two windows that differ only in register names describe the same
//! computation — `mov %rdi,%rax; mov %rax,%rbx` and `mov %r8,%rcx; mov
//! %rcx,%rdx` should hit the same learned-rewrite cache entry. Renaming
//! each distinct register to a fixed pool register in order of first
//! appearance produces a *canonical window*; the inverse mapping (the
//! *binding*) rewrites a discovered replacement back into the original
//! register context. Immediates and displacements stay concrete — windows
//! with different constants are different search problems (the constants
//! participate in folds), so they get distinct cache keys naturally.

use std::fmt::Write as _;

use mao_x86::operand::{Mem, Operand};
use mao_x86::{Instruction, Reg, RegId};

/// The canonical register pool, in assignment order: every renameable GPR
/// (`%rsp` is pinned — it anchors frame addressing and is never renamed;
/// `%rip` never appears in eligible windows).
pub const CANON_POOL: [RegId; 15] = [
    RegId::Rax,
    RegId::Rcx,
    RegId::Rdx,
    RegId::Rbx,
    RegId::Rbp,
    RegId::Rsi,
    RegId::Rdi,
    RegId::R8,
    RegId::R9,
    RegId::R10,
    RegId::R11,
    RegId::R12,
    RegId::R13,
    RegId::R14,
    RegId::R15,
];

/// A window renamed into canonical register space.
#[derive(Debug, Clone)]
pub struct CanonWindow {
    /// The instructions over `CANON_POOL[0..binding.len()]` (plus possibly
    /// the pinned `%rsp`), immediates concrete.
    pub insns: Vec<Instruction>,
    /// `binding[k]` is the original register that canonical register
    /// `CANON_POOL[k]` stands for.
    pub binding: Vec<RegId>,
    /// Cache key: a 128-bit FNV-1a over the canonical AT&T text. Register
    /// renames collapse to one key; different immediates do not.
    pub key: u128,
}

/// Rename every register in `insns` through `map` (identity for ids not in
/// the map — in practice only `%rsp`). Width and operand structure are
/// preserved.
pub fn rename_insns(insns: &[Instruction], map: impl Fn(RegId) -> RegId) -> Vec<Instruction> {
    insns
        .iter()
        .map(|insn| {
            let mut out = insn.clone();
            for op in &mut out.operands {
                match op {
                    Operand::Reg(r) | Operand::IndirectReg(r) => *r = rename_reg(*r, &map),
                    Operand::Mem(m) | Operand::IndirectMem(m) => rename_mem(m, &map),
                    Operand::Imm(_) | Operand::Label(_) => {}
                }
            }
            out
        })
        .collect()
}

fn rename_reg(r: Reg, map: &impl Fn(RegId) -> RegId) -> Reg {
    Reg { id: map(r.id), ..r }
}

fn rename_mem(m: &mut Mem, map: &impl Fn(RegId) -> RegId) {
    if let Some(b) = &mut m.base {
        *b = rename_reg(*b, map);
    }
    if let Some(i) = &mut m.index {
        *i = rename_reg(*i, map);
    }
}

/// Every register id an instruction's operands mention, in canonical visit
/// order (operands left to right; within a memory operand, base then
/// index).
fn visit_regs(insn: &Instruction, mut f: impl FnMut(RegId)) {
    for op in &insn.operands {
        match op {
            Operand::Reg(r) | Operand::IndirectReg(r) => f(r.id),
            Operand::Mem(m) | Operand::IndirectMem(m) => {
                if let Some(b) = &m.base {
                    f(b.id);
                }
                if let Some(i) = &m.index {
                    f(i.id);
                }
            }
            Operand::Imm(_) | Operand::Label(_) => {}
        }
    }
}

/// Canonicalize a window: rename registers to [`CANON_POOL`] in order of
/// first appearance. Returns `None` only if the window mentions more
/// distinct registers than the pool holds (impossible for x86-64 GPR
/// windows, kept as a guard).
pub fn canonicalize(insns: &[Instruction]) -> Option<CanonWindow> {
    let mut binding: Vec<RegId> = Vec::new();
    for insn in insns {
        let mut overflow = false;
        visit_regs(insn, |id| {
            if id == RegId::Rsp || binding.contains(&id) {
                return;
            }
            if binding.len() == CANON_POOL.len() {
                overflow = true;
                return;
            }
            binding.push(id);
        });
        if overflow {
            return None;
        }
    }
    let canonical = rename_insns(insns, |id| {
        match binding.iter().position(|&b| b == id) {
            Some(k) => CANON_POOL[k],
            None => id, // %rsp
        }
    });
    let key = window_key(&canonical);
    Some(CanonWindow {
        insns: canonical,
        binding,
        key,
    })
}

/// Rewrite `insns` (in canonical register space) back into the register
/// context described by `binding`. The inverse of [`canonicalize`]'s
/// renaming; instructions may only use pool registers that `binding`
/// covers (guaranteed for rewrites, which the search restricts to the
/// original window's registers).
pub fn decanonicalize(insns: &[Instruction], binding: &[RegId]) -> Vec<Instruction> {
    rename_insns(insns, |id| {
        match CANON_POOL.iter().position(|&p| p == id) {
            Some(k) if k < binding.len() => binding[k],
            _ => id, // %rsp
        }
    })
}

/// 128-bit FNV-1a over the canonical window text. Stable across processes
/// (feeds cache file names), collision-resistant enough for a cache whose
/// hits are re-verified before use.
pub fn window_key(canonical: &[Instruction]) -> u128 {
    let mut text = String::new();
    for insn in canonical {
        let _ = writeln!(text, "{insn}");
    }
    mao_x86::fnv::fnv1a128(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao::MaoUnit;

    pub(crate) fn parse_insns(lines: &str) -> Vec<Instruction> {
        let text: String = lines.lines().map(|l| format!("\t{}\n", l.trim())).collect();
        let unit = MaoUnit::parse(&text).unwrap();
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect()
    }

    #[test]
    fn rename_invariance() {
        let a = parse_insns("movq %rdi, %rax\nmovq %rax, %rbx\naddq 8(%rbx,%rdi,2), %rax");
        let b = parse_insns("movq %r8, %rcx\nmovq %rcx, %rdx\naddq 8(%rdx,%r8,2), %rcx");
        let ca = canonicalize(&a).unwrap();
        let cb = canonicalize(&b).unwrap();
        assert_eq!(ca.key, cb.key);
        assert_eq!(ca.insns, cb.insns);
    }

    #[test]
    fn different_immediates_key_differently() {
        let a = canonicalize(&parse_insns("addq $1, %rax\nmovq %rax, %rbx\nret")).unwrap();
        let b = canonicalize(&parse_insns("addq $2, %rax\nmovq %rax, %rbx\nret")).unwrap();
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn round_trip_through_binding() {
        let w = parse_insns("movq %r12, %rsi\nleaq 4(%rsi,%r12,8), %r13\nmovl %r13d, %esi");
        let c = canonicalize(&w).unwrap();
        assert_eq!(decanonicalize(&c.insns, &c.binding), w);
    }

    #[test]
    fn rsp_is_pinned() {
        let w = parse_insns("movq 24(%rsp), %rax\nmovq %rax, 32(%rsp)");
        let c = canonicalize(&w).unwrap();
        assert_eq!(c.binding, vec![RegId::Rax]);
        let text = format!("{}", c.insns[0]);
        assert!(text.contains("%rsp"), "{text}");
    }

    #[test]
    fn widths_survive_canonicalization() {
        let w = parse_insns("movl %edi, %eax\nmovw %ax, %cx\nmovb %cl, %dl");
        let c = canonicalize(&w).unwrap();
        let back = decanonicalize(&c.insns, &c.binding);
        assert_eq!(back, w);
    }
}
