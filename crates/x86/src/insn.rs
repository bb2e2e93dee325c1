//! The single instruction struct.
//!
//! Like the paper's gas-derived IR, every x86 instruction is represented by
//! one struct ([`Instruction`]) regardless of opcode: mnemonic family,
//! optional explicit operand widths, prefixes, and operands in AT&T order.

use std::fmt;

use crate::flags::Cond;
use crate::mnemonic::{parse_mnemonic, Mnemonic};
use crate::operand::{Disp, Mem, Operand, Operands};
use crate::reg::{Reg, RegId, Width};
use crate::sym::Sym;

/// One x86-64 instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Opcode family.
    pub mnemonic: Mnemonic,
    /// Operand (destination) width, from an explicit AT&T suffix or inferred
    /// from register operands.
    pub op_width: Option<Width>,
    /// Source width for `movsx`/`movzx`.
    pub src_width: Option<Width>,
    /// `lock` prefix present.
    pub lock: bool,
    /// Operands in AT&T order (sources first, destination last), stored
    /// inline in the instruction (see [`Operands`]).
    pub operands: Operands,
}

impl Instruction {
    /// Create an instruction with no explicit widths.
    pub fn new(mnemonic: Mnemonic, operands: impl Into<Operands>) -> Instruction {
        let mut insn = Instruction {
            mnemonic,
            op_width: None,
            src_width: None,
            lock: false,
            operands: operands.into(),
        };
        insn.op_width = insn.infer_width();
        insn
    }

    /// Create an instruction with an explicit operand width.
    pub fn with_width(
        mnemonic: Mnemonic,
        width: Width,
        operands: impl Into<Operands>,
    ) -> Instruction {
        Instruction {
            mnemonic,
            op_width: Some(width),
            src_width: None,
            lock: false,
            operands: operands.into(),
        }
    }

    /// Parse a full AT&T instruction mnemonic and attach operands.
    ///
    /// Convenience for building instructions in tests and generators; the
    /// assembly parser in `mao-asm` goes through the same path.
    pub fn from_att(mnemonic: &str, operands: impl Into<Operands>) -> Option<Instruction> {
        let parsed = parse_mnemonic(mnemonic)?;
        let mut insn = Instruction {
            mnemonic: parsed.mnemonic,
            op_width: parsed.op_width,
            src_width: parsed.src_width,
            lock: false,
            operands: operands.into(),
        };
        if insn.op_width.is_none() {
            insn.op_width = insn.infer_width();
        }
        Some(insn)
    }

    /// Infer the operand width from register operands when no suffix was
    /// given (`mov %eax, %ebx` is 32-bit).
    fn infer_width(&self) -> Option<Width> {
        if let Some(w) = self.op_width {
            return Some(w);
        }
        Instruction::infer_width_of(&self.operands)
    }

    /// Width inference over an operand list alone (destination register
    /// wins; else any GPR operand). Exposed so the parser can infer widths
    /// without constructing a throwaway `Instruction`.
    pub fn infer_width_of(operands: &[Operand]) -> Option<Width> {
        for op in operands.iter().rev() {
            if let Operand::Reg(r) = op {
                if r.id.is_gpr() {
                    return Some(r.width);
                }
            }
        }
        None
    }

    /// The effective operand width (explicit suffix, else inferred, else
    /// 32-bit — the x86-64 default operand size).
    pub fn width(&self) -> Width {
        self.op_width
            .or_else(|| self.infer_width())
            .unwrap_or(Width::B4)
    }

    /// Destination operand (AT&T: the last), if the instruction has operands.
    pub fn dest(&self) -> Option<&Operand> {
        self.operands.last()
    }

    /// First source operand.
    pub fn src(&self) -> Option<&Operand> {
        self.operands.first()
    }

    /// The branch-target label, for direct branches/calls.
    pub fn target_label(&self) -> Option<&str> {
        self.target_sym().map(|s| s.as_str())
    }

    /// [`Instruction::target_label`] as its interned symbol.
    pub fn target_sym(&self) -> Option<Sym> {
        match self.operands.first() {
            Some(&Operand::Label(l))
                if self.mnemonic.is_branch() || self.mnemonic == Mnemonic::Call =>
            {
                Some(l)
            }
            _ => None,
        }
    }

    /// Is this an indirect branch or call (`jmp *...` / `call *...`)?
    pub fn is_indirect_branch(&self) -> bool {
        (self.mnemonic.is_branch() || self.mnemonic == Mnemonic::Call)
            && matches!(
                self.operands.first(),
                Some(Operand::IndirectReg(_) | Operand::IndirectMem(_))
            )
    }

    /// Is this instruction from the NOP family (including multi-byte forms)?
    pub fn is_nop(&self) -> bool {
        self.mnemonic == Mnemonic::Nop
    }

    /// Condition code, for conditional mnemonics.
    pub fn cond(&self) -> Option<Cond> {
        self.mnemonic.cond()
    }

    /// A single-byte `nop`.
    pub fn nop() -> Instruction {
        Instruction::new(Mnemonic::Nop, vec![])
    }

    /// A canonical NOP instruction of exactly `len` bytes (1..=6).
    ///
    /// These are the forms gas emits for `.p2align` padding:
    ///
    /// | len | form |
    /// |-----|------|
    /// | 1 | `nop` |
    /// | 2 | `nopw` (`66 90`) |
    /// | 3 | `nopl (%rax)` |
    /// | 4 | `nopl 0(%rax)` |
    /// | 5 | `nopl 0(%rax,%rax,1)` |
    /// | 6 | `nopw 0(%rax,%rax,1)` |
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than 6; longer pads should be built
    /// from several instructions (see [`Instruction::nop_pad`]).
    pub fn nop_of_len(len: usize) -> Instruction {
        let rax = Reg::q(RegId::Rax);
        let mem_zero = |index: bool| {
            Operand::Mem(Mem {
                disp: Disp::Imm(0),
                base: Some(rax),
                index: if index { Some(rax) } else { None },
                scale: 1,
            })
        };
        match len {
            1 => Instruction::nop(),
            2 => Instruction::with_width(Mnemonic::Nop, Width::B2, vec![]),
            3 => Instruction::with_width(
                Mnemonic::Nop,
                Width::B4,
                vec![Operand::Mem(Mem::base_disp(rax, 0))],
            ),
            4 => Instruction::with_width(Mnemonic::Nop, Width::B4, vec![mem_zero(false)]),
            5 => Instruction::with_width(Mnemonic::Nop, Width::B4, vec![mem_zero(true)]),
            6 => Instruction::with_width(Mnemonic::Nop, Width::B2, vec![mem_zero(true)]),
            _ => panic!("nop_of_len supports 1..=6 bytes, got {len}"),
        }
    }

    /// A sequence of NOP instructions covering exactly `len` bytes, using the
    /// fewest instructions (all 6-byte forms plus one remainder form).
    pub fn nop_pad(len: usize) -> Vec<Instruction> {
        let mut out = Vec::new();
        let mut remaining = len;
        while remaining > 6 {
            out.push(Instruction::nop_of_len(6));
            remaining -= 6;
        }
        if remaining > 0 {
            out.push(Instruction::nop_of_len(remaining));
        }
        out
    }

    /// Append the AT&T spelling: `lock ` when set, the mnemonic with its
    /// size suffixes re-attached, then the operands.
    pub fn write_text(&self, out: &mut String) {
        if self.lock {
            out.push_str("lock ");
        }
        out.push_str(self.mnemonic.att_base());
        match self.mnemonic {
            Mnemonic::Movsx | Mnemonic::Movzx => {
                out.push(self.src_width.and_then(Width::att_suffix).unwrap_or('b'));
                out.push(self.op_width.and_then(Width::att_suffix).unwrap_or('l'));
            }
            m if m.takes_size_suffix() => {
                if let Some(suffix) = self.op_width.and_then(Width::att_suffix) {
                    out.push(suffix);
                }
            }
            _ => {}
        }
        for (i, op) in self.operands.iter().enumerate() {
            out.push_str(if i == 0 { " " } else { ", " });
            op.write_text(out);
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::text::display_via(f, |out| self.write_text(out))
    }
}

/// Shorthand builders for common instructions, used heavily by tests,
/// generators and passes.
pub mod build {
    use super::*;

    /// `mov src, dst` with explicit width.
    pub fn mov(width: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::with_width(Mnemonic::Mov, width, vec![src.into(), dst.into()])
    }

    /// `add src, dst`.
    pub fn add(width: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::with_width(Mnemonic::Add, width, vec![src.into(), dst.into()])
    }

    /// `sub src, dst`.
    pub fn sub(width: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::with_width(Mnemonic::Sub, width, vec![src.into(), dst.into()])
    }

    /// `cmp src, dst`.
    pub fn cmp(width: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::with_width(Mnemonic::Cmp, width, vec![src.into(), dst.into()])
    }

    /// `test src, dst`.
    pub fn test(width: Width, src: impl Into<Operand>, dst: impl Into<Operand>) -> Instruction {
        Instruction::with_width(Mnemonic::Test, width, vec![src.into(), dst.into()])
    }

    /// `jcc label`.
    pub fn jcc(cond: Cond, label: &str) -> Instruction {
        Instruction::new(
            Mnemonic::Jcc(cond),
            vec![Operand::Label(Sym::intern(label))],
        )
    }

    /// `jmp label`.
    pub fn jmp(label: &str) -> Instruction {
        Instruction::new(Mnemonic::Jmp, vec![Operand::Label(Sym::intern(label))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_att() {
        let i = build::mov(
            Width::B4,
            Operand::Imm(5),
            Operand::Mem(Mem::base_disp(Reg::q(RegId::Rbp), -4)),
        );
        assert_eq!(i.to_string(), "movl $5, -4(%rbp)");
        let j = build::jcc(Cond::Ne, ".L3");
        assert_eq!(j.to_string(), "jne .L3");
    }

    #[test]
    fn from_att_roundtrip() {
        let i = Instruction::from_att(
            "movsbl",
            vec![
                Operand::Mem(Mem::base_index(Reg::q(RegId::Rdi), Reg::q(RegId::R8), 4, 1)),
                Operand::Reg(Reg::l(RegId::Rdx)),
            ],
        )
        .unwrap();
        assert_eq!(i.to_string(), "movsbl 1(%rdi,%r8,4), %edx");
        assert_eq!(i.mnemonic, Mnemonic::Movsx);
    }

    #[test]
    fn width_inference() {
        let i = Instruction::from_att(
            "mov",
            vec![
                Operand::Reg(Reg::l(RegId::Rax)),
                Operand::Reg(Reg::l(RegId::Rbx)),
            ],
        )
        .unwrap();
        assert_eq!(i.width(), Width::B4);
        assert_eq!(i.to_string(), "movl %eax, %ebx");
    }

    #[test]
    fn target_label() {
        assert_eq!(build::jmp(".L5").target_label(), Some(".L5"));
        assert_eq!(build::jcc(Cond::G, ".L3").target_label(), Some(".L3"));
        let call = Instruction::new(Mnemonic::Call, vec![Operand::Label("foo".into())]);
        assert_eq!(call.target_label(), Some("foo"));
        assert_eq!(call.target_sym(), Some(Sym::intern("foo")));
        let ind = Instruction::new(
            Mnemonic::Jmp,
            vec![Operand::IndirectReg(Reg::q(RegId::Rax))],
        );
        assert_eq!(ind.target_label(), None);
        assert!(ind.is_indirect_branch());
    }

    #[test]
    fn nop_forms_display() {
        assert_eq!(Instruction::nop_of_len(1).to_string(), "nop");
        assert_eq!(Instruction::nop_of_len(2).to_string(), "nopw");
        assert_eq!(Instruction::nop_of_len(3).to_string(), "nopl (%rax)");
        assert_eq!(Instruction::nop_of_len(4).to_string(), "nopl 0(%rax)");
        assert_eq!(
            Instruction::nop_of_len(5).to_string(),
            "nopl 0(%rax,%rax,1)"
        );
        assert_eq!(
            Instruction::nop_of_len(6).to_string(),
            "nopw 0(%rax,%rax,1)"
        );
    }

    #[test]
    fn nop_pad_splits() {
        let pad = Instruction::nop_pad(15);
        assert_eq!(pad.len(), 3); // 6 + 6 + 3
        assert!(pad.iter().all(Instruction::is_nop));
        assert!(Instruction::nop_pad(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "nop_of_len")]
    fn nop_of_len_rejects_oversize() {
        let _ = Instruction::nop_of_len(7);
    }
}
