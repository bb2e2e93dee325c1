//! Instruction operands: immediates, registers, memory references, labels.
//!
//! Operands are stored in AT&T order (sources first, destination last), the
//! same convention the assembly text uses.

use std::fmt;

use crate::reg::Reg;
use crate::sym::Sym;
use crate::text::{display_via, push_i64, push_signed, push_u64};

/// Displacement part of a memory operand.
///
/// `None` and `Imm(0)` encode the same address but are kept distinct so that
/// textual round-trips preserve the encoding the author chose: `0(%rax)`
/// keeps its explicit zero displacement byte, which matters when an exact
/// instruction *length* was intended (multi-byte NOPs, alignment padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Disp {
    /// No displacement written.
    #[default]
    None,
    /// Constant displacement.
    Imm(i64),
    /// Symbolic displacement (`foo`, `foo+8`), resolved by linker or by the
    /// relaxation pass for local labels.
    Symbol {
        /// Symbol or label name (interned).
        name: Sym,
        /// Constant addend.
        addend: i64,
    },
}

impl Disp {
    /// The constant value if this displacement is numeric (treating `None`
    /// as zero), or `None` if symbolic.
    pub fn constant(&self) -> Option<i64> {
        match self {
            Disp::None => Some(0),
            Disp::Imm(v) => Some(*v),
            Disp::Symbol { .. } => None,
        }
    }

    /// Is there anything to print before the parenthesis?
    pub fn is_present(&self) -> bool {
        !matches!(self, Disp::None)
    }

    /// Append the AT&T spelling (`-8`, `foo+8`, nothing for `None`).
    pub fn write_text(&self, out: &mut String) {
        match *self {
            Disp::None => {}
            Disp::Imm(v) => push_i64(out, v),
            Disp::Symbol { name, addend } => {
                out.push_str(name.as_str());
                if addend != 0 {
                    push_signed(out, addend);
                }
            }
        }
    }
}

impl fmt::Display for Disp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

/// A memory operand: `disp(base, index, scale)` in AT&T syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mem {
    /// Displacement.
    pub disp: Disp,
    /// Base register (may be `%rip` for RIP-relative addressing).
    pub base: Option<Reg>,
    /// Index register (never `%rsp`/`%rip`).
    pub index: Option<Reg>,
    /// Scale factor: 1, 2, 4 or 8.
    pub scale: u8,
}

impl Mem {
    /// Absolute (displacement-only) address.
    pub fn abs(disp: i64) -> Mem {
        Mem {
            disp: Disp::Imm(disp),
            base: None,
            index: None,
            scale: 1,
        }
    }

    /// `disp(base)` form.
    pub fn base_disp(base: Reg, disp: i64) -> Mem {
        Mem {
            disp: if disp == 0 {
                Disp::None
            } else {
                Disp::Imm(disp)
            },
            base: Some(base),
            index: None,
            scale: 1,
        }
    }

    /// `disp(base,index,scale)` form.
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i64) -> Mem {
        Mem {
            disp: if disp == 0 {
                Disp::None
            } else {
                Disp::Imm(disp)
            },
            base: Some(base),
            index: Some(index),
            scale,
        }
    }

    /// RIP-relative reference to a symbol.
    pub fn rip_relative(symbol: &str) -> Mem {
        Mem {
            disp: Disp::Symbol {
                name: Sym::intern(symbol),
                addend: 0,
            },
            base: Some(crate::reg::Reg::q(crate::reg::RegId::Rip)),
            index: None,
            scale: 1,
        }
    }

    /// Registers read when computing the effective address.
    pub fn regs_used(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }

    /// Is this a RIP-relative reference?
    pub fn is_rip_relative(&self) -> bool {
        self.base.is_some_and(|r| r.id == crate::reg::RegId::Rip)
    }

    /// Append the AT&T spelling, `disp(base,index,scale)`.
    pub fn write_text(&self, out: &mut String) {
        self.disp.write_text(out);
        if self.base.is_some() || self.index.is_some() {
            out.push('(');
            if let Some(b) = self.base {
                b.write_text(out);
            }
            if let Some(i) = self.index {
                out.push(',');
                i.write_text(out);
                out.push(',');
                push_u64(out, u64::from(self.scale));
            }
            out.push(')');
        }
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

/// An instruction operand.
///
/// Every payload is plain-old-data (symbols are interned [`Sym`] ids), so
/// operands are `Copy` and an operand list can live inline in its
/// instruction — see [`Operands`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Immediate (`$imm`). Symbolic immediates (`$sym`) are not modeled.
    Imm(i64),
    /// Register.
    Reg(Reg),
    /// Memory reference.
    Mem(Mem),
    /// Direct code label or symbol (branch/call target, e.g. `jmp .L5`).
    Label(Sym),
    /// Indirect register target (`call *%rax`).
    IndirectReg(Reg),
    /// Indirect memory target (`jmp *table(,%rax,8)`).
    IndirectMem(Mem),
}

impl Operand {
    /// Register payload, if this is a plain register operand.
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Immediate payload, if this is an immediate operand.
    pub fn imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }

    /// Memory payload, if this is a (direct) memory operand.
    pub fn mem(&self) -> Option<&Mem> {
        match self {
            Operand::Mem(m) => Some(m),
            _ => None,
        }
    }

    /// Label payload, if this is a direct label operand.
    pub fn label(&self) -> Option<&str> {
        match self {
            Operand::Label(l) => Some(l.as_str()),
            _ => None,
        }
    }

    /// Is this operand a memory reference (direct or indirect)?
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_) | Operand::IndirectMem(_))
    }

    /// Registers read to evaluate this operand *as a source or address*
    /// (for a register operand this is the register itself; note the caller
    /// decides whether a register destination is read).
    pub fn regs_read(&self) -> Vec<Reg> {
        match self {
            Operand::Imm(_) | Operand::Label(_) => Vec::new(),
            Operand::Reg(r) | Operand::IndirectReg(r) => vec![*r],
            Operand::Mem(m) | Operand::IndirectMem(m) => m.regs_used().collect(),
        }
    }

    /// Append the AT&T spelling (`$5`, `%eax`, `-4(%rbp)`, `*%rax`, ...).
    pub fn write_text(&self, out: &mut String) {
        match self {
            Operand::Imm(v) => {
                out.push('$');
                push_i64(out, *v);
            }
            Operand::Reg(r) => r.write_text(out),
            Operand::Mem(m) => m.write_text(out),
            Operand::Label(l) => out.push_str(l.as_str()),
            Operand::IndirectReg(r) => {
                out.push('*');
                r.write_text(out);
            }
            Operand::IndirectMem(m) => {
                out.push('*');
                m.write_text(out);
            }
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<Mem> for Operand {
    fn from(m: Mem) -> Operand {
        Operand::Mem(m)
    }
}

/// Inline capacity of [`Operands`]. Three covers every real x86 form
/// (`imul $imm, src, dst` is the widest); longer lists spill to the heap.
const OPERANDS_INLINE: usize = 3;

/// Most operands one instruction may carry. The text parser and the
/// snapshot decoder reject longer lists, and [`crate::effects::def_use`]
/// sizes its fixed register lists from it.
pub const MAX_OPERANDS: usize = 8;

#[derive(Clone)]
enum OperandsRepr {
    /// `len` live operands at the front of the buffer. Slots past `len` are
    /// uninitialized — `Operand` is `Copy` (no drop glue), so leaving them
    /// untouched is sound and skips a per-instruction buffer memset.
    Inline(u8, [std::mem::MaybeUninit<Operand>; OPERANDS_INLINE]),
    /// Spilled list (only for instructions with more operands than the
    /// inline buffer holds — snapshot decoding caps the count at 8).
    Heap(Vec<Operand>),
}

/// An instruction's operand list, stored inline in the instruction.
///
/// Parsing and snapshot decoding construct one of these per instruction, so
/// the common ≤3-operand case must not heap-allocate: operands are `Copy`
/// and live in a fixed inline buffer, spilling to a `Vec` only for
/// degenerate long lists. The type derefs to `[Operand]` and compares,
/// hashes and prints exactly like the `Vec<Operand>` it replaced —
/// representation (inline vs. spilled) is never observable.
#[derive(Clone)]
pub struct Operands(OperandsRepr);

impl Operands {
    /// Empty list (no allocation, no buffer initialization).
    pub const fn new() -> Operands {
        Operands(OperandsRepr::Inline(
            0,
            [std::mem::MaybeUninit::uninit(); OPERANDS_INLINE],
        ))
    }

    /// Append an operand, spilling to the heap past the inline capacity.
    #[inline]
    pub fn push(&mut self, op: Operand) {
        match &mut self.0 {
            OperandsRepr::Inline(len, buf) => {
                let n = *len as usize;
                if n < OPERANDS_INLINE {
                    buf[n].write(op);
                    *len = (n + 1) as u8;
                } else {
                    let mut spilled = Vec::with_capacity(OPERANDS_INLINE + 1);
                    // SAFETY: n == OPERANDS_INLINE, so every inline slot has
                    // been written.
                    let init: &[Operand] =
                        unsafe { std::slice::from_raw_parts(buf.as_ptr().cast(), OPERANDS_INLINE) };
                    spilled.extend_from_slice(init);
                    spilled.push(op);
                    self.0 = OperandsRepr::Heap(spilled);
                }
            }
            OperandsRepr::Heap(v) => v.push(op),
        }
    }

    /// The operands as a slice (also available through deref).
    #[inline]
    pub fn as_slice(&self) -> &[Operand] {
        match &self.0 {
            // SAFETY: the first `len` slots are always initialized — `push`
            // writes slot `len` before incrementing, and `len` never exceeds
            // the number of written slots.
            OperandsRepr::Inline(len, buf) => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast(), *len as usize)
            },
            OperandsRepr::Heap(v) => v,
        }
    }

    /// Mutable slice over the operands (length cannot change through it).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Operand] {
        match &mut self.0 {
            // SAFETY: as in `as_slice`; `Operand` is `Copy`, so overwriting
            // through the slice needs no drop glue.
            OperandsRepr::Inline(len, buf) => unsafe {
                std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), *len as usize)
            },
            OperandsRepr::Heap(v) => v,
        }
    }
}

impl Default for Operands {
    fn default() -> Operands {
        Operands::new()
    }
}

impl std::ops::Deref for Operands {
    type Target = [Operand];
    fn deref(&self) -> &[Operand] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [Operand] {
        self.as_mut_slice()
    }
}

impl From<Vec<Operand>> for Operands {
    fn from(v: Vec<Operand>) -> Operands {
        if v.len() <= OPERANDS_INLINE {
            let mut buf = [std::mem::MaybeUninit::uninit(); OPERANDS_INLINE];
            for (slot, &op) in buf.iter_mut().zip(&v) {
                slot.write(op);
            }
            Operands(OperandsRepr::Inline(v.len() as u8, buf))
        } else {
            Operands(OperandsRepr::Heap(v))
        }
    }
}

impl<const N: usize> From<[Operand; N]> for Operands {
    fn from(ops: [Operand; N]) -> Operands {
        let mut out = Operands::new();
        for op in ops {
            out.push(op);
        }
        out
    }
}

impl FromIterator<Operand> for Operands {
    fn from_iter<I: IntoIterator<Item = Operand>>(iter: I) -> Operands {
        let mut out = Operands::new();
        for op in iter {
            out.push(op);
        }
        out
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut Operands {
    type Item = &'a mut Operand;
    type IntoIter = std::slice::IterMut<'a, Operand>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

// Equality, hashing and debug all go through the slice view, so an inline
// list and a spilled list with the same operands are indistinguishable (and
// hash identically to the `Vec<Operand>` this type replaced).
impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Operands {}

impl std::hash::Hash for Operands {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Reg, RegId};

    #[test]
    fn mem_display() {
        let m = Mem::base_index(Reg::q(RegId::Rdi), Reg::q(RegId::R8), 4, 1);
        assert_eq!(m.to_string(), "1(%rdi,%r8,4)");
        let m = Mem::base_disp(Reg::q(RegId::Rbp), -4);
        assert_eq!(m.to_string(), "-4(%rbp)");
        let m = Mem::base_disp(Reg::q(RegId::Rax), 0);
        assert_eq!(m.to_string(), "(%rax)");
        let m = Mem::abs(4096);
        assert_eq!(m.to_string(), "4096");
    }

    #[test]
    fn explicit_zero_disp_is_preserved() {
        let m = Mem {
            disp: Disp::Imm(0),
            base: Some(Reg::q(RegId::Rax)),
            index: None,
            scale: 1,
        };
        assert_eq!(m.to_string(), "0(%rax)");
        assert_ne!(m, Mem::base_disp(Reg::q(RegId::Rax), 0));
        assert_eq!(m.disp.constant(), Some(0));
    }

    #[test]
    fn rip_relative() {
        let m = Mem::rip_relative("foo");
        assert_eq!(m.to_string(), "foo(%rip)");
        assert!(m.is_rip_relative());
    }

    #[test]
    fn symbol_addend_display() {
        let d = Disp::Symbol {
            name: "tbl".into(),
            addend: 8,
        };
        assert_eq!(d.to_string(), "tbl+8");
        assert_eq!(d.constant(), None);
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::Imm(-5).to_string(), "$-5");
        assert_eq!(Operand::Label(".L5".into()).to_string(), ".L5");
        assert_eq!(
            Operand::IndirectReg(Reg::q(RegId::Rax)).to_string(),
            "*%rax"
        );
    }

    #[test]
    fn regs_read() {
        let m = Mem::base_index(Reg::q(RegId::Rdi), Reg::q(RegId::R8), 4, 0);
        let op = Operand::Mem(m);
        let regs = op.regs_read();
        assert_eq!(regs.len(), 2);
        assert!(op.is_mem());
    }
}
