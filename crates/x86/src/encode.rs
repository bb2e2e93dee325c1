//! x86-64 binary instruction encoder.
//!
//! The paper relies on gas for "binary encoding of assembly files and
//! instructions"; MAO needs it to know every instruction's *length* so that
//! relaxation and the alignment passes can reason about addresses. This
//! module implements real x86-64 encoding (legacy prefixes, REX, ModRM, SIB,
//! displacements, immediates) for the compiler-emitted subset modeled by
//! [`Mnemonic`].
//!
//! Branches that target labels have two possible encodings (`rel8`/`rel32`);
//! the caller (the relaxation pass in the `mao` crate) decides which via
//! [`BranchForm`]. Everything else has a unique shortest encoding, except
//! that an explicitly written zero displacement (`0(%rax)`) keeps its
//! displacement byte — that is how multi-byte NOP lengths are preserved
//! across round-trips.

use std::fmt;

use crate::insn::Instruction;
use crate::mnemonic::Mnemonic;
use crate::operand::{Mem, Operand};
use crate::reg::{Reg, RegId, Width};

/// Which encoding a label-targeting branch should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchForm {
    /// 8-bit relative displacement (short form).
    Rel8,
    /// 32-bit relative displacement (near form).
    Rel32,
}

impl BranchForm {
    /// Does `delta` fit this form's displacement?
    pub fn fits(self, delta: i64) -> bool {
        match self {
            BranchForm::Rel8 => i8::try_from(delta).is_ok(),
            BranchForm::Rel32 => i32::try_from(delta).is_ok(),
        }
    }
}

/// Encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The operand combination has no encoding in the supported subset.
    UnsupportedForm(String),
    /// An immediate or displacement does not fit its field.
    ValueOutOfRange(String),
    /// High-byte register combined with a REX-requiring operand.
    RexHighByteConflict,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnsupportedForm(s) => write!(f, "unsupported instruction form: {s}"),
            EncodeError::ValueOutOfRange(s) => write!(f, "value out of range: {s}"),
            EncodeError::RexHighByteConflict => {
                write!(f, "high-byte register cannot be used with a REX prefix")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

fn fits_i8(v: i64) -> bool {
    i8::try_from(v).is_ok()
}

fn fits_i32(v: i64) -> bool {
    i32::try_from(v).is_ok()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DispBytes {
    #[default]
    None,
    D8(i8),
    D32(i32),
}

/// A byte buffer of at most `N` bytes held inline, so assembling an
/// instruction (and asking for its length) never touches the heap. Going
/// past `N` is an encoder bug and panics.
#[derive(Debug, Clone, Copy)]
struct InlineBytes<const N: usize> {
    buf: [u8; N],
    len: u8,
}

impl<const N: usize> Default for InlineBytes<N> {
    fn default() -> Self {
        InlineBytes {
            buf: [0; N],
            len: 0,
        }
    }
}

impl<const N: usize> InlineBytes<N> {
    fn push(&mut self, b: u8) {
        self.buf[usize::from(self.len)] = b;
        self.len += 1;
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        let start = usize::from(self.len);
        self.buf[start..start + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len() as u8;
    }
}

impl<const N: usize> std::ops::Deref for InlineBytes<N> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }
}

/// Incremental instruction assembler.
#[derive(Debug, Default)]
struct Asm {
    prefix_66: bool,
    mandatory: Option<u8>, // F2/F3 SSE prefix (before REX)
    lock: bool,
    rex_w: bool,
    rex_r: bool,
    rex_x: bool,
    rex_b: bool,
    rex_low8: bool, // spl/sil/dil/bpl force an empty REX
    high8_used: bool,
    /// Opcode bytes, escape bytes included (at most three today).
    opcode: InlineBytes<4>,
    modrm: Option<u8>,
    sib: Option<u8>,
    disp: DispBytes,
    /// Immediate bytes (an imm64 at most).
    imm: InlineBytes<8>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            disp: DispBytes::None,
            ..Asm::default()
        }
    }

    fn note_reg8(&mut self, r: Reg) {
        if r.high8 {
            self.high8_used = true;
        } else if r.width == Width::B1
            && matches!(r.id, RegId::Rsp | RegId::Rbp | RegId::Rsi | RegId::Rdi)
        {
            self.rex_low8 = true;
        }
    }

    /// Put `r` in the ModRM.reg field.
    fn set_reg(&mut self, r: Reg) {
        let enc = r.id.encoding();
        if enc >= 8 {
            self.rex_r = true;
        }
        self.note_reg8(r);
        let high_adjust = if r.high8 { 4 } else { 0 };
        let modrm = self.modrm.unwrap_or(0);
        self.modrm = Some(modrm | (((enc & 7) + high_adjust) << 3));
    }

    /// Put the opcode-extension digit in ModRM.reg.
    fn set_digit(&mut self, digit: u8) {
        let modrm = self.modrm.unwrap_or(0);
        self.modrm = Some(modrm | (digit << 3));
    }

    /// Put a register in ModRM.rm (mod=11).
    fn set_rm_reg(&mut self, r: Reg) {
        let enc = r.id.encoding();
        if enc >= 8 {
            self.rex_b = true;
        }
        self.note_reg8(r);
        let high_adjust = if r.high8 { 4 } else { 0 };
        let modrm = self.modrm.unwrap_or(0);
        self.modrm = Some(modrm | 0b1100_0000 | ((enc & 7) + high_adjust));
    }

    /// Encode a memory operand into ModRM.rm (+ SIB + displacement).
    fn set_rm_mem(&mut self, mem: &Mem) -> Result<(), EncodeError> {
        let modrm_base = self.modrm.unwrap_or(0);
        let disp_const = mem.disp.constant();
        let symbolic = disp_const.is_none();
        let disp_val = disp_const.unwrap_or(0);
        if !symbolic && !fits_i32(disp_val) {
            return Err(EncodeError::ValueOutOfRange(format!(
                "displacement {disp_val}"
            )));
        }

        // RIP-relative: mod=00, rm=101, disp32.
        if mem.is_rip_relative() {
            if mem.index.is_some() {
                return Err(EncodeError::UnsupportedForm(
                    "RIP-relative with index register".to_string(),
                ));
            }
            self.modrm = Some(modrm_base | 0b101);
            self.disp = DispBytes::D32(disp_val as i32);
            return Ok(());
        }

        let base = mem.base;
        let index = mem.index;

        if let Some(idx) = index {
            if idx.id == RegId::Rsp {
                return Err(EncodeError::UnsupportedForm(
                    "%rsp cannot be an index register".to_string(),
                ));
            }
        }

        let scale_bits = match mem.scale {
            0 | 1 => 0u8,
            2 => 1,
            4 => 2,
            8 => 3,
            s => {
                return Err(EncodeError::UnsupportedForm(format!("scale {s}")));
            }
        };

        match (base, index) {
            (None, None) => {
                // Absolute: SIB with base=101 (no base), index=100 (none), disp32.
                self.modrm = Some(modrm_base | 0b100);
                self.sib = Some(0b00_100_101);
                self.disp = DispBytes::D32(disp_val as i32);
            }
            (None, Some(idx)) => {
                // Index-only: SIB base=101, mod=00, disp32.
                if idx.id.encoding() >= 8 {
                    self.rex_x = true;
                }
                self.modrm = Some(modrm_base | 0b100);
                self.sib = Some((scale_bits << 6) | ((idx.id.encoding() & 7) << 3) | 0b101);
                self.disp = DispBytes::D32(disp_val as i32);
            }
            (Some(b), idx) => {
                let benc = b.id.encoding();
                if benc >= 8 {
                    self.rex_b = true;
                }
                let needs_sib = idx.is_some() || (benc & 7) == 0b100;
                // rbp/r13 as base cannot use mod=00; an explicitly written
                // zero displacement also keeps its byte.
                let base_is_bp = (benc & 7) == 0b101;
                let (mode, disp) = if symbolic {
                    (0b10, DispBytes::D32(disp_val as i32))
                } else if disp_val == 0 && !base_is_bp && !mem.disp.is_present() {
                    (0b00, DispBytes::None)
                } else if fits_i8(disp_val) {
                    (0b01, DispBytes::D8(disp_val as i8))
                } else {
                    (0b10, DispBytes::D32(disp_val as i32))
                };
                if needs_sib {
                    let idx_bits = match idx {
                        Some(i) => {
                            if i.id.encoding() >= 8 {
                                self.rex_x = true;
                            }
                            i.id.encoding() & 7
                        }
                        None => 0b100,
                    };
                    self.modrm = Some(modrm_base | (mode << 6) | 0b100);
                    self.sib = Some((scale_bits << 6) | (idx_bits << 3) | (benc & 7));
                } else {
                    self.modrm = Some(modrm_base | (mode << 6) | (benc & 7));
                }
                self.disp = disp;
            }
        }
        Ok(())
    }

    fn imm8(&mut self, v: i64) {
        self.imm.push(v as u8);
    }

    fn imm16(&mut self, v: i64) {
        self.imm.extend_from_slice(&(v as i16).to_le_bytes());
    }

    fn imm32(&mut self, v: i64) {
        self.imm.extend_from_slice(&(v as i32).to_le_bytes());
    }

    fn imm64(&mut self, v: i64) {
        self.imm.extend_from_slice(&v.to_le_bytes());
    }

    /// Immediate sized for `width` (64-bit ops take sign-extended imm32).
    fn imm_for_width(&mut self, v: i64, width: Width) -> Result<(), EncodeError> {
        match width {
            Width::B1 => {
                if !fits_i8(v) && !(0..=0xff).contains(&v) {
                    return Err(EncodeError::ValueOutOfRange(format!("imm8 {v}")));
                }
                self.imm8(v);
            }
            Width::B2 => {
                if !(-(1 << 15)..(1 << 16)).contains(&v) {
                    return Err(EncodeError::ValueOutOfRange(format!("imm16 {v}")));
                }
                self.imm16(v);
            }
            Width::B4 => {
                if !fits_i32(v) && !(0..=0xffff_ffff).contains(&v) {
                    return Err(EncodeError::ValueOutOfRange(format!("imm32 {v}")));
                }
                self.imm32(v);
            }
            Width::B8 => {
                if !fits_i32(v) {
                    return Err(EncodeError::ValueOutOfRange(format!(
                        "imm32 (sign-extended) {v}"
                    )));
                }
                self.imm32(v);
            }
            Width::B16 => {
                return Err(EncodeError::UnsupportedForm(
                    "imm with XMM width".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// The REX byte this instruction needs, or `None`; errors when a REX
    /// prefix would clash with a high-byte register operand.
    fn rex_byte(&self) -> Result<Option<u8>, EncodeError> {
        let rex_bits = (u8::from(self.rex_w) << 3)
            | (u8::from(self.rex_r) << 2)
            | (u8::from(self.rex_x) << 1)
            | u8::from(self.rex_b);
        if rex_bits == 0 && !self.rex_low8 {
            return Ok(None);
        }
        if self.high8_used {
            return Err(EncodeError::RexHighByteConflict);
        }
        Ok(Some(0x40 | rex_bits))
    }

    /// Byte length of the finished encoding, computed arithmetically — no
    /// output buffer. This is what makes cached-length relaxation cheap.
    fn encoded_len(&self) -> Result<usize, EncodeError> {
        let rex = self.rex_byte()?;
        Ok(usize::from(self.lock)
            + usize::from(self.prefix_66)
            + usize::from(self.mandatory.is_some())
            + usize::from(rex.is_some())
            + self.opcode.len()
            + usize::from(self.modrm.is_some())
            + usize::from(self.sib.is_some())
            + match self.disp {
                DispBytes::None => 0,
                DispBytes::D8(_) => 1,
                DispBytes::D32(_) => 4,
            }
            + self.imm.len())
    }

    fn finish_into(self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        let start = out.len();
        let rex = self.rex_byte()?;
        if self.lock {
            out.push(0xf0);
        }
        if self.prefix_66 {
            out.push(0x66);
        }
        if let Some(m) = self.mandatory {
            out.push(m);
        }
        if let Some(r) = rex {
            out.push(r);
        }
        out.extend_from_slice(&self.opcode);
        if let Some(m) = self.modrm {
            out.push(m);
        }
        if let Some(s) = self.sib {
            out.push(s);
        }
        match self.disp {
            DispBytes::None => {}
            DispBytes::D8(d) => out.push(d as u8),
            DispBytes::D32(d) => out.extend_from_slice(&d.to_le_bytes()),
        }
        out.extend_from_slice(&self.imm);
        debug_assert!(
            out.len() - start <= 15,
            "x86 instructions are at most 15 bytes"
        );
        Ok(())
    }
}

/// Apply operand-size/REX.W prefixes for a GPR operation of width `w`.
fn setup_width(asm: &mut Asm, w: Width) {
    match w {
        Width::B2 => asm.prefix_66 = true,
        Width::B8 => asm.rex_w = true,
        _ => {}
    }
}

/// Opcode byte for the 8-bit vs wider split: `base` is the wider opcode,
/// `base - 1` the 8-bit one (the usual x86 pairing like 88/89).
fn op_for_width(base: u8, w: Width) -> u8 {
    if w == Width::B1 {
        base - 1
    } else {
        base
    }
}

/// Encode `insn`, resolving a label-targeting branch with `form` and
/// displacement `rel` (ignored for non-branches; pass [`BranchForm::Rel32`]
/// and 0 when only the length matters).
pub fn encode(insn: &Instruction, form: BranchForm, rel: i64) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(15);
    encode_into(insn, form, rel, &mut out)?;
    Ok(out)
}

/// Encode `insn` like [`encode`], appending the bytes to `out`. Lets hot
/// callers (the simulator loader, benchmarks) reuse one scratch buffer
/// instead of allocating a fresh `Vec` per instruction.
pub fn encode_into(
    insn: &Instruction,
    form: BranchForm,
    rel: i64,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    assemble(insn, form, rel)?.finish_into(out)
}

/// Byte lengths of a label-targeting branch in both forms: `(rel8, rel32)`.
/// One call gives the relaxation fixed point everything it will ever need
/// to know about the instruction, so lengths are computed once instead of
/// once per iteration.
pub fn branch_lengths(insn: &Instruction) -> Result<(u32, u32), EncodeError> {
    let short = assemble(insn, BranchForm::Rel8, 0)?.encoded_len()?;
    let near = assemble(insn, BranchForm::Rel32, 0)?.encoded_len()?;
    Ok((short as u32, near as u32))
}

/// Build the instruction's encoding parts without serializing them.
fn assemble(insn: &Instruction, form: BranchForm, rel: i64) -> Result<Asm, EncodeError> {
    let mut asm = Asm::new();
    asm.lock = insn.lock;
    let w = insn.width();
    let unsupported = || {
        Err::<Asm, _>(EncodeError::UnsupportedForm(format!(
            "{insn} ({:?})",
            insn.mnemonic
        )))
    };

    use Mnemonic as M;
    use Operand as O;
    let ops = &insn.operands;

    match insn.mnemonic {
        // ALU group sharing the 00..3D / 80-83 pattern.
        M::Add | M::Or | M::Adc | M::Sbb | M::And | M::Sub | M::Xor | M::Cmp => {
            let digit = match insn.mnemonic {
                M::Add => 0,
                M::Or => 1,
                M::Adc => 2,
                M::Sbb => 3,
                M::And => 4,
                M::Sub => 5,
                M::Xor => 6,
                M::Cmp => 7,
                _ => unreachable!(),
            };
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1)) {
                (Some(O::Imm(v)), Some(dst)) => {
                    // 83 /digit ib when sign-extendable, else 80/81 /digit.
                    let use_i8 = w != Width::B1 && fits_i8(*v);
                    asm.opcode.push(if w == Width::B1 {
                        0x80
                    } else if use_i8 {
                        0x83
                    } else {
                        0x81
                    });
                    asm.set_digit(digit);
                    match dst {
                        O::Reg(r) => asm.set_rm_reg(*r),
                        O::Mem(mref) => asm.set_rm_mem(mref)?,
                        _ => return unsupported(),
                    }
                    if use_i8 {
                        asm.imm8(*v);
                    } else {
                        asm.imm_for_width(*v, w)?;
                    }
                }
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(digit * 8 + 1, w));
                    asm.set_reg(*src);
                    asm.set_rm_reg(*dst);
                }
                (Some(O::Reg(src)), Some(O::Mem(dst))) => {
                    asm.opcode.push(op_for_width(digit * 8 + 1, w));
                    asm.set_reg(*src);
                    asm.set_rm_mem(dst)?;
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(digit * 8 + 3, w));
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Mov => {
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(0x89, w));
                    asm.set_reg(*src);
                    asm.set_rm_reg(*dst);
                }
                (Some(O::Reg(src)), Some(O::Mem(dst))) => {
                    asm.opcode.push(op_for_width(0x89, w));
                    asm.set_reg(*src);
                    asm.set_rm_mem(dst)?;
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(0x8b, w));
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                (Some(O::Imm(v)), Some(O::Reg(dst))) => {
                    if w == Width::B8 && fits_i32(*v) {
                        // C7 /0 id, sign-extended — shorter than movabs.
                        asm.opcode.push(0xc7);
                        asm.set_digit(0);
                        asm.set_rm_reg(*dst);
                        asm.imm32(*v);
                    } else if w == Width::B8 {
                        // movabs: B8+r io.
                        if dst.id.encoding() >= 8 {
                            asm.rex_b = true;
                        }
                        asm.opcode.push(0xb8 + (dst.id.encoding() & 7));
                        asm.imm64(*v);
                    } else {
                        if dst.id.encoding() >= 8 {
                            asm.rex_b = true;
                        }
                        asm.note_reg8(*dst);
                        let base = if w == Width::B1 { 0xb0 } else { 0xb8 };
                        let high_adjust = if dst.high8 { 4 } else { 0 };
                        asm.opcode
                            .push(base + ((dst.id.encoding() & 7) + high_adjust));
                        asm.imm_for_width(*v, w)?;
                    }
                }
                (Some(O::Imm(v)), Some(O::Mem(dst))) => {
                    asm.opcode.push(op_for_width(0xc7, w));
                    asm.set_digit(0);
                    asm.set_rm_mem(dst)?;
                    asm.imm_for_width(*v, w)?;
                }
                _ => return unsupported(),
            }
        }
        M::Movabs => match (ops.first(), ops.get(1)) {
            (Some(O::Imm(v)), Some(O::Reg(dst))) => {
                asm.rex_w = true;
                if dst.id.encoding() >= 8 {
                    asm.rex_b = true;
                }
                asm.opcode.push(0xb8 + (dst.id.encoding() & 7));
                asm.imm64(*v);
            }
            _ => return unsupported(),
        },
        M::Movsx | M::Movzx => {
            let from = insn.src_width.unwrap_or(Width::B1);
            let to = insn.op_width.unwrap_or(Width::B4);
            setup_width(&mut asm, to);
            match (insn.mnemonic, from) {
                (M::Movsx, Width::B1) => asm.opcode.extend_from_slice(&[0x0f, 0xbe]),
                (M::Movsx, Width::B2) => asm.opcode.extend_from_slice(&[0x0f, 0xbf]),
                (M::Movsx, Width::B4) => asm.opcode.push(0x63), // movslq
                (M::Movzx, Width::B1) => asm.opcode.extend_from_slice(&[0x0f, 0xb6]),
                (M::Movzx, Width::B2) => asm.opcode.extend_from_slice(&[0x0f, 0xb7]),
                _ => return unsupported(),
            }
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Lea => {
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1)) {
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(0x8d);
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Test => {
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(0x85, w));
                    asm.set_reg(*src);
                    asm.set_rm_reg(*dst);
                }
                (Some(O::Reg(src)), Some(O::Mem(dst))) => {
                    asm.opcode.push(op_for_width(0x85, w));
                    asm.set_reg(*src);
                    asm.set_rm_mem(dst)?;
                }
                (Some(O::Imm(v)), Some(dst)) => {
                    asm.opcode.push(op_for_width(0xf7, w));
                    asm.set_digit(0);
                    match dst {
                        O::Reg(r) => asm.set_rm_reg(*r),
                        O::Mem(mref) => asm.set_rm_mem(mref)?,
                        _ => return unsupported(),
                    }
                    asm.imm_for_width(*v, w)?;
                }
                _ => return unsupported(),
            }
        }
        M::Xchg => {
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.opcode.push(op_for_width(0x87, w));
                    asm.set_reg(*src);
                    asm.set_rm_reg(*dst);
                }
                (Some(O::Reg(src)), Some(O::Mem(dst))) | (Some(O::Mem(dst)), Some(O::Reg(src))) => {
                    asm.opcode.push(op_for_width(0x87, w));
                    asm.set_reg(*src);
                    asm.set_rm_mem(dst)?;
                }
                _ => return unsupported(),
            }
        }
        M::Not | M::Neg => {
            setup_width(&mut asm, w);
            asm.opcode.push(op_for_width(0xf7, w));
            asm.set_digit(if insn.mnemonic == M::Not { 2 } else { 3 });
            match ops.first() {
                Some(O::Reg(r)) => asm.set_rm_reg(*r),
                Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                _ => return unsupported(),
            }
        }
        M::Inc | M::Dec => {
            setup_width(&mut asm, w);
            asm.opcode.push(op_for_width(0xff, w));
            asm.set_digit(if insn.mnemonic == M::Inc { 0 } else { 1 });
            match ops.first() {
                Some(O::Reg(r)) => asm.set_rm_reg(*r),
                Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                _ => return unsupported(),
            }
        }
        M::Mul | M::Idiv | M::Div => {
            setup_width(&mut asm, w);
            asm.opcode.push(op_for_width(0xf7, w));
            asm.set_digit(match insn.mnemonic {
                M::Mul => 4,
                M::Idiv => 7,
                M::Div => 6,
                _ => unreachable!(),
            });
            match ops.first() {
                Some(O::Reg(r)) => asm.set_rm_reg(*r),
                Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                _ => return unsupported(),
            }
        }
        M::Imul => {
            setup_width(&mut asm, w);
            match (ops.first(), ops.get(1), ops.get(2)) {
                (Some(src), None, None) => {
                    asm.opcode.push(op_for_width(0xf7, w));
                    asm.set_digit(5);
                    match src {
                        O::Reg(r) => asm.set_rm_reg(*r),
                        O::Mem(mref) => asm.set_rm_mem(mref)?,
                        _ => return unsupported(),
                    }
                }
                (Some(src), Some(O::Reg(dst)), None) => {
                    asm.opcode.extend_from_slice(&[0x0f, 0xaf]);
                    asm.set_reg(*dst);
                    match src {
                        O::Reg(r) => asm.set_rm_reg(*r),
                        O::Mem(mref) => asm.set_rm_mem(mref)?,
                        _ => return unsupported(),
                    }
                }
                (Some(O::Imm(v)), Some(src), Some(O::Reg(dst))) => {
                    let use_i8 = fits_i8(*v);
                    asm.opcode.push(if use_i8 { 0x6b } else { 0x69 });
                    asm.set_reg(*dst);
                    match src {
                        O::Reg(r) => asm.set_rm_reg(*r),
                        O::Mem(mref) => asm.set_rm_mem(mref)?,
                        _ => return unsupported(),
                    }
                    if use_i8 {
                        asm.imm8(*v);
                    } else {
                        asm.imm_for_width(*v, w)?;
                    }
                }
                _ => return unsupported(),
            }
        }
        M::Shl | M::Shr | M::Sar | M::Rol | M::Ror => {
            setup_width(&mut asm, w);
            let digit = match insn.mnemonic {
                M::Rol => 0,
                M::Ror => 1,
                M::Shl => 4,
                M::Shr => 5,
                M::Sar => 7,
                _ => unreachable!(),
            };
            let set_target = |asm: &mut Asm, op: &Operand| -> Result<(), EncodeError> {
                match op {
                    O::Reg(r) => {
                        asm.set_rm_reg(*r);
                        Ok(())
                    }
                    O::Mem(mref) => asm.set_rm_mem(mref),
                    _ => Err(EncodeError::UnsupportedForm("shift target".to_string())),
                }
            };
            match (ops.first(), ops.get(1)) {
                (Some(target), None) => {
                    // Implicit shift-by-1.
                    asm.opcode.push(op_for_width(0xd1, w));
                    asm.set_digit(digit);
                    set_target(&mut asm, target)?;
                }
                (Some(O::Imm(1)), Some(target)) => {
                    asm.opcode.push(op_for_width(0xd1, w));
                    asm.set_digit(digit);
                    set_target(&mut asm, target)?;
                }
                (Some(O::Imm(v)), Some(target)) => {
                    asm.opcode.push(op_for_width(0xc1, w));
                    asm.set_digit(digit);
                    set_target(&mut asm, target)?;
                    asm.imm8(*v);
                }
                (Some(O::Reg(cl)), Some(target)) if cl.id == RegId::Rcx => {
                    asm.opcode.push(op_for_width(0xd3, w));
                    asm.set_digit(digit);
                    set_target(&mut asm, target)?;
                }
                _ => return unsupported(),
            }
        }
        M::Push => match ops.first() {
            Some(O::Reg(r)) => {
                if r.id.encoding() >= 8 {
                    asm.rex_b = true;
                }
                asm.opcode.push(0x50 + (r.id.encoding() & 7));
            }
            Some(O::Imm(v)) => {
                if fits_i8(*v) {
                    asm.opcode.push(0x6a);
                    asm.imm8(*v);
                } else {
                    asm.opcode.push(0x68);
                    asm.imm32(*v);
                }
            }
            Some(O::Mem(mref)) => {
                asm.opcode.push(0xff);
                asm.set_digit(6);
                asm.set_rm_mem(mref)?;
            }
            _ => return unsupported(),
        },
        M::Pop => match ops.first() {
            Some(O::Reg(r)) => {
                if r.id.encoding() >= 8 {
                    asm.rex_b = true;
                }
                asm.opcode.push(0x58 + (r.id.encoding() & 7));
            }
            Some(O::Mem(mref)) => {
                asm.opcode.push(0x8f);
                asm.set_digit(0);
                asm.set_rm_mem(mref)?;
            }
            _ => return unsupported(),
        },
        M::Cltq => {
            asm.rex_w = true;
            asm.opcode.push(0x98);
        }
        M::Cwtl => asm.opcode.push(0x98),
        M::Cltd => asm.opcode.push(0x99),
        M::Cqto => {
            asm.rex_w = true;
            asm.opcode.push(0x99);
        }
        M::Jmp => match ops.first() {
            Some(O::Label(_)) => match form {
                BranchForm::Rel8 => {
                    if !form.fits(rel) {
                        return Err(EncodeError::ValueOutOfRange(format!("rel8 {rel}")));
                    }
                    asm.opcode.push(0xeb);
                    asm.imm8(rel);
                }
                BranchForm::Rel32 => {
                    if !form.fits(rel) {
                        return Err(EncodeError::ValueOutOfRange(format!("rel32 {rel}")));
                    }
                    asm.opcode.push(0xe9);
                    asm.imm32(rel);
                }
            },
            Some(O::IndirectReg(r)) => {
                asm.opcode.push(0xff);
                asm.set_digit(4);
                asm.set_rm_reg(*r);
            }
            Some(O::IndirectMem(mref)) => {
                asm.opcode.push(0xff);
                asm.set_digit(4);
                asm.set_rm_mem(mref)?;
            }
            _ => return unsupported(),
        },
        M::Jcc(c) => match ops.first() {
            Some(O::Label(_)) => match form {
                BranchForm::Rel8 => {
                    if !form.fits(rel) {
                        return Err(EncodeError::ValueOutOfRange(format!("rel8 {rel}")));
                    }
                    asm.opcode.push(0x70 + c.encoding());
                    asm.imm8(rel);
                }
                BranchForm::Rel32 => {
                    if !form.fits(rel) {
                        return Err(EncodeError::ValueOutOfRange(format!("rel32 {rel}")));
                    }
                    asm.opcode.extend_from_slice(&[0x0f, 0x80 + c.encoding()]);
                    asm.imm32(rel);
                }
            },
            _ => return unsupported(),
        },
        M::Call => match ops.first() {
            Some(O::Label(_)) => {
                if !fits_i32(rel) {
                    return Err(EncodeError::ValueOutOfRange(format!("rel32 {rel}")));
                }
                asm.opcode.push(0xe8);
                asm.imm32(rel);
            }
            Some(O::IndirectReg(r)) => {
                asm.opcode.push(0xff);
                asm.set_digit(2);
                asm.set_rm_reg(*r);
            }
            Some(O::IndirectMem(mref)) => {
                asm.opcode.push(0xff);
                asm.set_digit(2);
                asm.set_rm_mem(mref)?;
            }
            _ => return unsupported(),
        },
        M::Ret => asm.opcode.push(0xc3),
        M::Leave => asm.opcode.push(0xc9),
        M::Setcc(c) => {
            asm.opcode.extend_from_slice(&[0x0f, 0x90 + c.encoding()]);
            asm.set_digit(0);
            match ops.first() {
                Some(O::Reg(r)) => asm.set_rm_reg(*r),
                Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                _ => return unsupported(),
            }
        }
        M::Cmovcc(c) => {
            setup_width(&mut asm, w);
            asm.opcode.extend_from_slice(&[0x0f, 0x40 + c.encoding()]);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Nop => {
            if ops.is_empty() {
                if insn.op_width == Some(Width::B2) {
                    asm.prefix_66 = true;
                }
                asm.opcode.push(0x90);
            } else {
                // Multi-byte NOP: 0F 1F /0.
                if insn.op_width == Some(Width::B2) {
                    asm.prefix_66 = true;
                }
                asm.opcode.extend_from_slice(&[0x0f, 0x1f]);
                asm.set_digit(0);
                match ops.first() {
                    Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                    Some(O::Reg(r)) => asm.set_rm_reg(*r),
                    _ => return unsupported(),
                }
            }
        }
        M::Pause => {
            asm.mandatory = Some(0xf3);
            asm.opcode.push(0x90);
        }
        // SSE: (prefix, opcode-load, opcode-store); reg field is the XMM.
        M::Movss | M::Movsd | M::Movups | M::Movaps | M::Movapd => {
            let (prefix, load, store): (Option<u8>, u8, u8) = match insn.mnemonic {
                M::Movss => (Some(0xf3), 0x10, 0x11),
                M::Movsd => (Some(0xf2), 0x10, 0x11),
                M::Movups => (None, 0x10, 0x11),
                M::Movaps => (None, 0x28, 0x29),
                M::Movapd => {
                    asm.prefix_66 = true;
                    (None, 0x28, 0x29)
                }
                _ => unreachable!(),
            };
            asm.mandatory = prefix;
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.opcode.extend_from_slice(&[0x0f, load]);
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.opcode.extend_from_slice(&[0x0f, load]);
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                (Some(O::Reg(src)), Some(O::Mem(dst))) => {
                    asm.opcode.extend_from_slice(&[0x0f, store]);
                    asm.set_reg(*src);
                    asm.set_rm_mem(dst)?;
                }
                _ => return unsupported(),
            }
        }
        M::Addss
        | M::Addsd
        | M::Subss
        | M::Subsd
        | M::Mulss
        | M::Mulsd
        | M::Divss
        | M::Divsd
        | M::Sqrtss
        | M::Sqrtsd
        | M::Ucomiss
        | M::Ucomisd
        | M::Comiss
        | M::Comisd
        | M::Pxor
        | M::Xorps
        | M::Xorpd
        | M::Cvtss2sd
        | M::Cvtsd2ss => {
            let (mandatory, p66, op): (Option<u8>, bool, u8) = match insn.mnemonic {
                M::Addss => (Some(0xf3), false, 0x58),
                M::Addsd => (Some(0xf2), false, 0x58),
                M::Subss => (Some(0xf3), false, 0x5c),
                M::Subsd => (Some(0xf2), false, 0x5c),
                M::Mulss => (Some(0xf3), false, 0x59),
                M::Mulsd => (Some(0xf2), false, 0x59),
                M::Divss => (Some(0xf3), false, 0x5e),
                M::Divsd => (Some(0xf2), false, 0x5e),
                M::Sqrtss => (Some(0xf3), false, 0x51),
                M::Sqrtsd => (Some(0xf2), false, 0x51),
                M::Ucomiss => (None, false, 0x2e),
                M::Ucomisd => (None, true, 0x2e),
                M::Comiss => (None, false, 0x2f),
                M::Comisd => (None, true, 0x2f),
                M::Pxor => (None, true, 0xef),
                M::Xorps => (None, false, 0x57),
                M::Xorpd => (None, true, 0x57),
                M::Cvtss2sd => (Some(0xf3), false, 0x5a),
                M::Cvtsd2ss => (Some(0xf2), false, 0x5a),
                _ => unreachable!(),
            };
            asm.mandatory = mandatory;
            asm.prefix_66 = p66;
            asm.opcode.extend_from_slice(&[0x0f, op]);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Cvtsi2ss | M::Cvtsi2sd | M::Cvttss2si | M::Cvttsd2si => {
            let (mandatory, op) = match insn.mnemonic {
                M::Cvtsi2ss => (0xf3, 0x2a),
                M::Cvtsi2sd => (0xf2, 0x2a),
                M::Cvttss2si => (0xf3, 0x2c),
                M::Cvttsd2si => (0xf2, 0x2c),
                _ => unreachable!(),
            };
            asm.mandatory = Some(mandatory);
            if insn.op_width == Some(Width::B8) {
                asm.rex_w = true;
            }
            asm.opcode.extend_from_slice(&[0x0f, op]);
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Mem(src)), Some(O::Reg(dst))) => {
                    asm.set_reg(*dst);
                    asm.set_rm_mem(src)?;
                }
                _ => return unsupported(),
            }
        }
        M::Movd | M::Movdq => {
            asm.prefix_66 = true;
            if insn.mnemonic == M::Movdq {
                asm.rex_w = true;
            }
            match (ops.first(), ops.get(1)) {
                (Some(O::Reg(src)), Some(O::Reg(dst))) if dst.id.is_xmm() => {
                    asm.opcode.extend_from_slice(&[0x0f, 0x6e]);
                    asm.set_reg(*dst);
                    asm.set_rm_reg(*src);
                }
                (Some(O::Reg(src)), Some(O::Reg(dst))) if src.id.is_xmm() => {
                    asm.opcode.extend_from_slice(&[0x0f, 0x7e]);
                    asm.set_reg(*src);
                    asm.set_rm_reg(*dst);
                }
                _ => return unsupported(),
            }
        }
        M::Prefetchnta | M::Prefetcht0 | M::Prefetcht1 | M::Prefetcht2 => {
            asm.opcode.extend_from_slice(&[0x0f, 0x18]);
            asm.set_digit(match insn.mnemonic {
                M::Prefetchnta => 0,
                M::Prefetcht0 => 1,
                M::Prefetcht1 => 2,
                M::Prefetcht2 => 3,
                _ => unreachable!(),
            });
            match ops.first() {
                Some(O::Mem(mref)) => asm.set_rm_mem(mref)?,
                _ => return unsupported(),
            }
        }
        M::Ud2 => asm.opcode.extend_from_slice(&[0x0f, 0x0b]),
        M::Int3 => asm.opcode.push(0xcc),
        M::Hlt => asm.opcode.push(0xf4),
        M::Cpuid => asm.opcode.extend_from_slice(&[0x0f, 0xa2]),
        M::Rdtsc => asm.opcode.extend_from_slice(&[0x0f, 0x31]),
        M::Mfence => asm.opcode.extend_from_slice(&[0x0f, 0xae, 0xf0]),
        M::Lfence => asm.opcode.extend_from_slice(&[0x0f, 0xae, 0xe8]),
        M::Sfence => asm.opcode.extend_from_slice(&[0x0f, 0xae, 0xf8]),
        M::Endbr64 => {
            asm.mandatory = Some(0xf3);
            asm.opcode.extend_from_slice(&[0x0f, 0x1e, 0xfa]);
        }
    }

    Ok(asm)
}

/// Length in bytes of `insn`, with a label-targeting branch assumed to use
/// `form`. This is what the relaxation fixed point consumes. Computed
/// arithmetically from the instruction's parts — no bytes are materialized.
pub fn encoded_length(insn: &Instruction, form: BranchForm) -> Result<usize, EncodeError> {
    assemble(insn, form, 0)?.encoded_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cond;
    use crate::insn::build;
    use crate::operand::Mem;

    fn enc(i: &Instruction) -> Vec<u8> {
        encode(i, BranchForm::Rel32, 0).unwrap()
    }

    /// The exact byte sequences from the paper's Section II listing.
    #[test]
    fn paper_relaxation_listing_encodings() {
        use crate::reg::{Reg, RegId, Width};
        let rbp = Reg::q(RegId::Rbp);
        let rsp = Reg::q(RegId::Rsp);

        let push = Instruction::new(Mnemonic::Push, vec![Operand::Reg(rbp)]);
        assert_eq!(enc(&push), vec![0x55]);

        let mov = build::mov(Width::B8, rsp, rbp);
        assert_eq!(enc(&mov), vec![0x48, 0x89, 0xe5]);

        let movl = build::mov(Width::B4, Operand::Imm(5), Mem::base_disp(rbp, -4));
        assert_eq!(enc(&movl), vec![0xc7, 0x45, 0xfc, 0x05, 0x00, 0x00, 0x00]);

        let addl = build::add(Width::B4, Operand::Imm(1), Mem::base_disp(rbp, -4));
        assert_eq!(enc(&addl), vec![0x83, 0x45, 0xfc, 0x01]);

        let subl = build::sub(Width::B4, Operand::Imm(1), Mem::base_disp(rbp, -4));
        assert_eq!(enc(&subl), vec![0x83, 0x6d, 0xfc, 0x01]);

        let cmpl = build::cmp(Width::B4, Operand::Imm(0), Mem::base_disp(rbp, -4));
        assert_eq!(enc(&cmpl), vec![0x83, 0x7d, 0xfc, 0x00]);

        // jmp rel8: eb 7f, jmp rel32: e9 imm32, jne rel32: 0f 85 imm32.
        let jmp = build::jmp(".L");
        assert_eq!(
            encode(&jmp, BranchForm::Rel8, 0x7f).unwrap(),
            vec![0xeb, 0x7f]
        );
        assert_eq!(
            encode(&jmp, BranchForm::Rel32, 0x80).unwrap(),
            vec![0xe9, 0x80, 0x00, 0x00, 0x00]
        );
        let jne = build::jcc(Cond::Ne, ".L");
        assert_eq!(
            encode(&jne, BranchForm::Rel32, -0x86).unwrap(),
            vec![0x0f, 0x85, 0x7a, 0xff, 0xff, 0xff]
        );
        assert_eq!(encode(&jne, BranchForm::Rel8, -0x10).unwrap().len(), 2);
    }

    #[test]
    fn nop_lengths_are_exact() {
        for len in 1..=6usize {
            let n = Instruction::nop_of_len(len);
            assert_eq!(enc(&n).len(), len, "nop_of_len({len})");
        }
        assert_eq!(enc(&Instruction::nop()), vec![0x90]);
        // The canonical 5-byte NOP used for instrumentation points.
        assert_eq!(
            enc(&Instruction::nop_of_len(5)),
            vec![0x0f, 0x1f, 0x44, 0x00, 0x00]
        );
    }

    #[test]
    fn rel8_overflow_is_an_error() {
        let jmp = build::jmp(".L");
        assert!(matches!(
            encode(&jmp, BranchForm::Rel8, 0x80),
            Err(EncodeError::ValueOutOfRange(_))
        ));
    }

    #[test]
    fn mcf_loop_encodings() {
        use crate::reg::{Reg, RegId, Width};
        // movsbl 1(%rdi,%r8,4),%edx from Figure 1.
        let i = Instruction::from_att(
            "movsbl",
            vec![
                Operand::Mem(Mem::base_index(Reg::q(RegId::Rdi), Reg::q(RegId::R8), 4, 1)),
                Operand::Reg(Reg::l(RegId::Rdx)),
            ],
        )
        .unwrap();
        // REX.X for r8 index: 42 0f be 54 87 01
        assert_eq!(enc(&i), vec![0x42, 0x0f, 0xbe, 0x54, 0x87, 0x01]);

        // addq $1, %r8 -> 49 83 c0 01
        let i = build::add(Width::B8, Operand::Imm(1), Reg::q(RegId::R8));
        assert_eq!(enc(&i), vec![0x49, 0x83, 0xc0, 0x01]);

        // cmpl %r8d, %r9d -> 45 39 c1
        let i = build::cmp(Width::B4, Reg::l(RegId::R8), Reg::l(RegId::R9));
        assert_eq!(enc(&i), vec![0x45, 0x39, 0xc1]);
    }

    #[test]
    fn zero_extension_pattern_encodings() {
        use crate::reg::{Reg, RegId, Width};
        // andl $255, %eax -> 25 ff 00 00 00 (via 81 /4) — we use 81 form: 81 e4?
        // Note: we do not implement the AL/eAX short forms; 81 /4 id is used.
        let i = Instruction::with_width(
            Mnemonic::And,
            Width::B4,
            vec![Operand::Imm(255), Operand::Reg(Reg::l(RegId::Rax))],
        );
        assert_eq!(enc(&i), vec![0x81, 0xe0, 0xff, 0x00, 0x00, 0x00]);
        // mov %eax, %eax -> 89 c0
        let i = build::mov(Width::B4, Reg::l(RegId::Rax), Reg::l(RegId::Rax));
        assert_eq!(enc(&i), vec![0x89, 0xc0]);
    }

    #[test]
    fn movss_store() {
        use crate::reg::{Reg, RegId};
        // movss %xmm0,(%rdi,%rax,4) -> f3 0f 11 04 87
        let i = Instruction::new(
            Mnemonic::Movss,
            vec![
                Operand::Reg(Reg::xmm(0)),
                Operand::Mem(Mem::base_index(
                    Reg::q(RegId::Rdi),
                    Reg::q(RegId::Rax),
                    4,
                    0,
                )),
            ],
        );
        assert_eq!(enc(&i), vec![0xf3, 0x0f, 0x11, 0x04, 0x87]);
    }

    #[test]
    fn rsp_base_needs_sib() {
        use crate::reg::{Reg, RegId, Width};
        // movq 24(%rsp), %rdx -> 48 8b 54 24 18
        let i = build::mov(
            Width::B8,
            Mem::base_disp(Reg::q(RegId::Rsp), 24),
            Reg::q(RegId::Rdx),
        );
        assert_eq!(enc(&i), vec![0x48, 0x8b, 0x54, 0x24, 0x18]);
    }

    #[test]
    fn rbp_base_needs_disp8() {
        use crate::reg::{Reg, RegId, Width};
        // mov (%rbp), %rax must encode disp8=0: 48 8b 45 00
        let i = build::mov(
            Width::B8,
            Mem::base_disp(Reg::q(RegId::Rbp), 0),
            Reg::q(RegId::Rax),
        );
        assert_eq!(enc(&i), vec![0x48, 0x8b, 0x45, 0x00]);
        // Same for r13.
        let i = build::mov(
            Width::B8,
            Mem::base_disp(Reg::q(RegId::R13), 0),
            Reg::q(RegId::Rax),
        );
        assert_eq!(enc(&i), vec![0x49, 0x8b, 0x45, 0x00]);
    }

    #[test]
    fn explicit_zero_disp_forces_disp8() {
        use crate::operand::Disp;
        use crate::reg::{Reg, RegId, Width};
        let implicit = build::mov(
            Width::B8,
            Mem::base_disp(Reg::q(RegId::Rax), 0),
            Reg::q(RegId::Rbx),
        );
        let explicit = build::mov(
            Width::B8,
            Mem {
                disp: Disp::Imm(0),
                base: Some(Reg::q(RegId::Rax)),
                index: None,
                scale: 1,
            },
            Reg::q(RegId::Rbx),
        );
        assert_eq!(enc(&implicit).len() + 1, enc(&explicit).len());
    }

    #[test]
    fn rip_relative() {
        use crate::reg::{Reg, RegId, Width};
        let i = build::mov(Width::B8, Mem::rip_relative("glob"), Reg::q(RegId::Rax));
        // 48 8b 05 <disp32>
        let b = enc(&i);
        assert_eq!(&b[..3], &[0x48, 0x8b, 0x05]);
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn shifts() {
        use crate::reg::{Reg, RegId, Width};
        // shrl $12, %edi -> c1 ef 0c
        let i = Instruction::with_width(
            Mnemonic::Shr,
            Width::B4,
            vec![Operand::Imm(12), Operand::Reg(Reg::l(RegId::Rdi))],
        );
        assert_eq!(enc(&i), vec![0xc1, 0xef, 0x0c]);
        // sarl %ecx (by 1) -> d1 f9
        let i = Instruction::with_width(
            Mnemonic::Sar,
            Width::B4,
            vec![Operand::Reg(Reg::l(RegId::Rcx))],
        );
        assert_eq!(enc(&i), vec![0xd1, 0xf9]);
        // shlq %cl, %rax -> 48 d3 e0
        let i = Instruction::with_width(
            Mnemonic::Shl,
            Width::B8,
            vec![
                Operand::Reg(Reg::b(RegId::Rcx)),
                Operand::Reg(Reg::q(RegId::Rax)),
            ],
        );
        assert_eq!(enc(&i), vec![0x48, 0xd3, 0xe0]);
    }

    #[test]
    fn lea_encoding() {
        use crate::reg::{Reg, RegId, Width};
        // leal (%r8,%rdi), %ebx -> 41 8d 1c 38
        let i = Instruction::with_width(
            Mnemonic::Lea,
            Width::B4,
            vec![
                Operand::Mem(Mem::base_index(Reg::q(RegId::R8), Reg::q(RegId::Rdi), 1, 0)),
                Operand::Reg(Reg::l(RegId::Rbx)),
            ],
        );
        assert_eq!(enc(&i), vec![0x41, 0x8d, 0x1c, 0x38]);
        // leal 2(%rdx), %r8d -> 44 8d 42 02
        let i = Instruction::with_width(
            Mnemonic::Lea,
            Width::B4,
            vec![
                Operand::Mem(Mem::base_disp(Reg::q(RegId::Rdx), 2)),
                Operand::Reg(Reg::l(RegId::R8)),
            ],
        );
        assert_eq!(enc(&i), vec![0x44, 0x8d, 0x42, 0x02]);
    }

    #[test]
    fn prefetchnta() {
        use crate::reg::{Reg, RegId};
        // prefetchnta (%rax) -> 0f 18 00
        let i = Instruction::new(
            Mnemonic::Prefetchnta,
            vec![Operand::Mem(Mem::base_disp(Reg::q(RegId::Rax), 0))],
        );
        assert_eq!(enc(&i), vec![0x0f, 0x18, 0x00]);
    }

    #[test]
    fn call_and_ret() {
        let c = Instruction::new(Mnemonic::Call, vec![Operand::Label("f".into())]);
        assert_eq!(encode(&c, BranchForm::Rel32, 0x100).unwrap().len(), 5);
        let r = Instruction::new(Mnemonic::Ret, vec![]);
        assert_eq!(enc(&r), vec![0xc3]);
    }

    #[test]
    fn low8_regs_need_rex() {
        use crate::reg::{Reg, RegId, Width};
        // movb %sil, %al -> 40 88 f0
        let i = build::mov(Width::B1, Reg::b(RegId::Rsi), Reg::b(RegId::Rax));
        assert_eq!(enc(&i), vec![0x40, 0x88, 0xf0]);
        // movb %dl, %al (no REX) -> 88 d0
        let i = build::mov(Width::B1, Reg::b(RegId::Rdx), Reg::b(RegId::Rax));
        assert_eq!(enc(&i), vec![0x88, 0xd0]);
    }

    #[test]
    fn high8_rex_conflict_is_rejected() {
        use crate::reg::{parse_reg_name, Width};
        let ah = parse_reg_name("ah").unwrap();
        let sil = parse_reg_name("sil").unwrap();
        let i = build::mov(Width::B1, ah, sil);
        assert_eq!(
            encode(&i, BranchForm::Rel32, 0),
            Err(EncodeError::RexHighByteConflict)
        );
    }

    #[test]
    fn xorb_high_low() {
        use crate::reg::{Reg, RegId, Width};
        // xorb $1, %dl -> 80 f2 01
        let i = Instruction::with_width(
            Mnemonic::Xor,
            Width::B1,
            vec![Operand::Imm(1), Operand::Reg(Reg::b(RegId::Rdx))],
        );
        assert_eq!(enc(&i), vec![0x80, 0xf2, 0x01]);
    }

    #[test]
    fn movabs_imm64() {
        use crate::reg::{Reg, RegId};
        let i = Instruction::new(
            Mnemonic::Movabs,
            vec![
                Operand::Imm(0x1122334455667788),
                Operand::Reg(Reg::q(RegId::Rax)),
            ],
        );
        let b = enc(&i);
        assert_eq!(b[0], 0x48);
        assert_eq!(b[1], 0xb8);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn imul_forms() {
        use crate::reg::{Reg, RegId, Width};
        // imull %ebx -> f7 eb
        let one = Instruction::with_width(
            Mnemonic::Imul,
            Width::B4,
            vec![Operand::Reg(Reg::l(RegId::Rbx))],
        );
        assert_eq!(enc(&one), vec![0xf7, 0xeb]);
        // imull %ecx, %eax -> 0f af c1
        let two = Instruction::with_width(
            Mnemonic::Imul,
            Width::B4,
            vec![
                Operand::Reg(Reg::l(RegId::Rcx)),
                Operand::Reg(Reg::l(RegId::Rax)),
            ],
        );
        assert_eq!(enc(&two), vec![0x0f, 0xaf, 0xc1]);
        // imull $100, %ecx, %eax -> 6b c1 64
        let three = Instruction::with_width(
            Mnemonic::Imul,
            Width::B4,
            vec![
                Operand::Imm(100),
                Operand::Reg(Reg::l(RegId::Rcx)),
                Operand::Reg(Reg::l(RegId::Rax)),
            ],
        );
        assert_eq!(enc(&three), vec![0x6b, 0xc1, 0x64]);
    }

    #[test]
    fn lengths_at_most_15() {
        use crate::reg::{Reg, RegId, Width};
        let i = build::mov(
            Width::B8,
            Operand::Mem(Mem::base_index(
                Reg::q(RegId::R13),
                Reg::q(RegId::R12),
                8,
                0x12345678,
            )),
            Reg::q(RegId::R15),
        );
        let b = enc(&i);
        assert!(b.len() <= 15);
    }

    #[test]
    fn indirect_jump_through_table() {
        use crate::operand::Disp;
        use crate::reg::{Reg, RegId};
        // jmp *.Ltab(,%rax,8) -> ff 24 c5 <disp32>
        let i = Instruction::new(
            Mnemonic::Jmp,
            vec![Operand::IndirectMem(Mem {
                disp: Disp::Symbol {
                    name: ".Ltab".into(),
                    addend: 0,
                },
                base: None,
                index: Some(Reg::q(RegId::Rax)),
                scale: 8,
            })],
        );
        let b = enc(&i);
        assert_eq!(&b[..3], &[0xff, 0x24, 0xc5]);
        assert_eq!(b.len(), 7);
    }
}

#[cfg(test)]
mod more_form_tests {
    use super::*;
    use crate::flags::Cond;
    use crate::insn::{build, Instruction};
    use crate::mnemonic::Mnemonic;
    use crate::operand::{Mem, Operand};
    use crate::reg::{Reg, RegId, Width};

    fn enc(i: &Instruction) -> Vec<u8> {
        encode(i, BranchForm::Rel32, 0).unwrap()
    }

    #[test]
    fn push_immediates() {
        let i = Instruction::new(Mnemonic::Push, vec![Operand::Imm(42)]);
        assert_eq!(enc(&i), vec![0x6a, 0x2a]);
        let i = Instruction::new(Mnemonic::Push, vec![Operand::Imm(0x1234)]);
        assert_eq!(enc(&i), vec![0x68, 0x34, 0x12, 0x00, 0x00]);
    }

    #[test]
    fn push_pop_memory() {
        let m = Mem::base_disp(Reg::q(RegId::Rbx), 8);
        let i = Instruction::new(Mnemonic::Push, vec![Operand::Mem(m.clone())]);
        assert_eq!(enc(&i), vec![0xff, 0x73, 0x08]);
        let i = Instruction::new(Mnemonic::Pop, vec![Operand::Mem(m)]);
        assert_eq!(enc(&i), vec![0x8f, 0x43, 0x08]);
    }

    #[test]
    fn setcc_memory_destination() {
        let i = Instruction::from_att(
            "setne",
            vec![Operand::Mem(Mem::base_disp(Reg::q(RegId::Rdi), 0))],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0x0f, 0x95, 0x07]);
    }

    #[test]
    fn cmov_from_memory() {
        let i = Instruction::from_att(
            "cmovel",
            vec![
                Operand::Mem(Mem::base_disp(Reg::q(RegId::Rsi), 4)),
                Operand::Reg(Reg::l(RegId::Rax)),
            ],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0x0f, 0x44, 0x46, 0x04]);
    }

    #[test]
    fn test_immediate_with_memory() {
        let i = Instruction::from_att(
            "testl",
            vec![
                Operand::Imm(0xff),
                Operand::Mem(Mem::base_disp(Reg::q(RegId::Rbp), -4)),
            ],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0xf7, 0x45, 0xfc, 0xff, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn not_neg_on_memory() {
        let m = Mem::base_disp(Reg::q(RegId::Rcx), 0);
        let i = Instruction::with_width(Mnemonic::Not, Width::B4, vec![Operand::Mem(m.clone())]);
        assert_eq!(enc(&i), vec![0xf7, 0x11]);
        let i = Instruction::with_width(Mnemonic::Neg, Width::B8, vec![Operand::Mem(m)]);
        assert_eq!(enc(&i), vec![0x48, 0xf7, 0x19]);
    }

    #[test]
    fn inc_dec_forms() {
        let i = Instruction::from_att("incq", vec![Operand::Reg(Reg::q(RegId::Rax))]).unwrap();
        assert_eq!(enc(&i), vec![0x48, 0xff, 0xc0]);
        let i = Instruction::from_att(
            "decl",
            vec![Operand::Mem(Mem::base_disp(Reg::q(RegId::Rdx), 16))],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0xff, 0x4a, 0x10]);
    }

    #[test]
    fn index_only_sib() {
        // movl %eax, (,%rbx,4): SIB with no base -> disp32 required.
        let i = Instruction::from_att(
            "movl",
            vec![
                Operand::Reg(Reg::l(RegId::Rax)),
                Operand::Mem(Mem {
                    disp: crate::operand::Disp::None,
                    base: None,
                    index: Some(Reg::q(RegId::Rbx)),
                    scale: 4,
                }),
            ],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0x89, 0x04, 0x9d, 0x00, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn r12_base_needs_sib_r13_needs_disp() {
        // r12 as base shares rsp's SIB-escape encoding.
        let i = Instruction::from_att(
            "movq",
            vec![
                Operand::Mem(Mem::base_disp(Reg::q(RegId::R12), 0)),
                Operand::Reg(Reg::q(RegId::Rax)),
            ],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0x49, 0x8b, 0x04, 0x24]);
        // r13 as base shares rbp's disp-required encoding.
        let i = Instruction::from_att(
            "movq",
            vec![
                Operand::Mem(Mem::base_disp(Reg::q(RegId::R13), 0)),
                Operand::Reg(Reg::q(RegId::Rax)),
            ],
        )
        .unwrap();
        assert_eq!(enc(&i), vec![0x49, 0x8b, 0x45, 0x00]);
    }

    #[test]
    fn indirect_call_and_jmp_register() {
        let i = Instruction::new(
            Mnemonic::Call,
            vec![Operand::IndirectReg(Reg::q(RegId::Rax))],
        );
        assert_eq!(enc(&i), vec![0xff, 0xd0]);
        let i = Instruction::new(
            Mnemonic::Jmp,
            vec![Operand::IndirectReg(Reg::q(RegId::R11))],
        );
        assert_eq!(enc(&i), vec![0x41, 0xff, 0xe3]);
    }

    #[test]
    fn sse_reg_reg_moves() {
        let i = Instruction::new(
            Mnemonic::Movss,
            vec![Operand::Reg(Reg::xmm(1)), Operand::Reg(Reg::xmm(0))],
        );
        assert_eq!(enc(&i), vec![0xf3, 0x0f, 0x10, 0xc1]);
        let i = Instruction::new(
            Mnemonic::Movaps,
            vec![Operand::Reg(Reg::xmm(8)), Operand::Reg(Reg::xmm(2))],
        );
        assert_eq!(enc(&i), vec![0x41, 0x0f, 0x28, 0xd0]);
    }

    #[test]
    fn movd_between_gpr_and_xmm() {
        let i = Instruction::new(
            Mnemonic::Movd,
            vec![Operand::Reg(Reg::l(RegId::Rax)), Operand::Reg(Reg::xmm(0))],
        );
        assert_eq!(enc(&i), vec![0x66, 0x0f, 0x6e, 0xc0]);
        let i = Instruction::new(
            Mnemonic::Movd,
            vec![Operand::Reg(Reg::xmm(0)), Operand::Reg(Reg::l(RegId::Rax))],
        );
        assert_eq!(enc(&i), vec![0x66, 0x0f, 0x7e, 0xc0]);
    }

    #[test]
    fn misc_fixed_encodings() {
        let enc1 = |m: Mnemonic| enc(&Instruction::new(m, vec![]));
        assert_eq!(enc1(Mnemonic::Ud2), vec![0x0f, 0x0b]);
        assert_eq!(enc1(Mnemonic::Cpuid), vec![0x0f, 0xa2]);
        assert_eq!(enc1(Mnemonic::Rdtsc), vec![0x0f, 0x31]);
        assert_eq!(enc1(Mnemonic::Mfence), vec![0x0f, 0xae, 0xf0]);
        assert_eq!(enc1(Mnemonic::Lfence), vec![0x0f, 0xae, 0xe8]);
        assert_eq!(enc1(Mnemonic::Sfence), vec![0x0f, 0xae, 0xf8]);
        assert_eq!(enc1(Mnemonic::Endbr64), vec![0xf3, 0x0f, 0x1e, 0xfa]);
        assert_eq!(enc1(Mnemonic::Pause), vec![0xf3, 0x90]);
        assert_eq!(enc1(Mnemonic::Cltq), vec![0x48, 0x98]);
        assert_eq!(enc1(Mnemonic::Cqto), vec![0x48, 0x99]);
    }

    #[test]
    fn lock_prefix_encodes_first() {
        let mut i = Instruction::from_att(
            "addl",
            vec![
                Operand::Imm(1),
                Operand::Mem(Mem::base_disp(Reg::q(RegId::Rdi), 0)),
            ],
        )
        .unwrap();
        i.lock = true;
        assert_eq!(enc(&i), vec![0xf0, 0x83, 0x07, 0x01]);
    }

    #[test]
    fn unsupported_forms_error_not_panic() {
        // Immediate destination is nonsense.
        let i = Instruction::with_width(
            Mnemonic::Mov,
            Width::B4,
            vec![Operand::Imm(1), Operand::Imm(2)],
        );
        assert!(matches!(
            encode(&i, BranchForm::Rel32, 0),
            Err(EncodeError::UnsupportedForm(_))
        ));
        // Setcc with an immediate operand.
        let i = Instruction::from_att("sete", vec![Operand::Imm(1)]).unwrap();
        assert!(encode(&i, BranchForm::Rel32, 0).is_err());
    }

    #[test]
    fn arithmetic_length_matches_materialized_encoding() {
        let insns = [
            Instruction::new(Mnemonic::Push, vec![Operand::Reg(Reg::q(RegId::Rbp))]),
            build::mov(Width::B8, Reg::q(RegId::Rsp), Reg::q(RegId::Rbp)),
            build::mov(
                Width::B4,
                Operand::Imm(5),
                Mem::base_disp(Reg::q(RegId::Rbp), -4),
            ),
            build::jmp(".L"),
            build::jcc(Cond::E, ".L"),
            Instruction::from_att("call", vec![Operand::Label("f".into())]).unwrap(),
            Instruction::nop_of_len(6),
        ];
        for insn in &insns {
            for form in [BranchForm::Rel8, BranchForm::Rel32] {
                let bytes = encode(insn, form, 0).unwrap();
                assert_eq!(
                    encoded_length(insn, form).unwrap(),
                    bytes.len(),
                    "{insn} {form:?}"
                );
                let mut buf = vec![0xaa];
                encode_into(insn, form, 0, &mut buf).unwrap();
                assert_eq!(&buf[1..], &bytes[..], "{insn} {form:?}");
            }
        }
    }

    #[test]
    fn branch_lengths_give_both_forms_at_once() {
        assert_eq!(branch_lengths(&build::jmp(".L")).unwrap(), (2, 5));
        assert_eq!(branch_lengths(&build::jcc(Cond::E, ".L")).unwrap(), (2, 6));
    }
}
