//! Minimal AArch64 ISA model: the second `Isa` instantiation.
//!
//! Deliberately small — the point is to prove the `mao-isa` trait boundary
//! carries a second architecture end to end (parse → pipeline → relax →
//! emit), not to model all of A64. The subset covers the instructions the
//! issue names (`mov`/`add`/`sub`/`ldr`/`str`/`cmp`/`b.cond`/`bl`/`ret`)
//! plus unconditional `b` and `nop` so control flow and padding exist.
//!
//! Properties the rest of the system relies on:
//!
//! * **Fixed 4-byte encodings.** Every A64 instruction is one 32-bit word,
//!   so encoded-length callbacks are constant and branch relaxation is a
//!   single fixed-point iteration (no rel8/rel32 split to solve).
//! * **NZCV effects as data.** The per-mnemonic flag/memory effects live in
//!   one const table ([`effects`]), mirroring mao-x86's generated
//!   side-effect database in miniature.
//! * **Round-trip display.** `parse_insn` and `Display` are exact inverses
//!   on the supported subset — the structural checker and the emit path
//!   depend on byte-identical round-trips.

use std::fmt;

pub use mao_x86::sym::Sym;
use mao_x86::text::{display_via, push_i64, push_u64};

/// Every A64 instruction occupies exactly one 32-bit word.
pub const INSN_BYTES: u32 = 4;

/// The architectural NOP word (`d503201f`), used for alignment padding.
pub const NOP_WORD: u32 = 0xd503_201f;

// ---------------------------------------------------------------------------
// Registers
// ---------------------------------------------------------------------------

/// A general-purpose register (or SP/ZR), with operand width.
///
/// `num` is the architectural register number 0..=30, or 31 for both the
/// stack pointer and the zero register — which of the two is meant is
/// encoded by `sp`, exactly as in the ISA (the spelling `sp`/`wsp` vs
/// `xzr`/`wzr` disambiguates what the hardware infers from context).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct A64Reg {
    /// Register number 0..=31.
    pub num: u8,
    /// 64-bit (`x`/`sp`) vs 32-bit (`w`/`wsp`) operand width.
    pub is64: bool,
    /// For `num == 31`: stack pointer (true) or zero register (false).
    pub sp: bool,
}

impl A64Reg {
    /// `xN` (or `sp`/`xzr` for 31).
    pub fn x(num: u8) -> A64Reg {
        A64Reg {
            num,
            is64: true,
            sp: false,
        }
    }

    /// `wN` (or `wzr` for 31).
    pub fn w(num: u8) -> A64Reg {
        A64Reg {
            num,
            is64: false,
            sp: false,
        }
    }

    /// The 64-bit stack pointer.
    pub fn sp() -> A64Reg {
        A64Reg {
            num: 31,
            is64: true,
            sp: true,
        }
    }

    /// Is this the zero register (`xzr`/`wzr`)?
    pub fn is_zr(self) -> bool {
        self.num == 31 && !self.sp
    }

    /// Parse a register spelling (`x0`..`x30`, `w0`..`w30`, `sp`, `wsp`,
    /// `xzr`, `wzr`, `lr`).
    pub fn parse(s: &str) -> Option<A64Reg> {
        match s {
            "sp" => return Some(A64Reg::sp()),
            "wsp" => {
                return Some(A64Reg {
                    num: 31,
                    is64: false,
                    sp: true,
                })
            }
            "xzr" => return Some(A64Reg::x(31)),
            "wzr" => return Some(A64Reg::w(31)),
            "lr" => return Some(A64Reg::x(30)),
            _ => {}
        }
        let (is64, rest) = match s.as_bytes().first()? {
            b'x' => (true, &s[1..]),
            b'w' => (false, &s[1..]),
            _ => return None,
        };
        let num: u8 = rest.parse().ok()?;
        if num > 30 {
            return None;
        }
        Some(A64Reg {
            num,
            is64,
            sp: false,
        })
    }

    /// Append the spelling (`x3`, `w0`, `sp`, `wzr`, ...).
    pub fn write_text(self, out: &mut String) {
        match (self.num, self.is64, self.sp) {
            (31, true, true) => out.push_str("sp"),
            (31, false, true) => out.push_str("wsp"),
            (31, true, false) => out.push_str("xzr"),
            (31, false, false) => out.push_str("wzr"),
            (n, is64, _) => {
                out.push(if is64 { 'x' } else { 'w' });
                push_u64(out, u64::from(n));
            }
        }
    }
}

impl fmt::Display for A64Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

// ---------------------------------------------------------------------------
// Condition codes
// ---------------------------------------------------------------------------

/// A64 condition codes, in architectural encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (Z set).
    Eq,
    /// Not equal (Z clear).
    Ne,
    /// Carry set / unsigned higher-or-same.
    Cs,
    /// Carry clear / unsigned lower.
    Cc,
    /// Minus (N set).
    Mi,
    /// Plus (N clear).
    Pl,
    /// Overflow set.
    Vs,
    /// Overflow clear.
    Vc,
    /// Unsigned higher.
    Hi,
    /// Unsigned lower-or-same.
    Ls,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-than.
    Lt,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
}

impl Cond {
    /// All codes, index == architectural encoding.
    pub const ALL: [Cond; 14] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
    ];

    /// Assembly suffix (`eq`, `ne`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Cs => "cs",
            Cond::Cc => "cc",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vs => "vs",
            Cond::Vc => "vc",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
        }
    }

    /// Parse an assembly suffix.
    pub fn parse(s: &str) -> Option<Cond> {
        Cond::ALL.iter().copied().find(|c| c.name() == s)
    }

    /// Architectural 4-bit encoding (also the snapshot code).
    pub fn code(self) -> u8 {
        Cond::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    /// Inverse of [`Cond::code`].
    pub fn from_code(code: u8) -> Option<Cond> {
        Cond::ALL.get(code as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Mnemonics
// ---------------------------------------------------------------------------

/// `b.<cond>` spellings, indexed by [`Cond::code`].
const BCOND_NAMES: [&str; 14] = [
    "b.eq", "b.ne", "b.cs", "b.cc", "b.mi", "b.pl", "b.vs", "b.vc", "b.hi", "b.ls", "b.ge", "b.lt",
    "b.gt", "b.le",
];

/// The supported A64 mnemonics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum A64Mnemonic {
    /// Register/immediate move.
    Mov,
    /// Add (non-flag-setting).
    Add,
    /// Subtract (non-flag-setting).
    Sub,
    /// Compare: subtract and set NZCV, discard result.
    Cmp,
    /// Load register from memory.
    Ldr,
    /// Store register to memory.
    Str,
    /// Unconditional branch.
    B,
    /// Conditional branch (`b.eq`, `b.ne`, ...).
    BCond(Cond),
    /// Branch with link (call).
    Bl,
    /// Return through the link register.
    Ret,
    /// No-operation.
    Nop,
}

impl A64Mnemonic {
    /// Assembly spelling.
    pub fn name(self) -> &'static str {
        match self {
            A64Mnemonic::Mov => "mov",
            A64Mnemonic::Add => "add",
            A64Mnemonic::Sub => "sub",
            A64Mnemonic::Cmp => "cmp",
            A64Mnemonic::Ldr => "ldr",
            A64Mnemonic::Str => "str",
            A64Mnemonic::B => "b",
            A64Mnemonic::BCond(c) => BCOND_NAMES[c.code() as usize],
            A64Mnemonic::Bl => "bl",
            A64Mnemonic::Ret => "ret",
            A64Mnemonic::Nop => "nop",
        }
    }

    /// Is this any branch (conditional, unconditional, or call)?
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            A64Mnemonic::B | A64Mnemonic::BCond(_) | A64Mnemonic::Bl
        )
    }

    /// Does this end or redirect straight-line execution?
    pub fn is_control_flow(self) -> bool {
        self.is_branch() || self == A64Mnemonic::Ret
    }

    /// Stable numeric code for snapshots (`BCond` folds the condition into
    /// the low nibble).
    pub fn snapshot_code(self) -> u16 {
        match self {
            A64Mnemonic::Mov => 0,
            A64Mnemonic::Add => 1,
            A64Mnemonic::Sub => 2,
            A64Mnemonic::Cmp => 3,
            A64Mnemonic::Ldr => 4,
            A64Mnemonic::Str => 5,
            A64Mnemonic::B => 6,
            A64Mnemonic::Bl => 7,
            A64Mnemonic::Ret => 8,
            A64Mnemonic::Nop => 9,
            A64Mnemonic::BCond(c) => 0x100 | u16::from(c.code()),
        }
    }

    /// Inverse of [`A64Mnemonic::snapshot_code`].
    pub fn from_snapshot_code(code: u16) -> Option<A64Mnemonic> {
        Some(match code {
            0 => A64Mnemonic::Mov,
            1 => A64Mnemonic::Add,
            2 => A64Mnemonic::Sub,
            3 => A64Mnemonic::Cmp,
            4 => A64Mnemonic::Ldr,
            5 => A64Mnemonic::Str,
            6 => A64Mnemonic::B,
            7 => A64Mnemonic::Bl,
            8 => A64Mnemonic::Ret,
            9 => A64Mnemonic::Nop,
            c if c & 0x100 != 0 => A64Mnemonic::BCond(Cond::from_code((c & 0xff) as u8)?),
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Effects tables (NZCV + memory), as data
// ---------------------------------------------------------------------------

/// Side effects of one mnemonic: the NZCV flag set and memory behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct A64Effects {
    /// Writes all four NZCV flags.
    pub defs_nzcv: bool,
    /// Reads NZCV (conditional execution).
    pub uses_nzcv: bool,
    /// Reads memory.
    pub mem_read: bool,
    /// Writes memory.
    pub mem_write: bool,
}

/// Per-mnemonic effects, the A64 analogue of mao-x86's generated
/// side-effect database. `BCond` entries share one row keyed by the family.
const EFFECTS: [(u16, A64Effects); 11] = [
    (
        0,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // mov
    (
        1,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // add
    (
        2,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // sub
    (
        3,
        A64Effects {
            defs_nzcv: true,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // cmp
    (
        4,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: true,
            mem_write: false,
        },
    ), // ldr
    (
        5,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: true,
        },
    ), // str
    (
        6,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // b
    (
        7,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // bl
    (
        8,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // ret
    (
        9,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: false,
            mem_read: false,
            mem_write: false,
        },
    ), // nop
    (
        0x100,
        A64Effects {
            defs_nzcv: false,
            uses_nzcv: true,
            mem_read: false,
            mem_write: false,
        },
    ), // b.cond
];

/// Look up the effects row for `m` (condition families share one row).
pub fn effects(m: A64Mnemonic) -> A64Effects {
    let key = match m {
        A64Mnemonic::BCond(_) => 0x100,
        other => other.snapshot_code(),
    };
    EFFECTS
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, e)| *e)
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Operands and instructions
// ---------------------------------------------------------------------------

/// One instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum A64Operand {
    /// Register.
    Reg(A64Reg),
    /// Immediate (`#imm`).
    Imm(i64),
    /// Base + signed byte offset addressing (`[xN]`, `[xN, #imm]`).
    Mem {
        /// Base register (an X register or SP).
        base: A64Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// Code label (branch/call target).
    Label(Sym),
}

impl A64Operand {
    /// Append the spelling (`x1`, `#4`, `[sp, #16]`, `.L3`).
    pub fn write_text(&self, out: &mut String) {
        match *self {
            A64Operand::Reg(r) => r.write_text(out),
            A64Operand::Imm(v) => {
                out.push('#');
                push_i64(out, v);
            }
            A64Operand::Mem { base, offset } => {
                out.push('[');
                base.write_text(out);
                if offset != 0 {
                    out.push_str(", #");
                    push_i64(out, offset);
                }
                out.push(']');
            }
            A64Operand::Label(s) => out.push_str(s.as_str()),
        }
    }
}

impl fmt::Display for A64Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

/// One A64 instruction: mnemonic + operands in assembly order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct A64Insn {
    /// The operation.
    pub mnemonic: A64Mnemonic,
    /// Operands, destination first (assembly order).
    pub operands: Vec<A64Operand>,
}

impl A64Insn {
    /// The architectural NOP.
    pub fn nop() -> A64Insn {
        A64Insn {
            mnemonic: A64Mnemonic::Nop,
            operands: Vec::new(),
        }
    }

    /// The label this branch/call targets, if any.
    pub fn target_label(&self) -> Option<Sym> {
        if !self.mnemonic.is_branch() {
            return None;
        }
        self.operands.iter().find_map(|op| match op {
            A64Operand::Label(s) => Some(*s),
            _ => None,
        })
    }

    /// Is this a NOP?
    pub fn is_nop(&self) -> bool {
        self.mnemonic == A64Mnemonic::Nop
    }

    /// Encoded length in bytes — constant on A64.
    pub fn encoded_length(&self) -> u32 {
        INSN_BYTES
    }

    /// This instruction's effects row.
    pub fn effects(&self) -> A64Effects {
        effects(self.mnemonic)
    }

    /// Append the spelling: the mnemonic, a tab, then the operands.
    pub fn write_text(&self, out: &mut String) {
        out.push_str(self.mnemonic.name());
        for (i, op) in self.operands.iter().enumerate() {
            out.push_str(if i == 0 { "\t" } else { ", " });
            op.write_text(out);
        }
    }
}

impl fmt::Display for A64Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn parse_imm(s: &str) -> Result<i64, String> {
    let body = s
        .strip_prefix('#')
        .ok_or_else(|| format!("expected immediate, got `{s}`"))?;
    let (negative, digits) = match body.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, body),
    };
    // The magnitude is read unsigned so `#-9223372036854775808` (i64::MIN,
    // which the emitter writes) parses back.
    let magnitude = if let Some(hex) = digits.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        digits.parse()
    }
    .ok();
    let value = magnitude.and_then(|m| {
        if negative {
            0i64.checked_sub_unsigned(m)
        } else {
            i64::try_from(m).ok()
        }
    });
    value.ok_or_else(|| format!("bad immediate `{s}`"))
}

fn parse_operand(s: &str) -> Result<A64Operand, String> {
    let s = s.trim();
    if let Some(r) = A64Reg::parse(s) {
        return Ok(A64Operand::Reg(r));
    }
    if s.starts_with('#') {
        return Ok(A64Operand::Imm(parse_imm(s)?));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated address `{s}`"))?;
        let mut parts = inner.splitn(2, ',');
        let base_text = parts.next().unwrap_or("").trim();
        let base = A64Reg::parse(base_text)
            .filter(|r| r.is64 && !r.is_zr())
            .ok_or_else(|| format!("bad base register `{base_text}`"))?;
        let offset = match parts.next() {
            Some(off) => parse_imm(off.trim())?,
            None => 0,
        };
        return Ok(A64Operand::Mem { base, offset });
    }
    if !s.is_empty() && !s.contains(|c: char| c.is_whitespace() || c == ',') {
        return Ok(A64Operand::Label(Sym::intern(s)));
    }
    Err(format!("unrecognized operand `{s}`"))
}

/// Split an operand list on top-level commas (commas inside `[...]` bind to
/// the address).
fn split_operands(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

/// Look up a mnemonic by its assembly spelling (case-insensitive).
pub fn parse_mnemonic(name: &str) -> Option<A64Mnemonic> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "mov" => Some(A64Mnemonic::Mov),
        "add" => Some(A64Mnemonic::Add),
        "sub" => Some(A64Mnemonic::Sub),
        "cmp" => Some(A64Mnemonic::Cmp),
        "ldr" => Some(A64Mnemonic::Ldr),
        "str" => Some(A64Mnemonic::Str),
        "b" => Some(A64Mnemonic::B),
        "bl" => Some(A64Mnemonic::Bl),
        "ret" => Some(A64Mnemonic::Ret),
        "nop" => Some(A64Mnemonic::Nop),
        other => other
            .strip_prefix("b.")
            .and_then(Cond::parse)
            .map(A64Mnemonic::BCond),
    }
}

/// Parse one A64 instruction statement (mnemonic + operands, no label or
/// directive handling — the generic front end owns those).
pub fn parse_insn(text: &str) -> Result<A64Insn, String> {
    let text = text.trim();
    let (head, rest) = match text.find(|c: char| c.is_whitespace()) {
        Some(i) => (&text[..i], text[i..].trim_start()),
        None => (text, ""),
    };
    let mnemonic = parse_mnemonic(head).ok_or_else(|| format!("unknown mnemonic `{head}`"))?;
    let operands = if rest.is_empty() {
        Vec::new()
    } else {
        split_operands(rest)
            .into_iter()
            .map(parse_operand)
            .collect::<Result<Vec<_>, _>>()?
    };
    let insn = A64Insn { mnemonic, operands };
    validate(&insn)?;
    Ok(insn)
}

/// Operand-shape validation: enough structure that the emitter round-trips
/// and the structural checker has real invariants to hold.
fn validate(insn: &A64Insn) -> Result<(), String> {
    use A64Mnemonic as M;
    use A64Operand as O;
    let ops = &insn.operands;
    let bad = || {
        Err(format!(
            "bad operands for `{}`: {}",
            insn.mnemonic.name(),
            ops.len()
        ))
    };
    match insn.mnemonic {
        M::Mov => match ops.as_slice() {
            [O::Reg(_), O::Reg(_)] | [O::Reg(_), O::Imm(_)] => Ok(()),
            _ => bad(),
        },
        M::Add | M::Sub => match ops.as_slice() {
            [O::Reg(_), O::Reg(_), O::Reg(_)] | [O::Reg(_), O::Reg(_), O::Imm(_)] => Ok(()),
            _ => bad(),
        },
        M::Cmp => match ops.as_slice() {
            [O::Reg(_), O::Reg(_)] | [O::Reg(_), O::Imm(_)] => Ok(()),
            _ => bad(),
        },
        M::Ldr | M::Str => match ops.as_slice() {
            [O::Reg(_), O::Mem { .. }] => Ok(()),
            _ => bad(),
        },
        M::B | M::BCond(_) | M::Bl => match ops.as_slice() {
            [O::Label(_)] => Ok(()),
            _ => bad(),
        },
        M::Ret => match ops.as_slice() {
            [] | [O::Reg(_)] => Ok(()),
            _ => bad(),
        },
        M::Nop => match ops.as_slice() {
            [] => Ok(()),
            _ => bad(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_parse_and_print() {
        for (text, num, is64) in [("x0", 0, true), ("w30", 30, false), ("x19", 19, true)] {
            let r = A64Reg::parse(text).unwrap();
            assert_eq!((r.num, r.is64, r.sp), (num, is64, false));
            assert_eq!(r.to_string(), text);
        }
        assert_eq!(A64Reg::parse("sp").unwrap().to_string(), "sp");
        assert_eq!(A64Reg::parse("xzr").unwrap().to_string(), "xzr");
        assert_eq!(A64Reg::parse("wzr").unwrap().to_string(), "wzr");
        assert_eq!(A64Reg::parse("lr").unwrap().to_string(), "x30");
        assert!(A64Reg::parse("x31").is_none(), "31 is sp/xzr, never x31");
        assert!(A64Reg::parse("v0").is_none(), "no SIMD in the subset");
    }

    #[test]
    fn instructions_round_trip_through_display() {
        for text in [
            "mov\tx0, x1",
            "mov\tw3, #42",
            "add\tx0, x1, #16",
            "add\tx2, x3, x4",
            "sub\tsp, sp, #32",
            "cmp\tx0, #0",
            "cmp\tw1, w2",
            "ldr\tx0, [x1]",
            "ldr\tx0, [x1, #8]",
            "str\tw0, [sp, #12]",
            "str\tx19, [x29, #-16]",
            "b\t.L1",
            "b.eq\t.L2",
            "b.lt\t.L3",
            "bl\tmemcpy",
            "ret",
            "nop",
        ] {
            let insn = parse_insn(text).unwrap();
            assert_eq!(insn.to_string(), text, "round-trip of `{text}`");
        }
    }

    #[test]
    fn every_instruction_is_four_bytes() {
        for text in ["mov\tx0, x1", "b\t.L1", "ret", "ldr\tx0, [sp, #8]"] {
            assert_eq!(parse_insn(text).unwrap().encoded_length(), INSN_BYTES);
        }
    }

    #[test]
    fn nzcv_effects_match_the_architecture() {
        // Architectural ground truth: CMP is SUBS with a discarded result —
        // it defines all of NZCV; plain ADD/SUB/MOV (no S suffix) leave the
        // flags alone; B.cond is the only NZCV reader in the subset.
        assert!(effects(A64Mnemonic::Cmp).defs_nzcv);
        assert!(!effects(A64Mnemonic::Cmp).uses_nzcv);
        for m in [A64Mnemonic::Add, A64Mnemonic::Sub, A64Mnemonic::Mov] {
            assert!(!effects(m).defs_nzcv, "{m:?} must not set flags");
            assert!(!effects(m).uses_nzcv);
        }
        for c in Cond::ALL {
            let e = effects(A64Mnemonic::BCond(c));
            assert!(e.uses_nzcv, "b.{} reads NZCV", c.name());
            assert!(!e.defs_nzcv);
        }
        assert!(effects(A64Mnemonic::Ldr).mem_read);
        assert!(!effects(A64Mnemonic::Ldr).mem_write);
        assert!(effects(A64Mnemonic::Str).mem_write);
        assert!(!effects(A64Mnemonic::Str).mem_read);
    }

    #[test]
    fn branch_targets_and_predicates() {
        let b = parse_insn("b.ne\t.Lloop").unwrap();
        assert!(b.mnemonic.is_branch());
        assert!(b.mnemonic.is_control_flow());
        assert_eq!(b.target_label().unwrap().as_str(), ".Lloop");
        let ret = parse_insn("ret").unwrap();
        assert!(!ret.mnemonic.is_branch());
        assert!(ret.mnemonic.is_control_flow());
        assert_eq!(ret.target_label(), None);
        assert!(parse_insn("nop").unwrap().is_nop());
    }

    #[test]
    fn snapshot_codes_round_trip() {
        let mut all = vec![
            A64Mnemonic::Mov,
            A64Mnemonic::Add,
            A64Mnemonic::Sub,
            A64Mnemonic::Cmp,
            A64Mnemonic::Ldr,
            A64Mnemonic::Str,
            A64Mnemonic::B,
            A64Mnemonic::Bl,
            A64Mnemonic::Ret,
            A64Mnemonic::Nop,
        ];
        all.extend(Cond::ALL.iter().map(|&c| A64Mnemonic::BCond(c)));
        let mut seen = std::collections::BTreeSet::new();
        for m in all {
            let code = m.snapshot_code();
            assert!(seen.insert(code), "duplicate snapshot code for {m:?}");
            assert_eq!(A64Mnemonic::from_snapshot_code(code), Some(m));
        }
        assert_eq!(A64Mnemonic::from_snapshot_code(0x1ff), None);
    }

    #[test]
    fn malformed_statements_are_rejected() {
        for text in [
            "frob\tx0",
            "mov\tx0",
            "mov\t#1, x0",
            "ldr\tx0, x1",
            "str\tx0, [v8]",
            "b\tx0, x1",
            "b.xx\t.L1",
            "add\tx0, [x1], #2",
            "ldr\tx0, [x1, #8",
        ] {
            assert!(parse_insn(text).is_err(), "`{text}` must be rejected");
        }
    }
}
