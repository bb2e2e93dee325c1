//! Mnemonic (opcode family) model and AT&T mnemonic-string parsing.
//!
//! An AT&T mnemonic string such as `movl`, `movsbl`, `jne` or `cmovge`
//! combines an opcode family with operand-size suffixes and/or a condition
//! code. [`parse_mnemonic`] splits such a string into a [`Mnemonic`] plus the
//! explicit widths, which the parser then stores on the instruction.

use crate::flags::Cond;
use crate::reg::Width;

/// Opcode family, independent of operand size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // The variants mirror x86 mnemonics 1:1.
pub enum Mnemonic {
    // Data movement.
    Mov,
    Movabs,
    /// Sign-extending move (`movsbl`, `movswq`, `movslq`, ...).
    Movsx,
    /// Zero-extending move (`movzbl`, `movzwl`, ...).
    Movzx,
    Lea,
    Xchg,
    Push,
    Pop,
    // Integer ALU.
    Add,
    Adc,
    Sub,
    Sbb,
    And,
    Or,
    Xor,
    Not,
    Neg,
    Inc,
    Dec,
    Cmp,
    Test,
    Imul,
    Mul,
    Idiv,
    Div,
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
    // Sign-extension idioms.
    /// `cltq` — sign-extend %eax into %rax (a.k.a. `cdqe`).
    Cltq,
    /// `cltd` — sign-extend %eax into %edx:%eax (a.k.a. `cdq`).
    Cltd,
    /// `cqto` — sign-extend %rax into %rdx:%rax (a.k.a. `cqo`).
    Cqto,
    /// `cwtl` — sign-extend %ax into %eax (a.k.a. `cwde`).
    Cwtl,
    // Control flow.
    Jmp,
    /// Conditional jump with the given condition.
    Jcc(Cond),
    Call,
    Ret,
    Leave,
    /// `setcc` — set byte on condition.
    Setcc(Cond),
    /// `cmovcc` — conditional move.
    Cmovcc(Cond),
    // NOP family.
    Nop,
    Pause,
    // SSE scalar / packed subset used by compiler output.
    Movss,
    Movsd,
    Movaps,
    Movapd,
    Movups,
    Movd,
    Movdq,
    Addss,
    Addsd,
    Subss,
    Subsd,
    Mulss,
    Mulsd,
    Divss,
    Divsd,
    Sqrtss,
    Sqrtsd,
    Ucomiss,
    Ucomisd,
    Comiss,
    Comisd,
    Cvtsi2ss,
    Cvtsi2sd,
    Cvttss2si,
    Cvttsd2si,
    Cvtss2sd,
    Cvtsd2ss,
    Pxor,
    Xorps,
    Xorpd,
    // Prefetch hints.
    Prefetchnta,
    Prefetcht0,
    Prefetcht1,
    Prefetcht2,
    // Misc / barriers.
    Ud2,
    Int3,
    Hlt,
    Cpuid,
    Rdtsc,
    Mfence,
    Lfence,
    Sfence,
    Endbr64,
}

impl Mnemonic {
    /// Every opcode family, with the conditional families (`jcc`, `setcc`,
    /// `cmovcc`) represented once — the side-effect table collapses all
    /// condition codes into a single entry, so one representative suffices
    /// for coverage audits. Keep in sync with the enum above.
    pub const ALL: [Mnemonic; 86] = [
        Mnemonic::Mov,
        Mnemonic::Movabs,
        Mnemonic::Movsx,
        Mnemonic::Movzx,
        Mnemonic::Lea,
        Mnemonic::Xchg,
        Mnemonic::Push,
        Mnemonic::Pop,
        Mnemonic::Add,
        Mnemonic::Adc,
        Mnemonic::Sub,
        Mnemonic::Sbb,
        Mnemonic::And,
        Mnemonic::Or,
        Mnemonic::Xor,
        Mnemonic::Not,
        Mnemonic::Neg,
        Mnemonic::Inc,
        Mnemonic::Dec,
        Mnemonic::Cmp,
        Mnemonic::Test,
        Mnemonic::Imul,
        Mnemonic::Mul,
        Mnemonic::Idiv,
        Mnemonic::Div,
        Mnemonic::Shl,
        Mnemonic::Shr,
        Mnemonic::Sar,
        Mnemonic::Rol,
        Mnemonic::Ror,
        Mnemonic::Cltq,
        Mnemonic::Cltd,
        Mnemonic::Cqto,
        Mnemonic::Cwtl,
        Mnemonic::Jmp,
        Mnemonic::Jcc(Cond::E),
        Mnemonic::Call,
        Mnemonic::Ret,
        Mnemonic::Leave,
        Mnemonic::Setcc(Cond::E),
        Mnemonic::Cmovcc(Cond::E),
        Mnemonic::Nop,
        Mnemonic::Pause,
        Mnemonic::Movss,
        Mnemonic::Movsd,
        Mnemonic::Movaps,
        Mnemonic::Movapd,
        Mnemonic::Movups,
        Mnemonic::Movd,
        Mnemonic::Movdq,
        Mnemonic::Addss,
        Mnemonic::Addsd,
        Mnemonic::Subss,
        Mnemonic::Subsd,
        Mnemonic::Mulss,
        Mnemonic::Mulsd,
        Mnemonic::Divss,
        Mnemonic::Divsd,
        Mnemonic::Sqrtss,
        Mnemonic::Sqrtsd,
        Mnemonic::Ucomiss,
        Mnemonic::Ucomisd,
        Mnemonic::Comiss,
        Mnemonic::Comisd,
        Mnemonic::Cvtsi2ss,
        Mnemonic::Cvtsi2sd,
        Mnemonic::Cvttss2si,
        Mnemonic::Cvttsd2si,
        Mnemonic::Cvtss2sd,
        Mnemonic::Cvtsd2ss,
        Mnemonic::Pxor,
        Mnemonic::Xorps,
        Mnemonic::Xorpd,
        Mnemonic::Prefetchnta,
        Mnemonic::Prefetcht0,
        Mnemonic::Prefetcht1,
        Mnemonic::Prefetcht2,
        Mnemonic::Ud2,
        Mnemonic::Int3,
        Mnemonic::Hlt,
        Mnemonic::Cpuid,
        Mnemonic::Rdtsc,
        Mnemonic::Mfence,
        Mnemonic::Lfence,
        Mnemonic::Sfence,
        Mnemonic::Endbr64,
    ];

    /// Position of this mnemonic's family in [`Mnemonic::ALL`]: a dense
    /// index for per-mnemonic tables (the side-effect table, snapshot
    /// codes). Conditional families share their representative's slot.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Mnemonic::Mov => 0,
            Mnemonic::Movabs => 1,
            Mnemonic::Movsx => 2,
            Mnemonic::Movzx => 3,
            Mnemonic::Lea => 4,
            Mnemonic::Xchg => 5,
            Mnemonic::Push => 6,
            Mnemonic::Pop => 7,
            Mnemonic::Add => 8,
            Mnemonic::Adc => 9,
            Mnemonic::Sub => 10,
            Mnemonic::Sbb => 11,
            Mnemonic::And => 12,
            Mnemonic::Or => 13,
            Mnemonic::Xor => 14,
            Mnemonic::Not => 15,
            Mnemonic::Neg => 16,
            Mnemonic::Inc => 17,
            Mnemonic::Dec => 18,
            Mnemonic::Cmp => 19,
            Mnemonic::Test => 20,
            Mnemonic::Imul => 21,
            Mnemonic::Mul => 22,
            Mnemonic::Idiv => 23,
            Mnemonic::Div => 24,
            Mnemonic::Shl => 25,
            Mnemonic::Shr => 26,
            Mnemonic::Sar => 27,
            Mnemonic::Rol => 28,
            Mnemonic::Ror => 29,
            Mnemonic::Cltq => 30,
            Mnemonic::Cltd => 31,
            Mnemonic::Cqto => 32,
            Mnemonic::Cwtl => 33,
            Mnemonic::Jmp => 34,
            Mnemonic::Jcc(_) => 35,
            Mnemonic::Call => 36,
            Mnemonic::Ret => 37,
            Mnemonic::Leave => 38,
            Mnemonic::Setcc(_) => 39,
            Mnemonic::Cmovcc(_) => 40,
            Mnemonic::Nop => 41,
            Mnemonic::Pause => 42,
            Mnemonic::Movss => 43,
            Mnemonic::Movsd => 44,
            Mnemonic::Movaps => 45,
            Mnemonic::Movapd => 46,
            Mnemonic::Movups => 47,
            Mnemonic::Movd => 48,
            Mnemonic::Movdq => 49,
            Mnemonic::Addss => 50,
            Mnemonic::Addsd => 51,
            Mnemonic::Subss => 52,
            Mnemonic::Subsd => 53,
            Mnemonic::Mulss => 54,
            Mnemonic::Mulsd => 55,
            Mnemonic::Divss => 56,
            Mnemonic::Divsd => 57,
            Mnemonic::Sqrtss => 58,
            Mnemonic::Sqrtsd => 59,
            Mnemonic::Ucomiss => 60,
            Mnemonic::Ucomisd => 61,
            Mnemonic::Comiss => 62,
            Mnemonic::Comisd => 63,
            Mnemonic::Cvtsi2ss => 64,
            Mnemonic::Cvtsi2sd => 65,
            Mnemonic::Cvttss2si => 66,
            Mnemonic::Cvttsd2si => 67,
            Mnemonic::Cvtss2sd => 68,
            Mnemonic::Cvtsd2ss => 69,
            Mnemonic::Pxor => 70,
            Mnemonic::Xorps => 71,
            Mnemonic::Xorpd => 72,
            Mnemonic::Prefetchnta => 73,
            Mnemonic::Prefetcht0 => 74,
            Mnemonic::Prefetcht1 => 75,
            Mnemonic::Prefetcht2 => 76,
            Mnemonic::Ud2 => 77,
            Mnemonic::Int3 => 78,
            Mnemonic::Hlt => 79,
            Mnemonic::Cpuid => 80,
            Mnemonic::Rdtsc => 81,
            Mnemonic::Mfence => 82,
            Mnemonic::Lfence => 83,
            Mnemonic::Sfence => 84,
            Mnemonic::Endbr64 => 85,
        }
    }

    /// Is this an unconditional or conditional branch (`jmp`/`jcc`)?
    pub fn is_branch(self) -> bool {
        matches!(self, Mnemonic::Jmp | Mnemonic::Jcc(_))
    }

    /// Is this a conditional branch?
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Mnemonic::Jcc(_))
    }

    /// Does this mnemonic end a basic block (branch, call-return edge,
    /// return, trap)?
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            Mnemonic::Jmp
                | Mnemonic::Jcc(_)
                | Mnemonic::Call
                | Mnemonic::Ret
                | Mnemonic::Ud2
                | Mnemonic::Hlt
                | Mnemonic::Int3
        )
    }

    /// The condition code carried by `jcc`/`setcc`/`cmovcc`.
    pub fn cond(self) -> Option<Cond> {
        match self {
            Mnemonic::Jcc(c) | Mnemonic::Setcc(c) | Mnemonic::Cmovcc(c) => Some(c),
            _ => None,
        }
    }

    /// Stable numeric code for the binary IR snapshot format.
    ///
    /// Non-conditional mnemonics use their index in [`Mnemonic::ALL`]
    /// (append-only by convention; the snapshot version must be bumped if
    /// the order ever changes). Conditional families put the family in the
    /// high byte and the hardware condition nibble in the low byte, so every
    /// `(family, cond)` pair gets a distinct code.
    pub fn snapshot_code(self) -> u16 {
        match self {
            Mnemonic::Jcc(c) => 0x100 | u16::from(c.encoding()),
            Mnemonic::Setcc(c) => 0x200 | u16::from(c.encoding()),
            Mnemonic::Cmovcc(c) => 0x300 | u16::from(c.encoding()),
            other => other.index() as u16,
        }
    }

    /// Inverse of [`Mnemonic::snapshot_code`].
    pub fn from_snapshot_code(code: u16) -> Option<Mnemonic> {
        let cond = |code: u16| Cond::ALL.get((code & 0xff) as usize).copied();
        match code & 0xff00 {
            0x100 => cond(code).map(Mnemonic::Jcc),
            0x200 => cond(code).map(Mnemonic::Setcc),
            0x300 => cond(code).map(Mnemonic::Cmovcc),
            0x000 => Mnemonic::ALL
                .get(code as usize)
                .copied()
                .filter(|m| m.cond().is_none()),
            _ => None,
        }
    }

    /// Replace the condition code of a conditional mnemonic.
    pub fn with_cond(self, c: Cond) -> Mnemonic {
        match self {
            Mnemonic::Jcc(_) => Mnemonic::Jcc(c),
            Mnemonic::Setcc(_) => Mnemonic::Setcc(c),
            Mnemonic::Cmovcc(_) => Mnemonic::Cmovcc(c),
            other => other,
        }
    }

    /// The AT&T base name, without size suffixes but including the condition
    /// code for conditional mnemonics.
    pub fn att_base(self) -> &'static str {
        match self {
            Mnemonic::Jcc(c) => JCC_NAMES[c as usize],
            Mnemonic::Setcc(c) => SETCC_NAMES[c as usize],
            Mnemonic::Cmovcc(c) => CMOVCC_NAMES[c as usize],
            other => fixed_name(other),
        }
    }

    /// Does this mnemonic take an AT&T operand-size suffix (`b`/`w`/`l`/`q`)?
    pub fn takes_size_suffix(self) -> bool {
        matches!(
            self,
            Mnemonic::Mov
                | Mnemonic::Movabs
                | Mnemonic::Xchg
                | Mnemonic::Push
                | Mnemonic::Pop
                | Mnemonic::Add
                | Mnemonic::Adc
                | Mnemonic::Sub
                | Mnemonic::Sbb
                | Mnemonic::And
                | Mnemonic::Or
                | Mnemonic::Xor
                | Mnemonic::Not
                | Mnemonic::Neg
                | Mnemonic::Inc
                | Mnemonic::Dec
                | Mnemonic::Cmp
                | Mnemonic::Test
                | Mnemonic::Imul
                | Mnemonic::Mul
                | Mnemonic::Idiv
                | Mnemonic::Div
                | Mnemonic::Shl
                | Mnemonic::Shr
                | Mnemonic::Sar
                | Mnemonic::Rol
                | Mnemonic::Ror
                | Mnemonic::Lea
                | Mnemonic::Nop
                | Mnemonic::Cmovcc(_)
        )
    }
}

/// Result of parsing an AT&T mnemonic string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedMnemonic {
    /// The opcode family.
    pub mnemonic: Mnemonic,
    /// Explicit operand (destination) width from the suffix, if any.
    pub op_width: Option<Width>,
    /// Explicit source width (only for `movsx`/`movzx`, whose AT&T suffix
    /// carries two widths, e.g. `movsbl` = byte -> long).
    pub src_width: Option<Width>,
}

impl ParsedMnemonic {
    fn plain(mnemonic: Mnemonic) -> ParsedMnemonic {
        ParsedMnemonic {
            mnemonic,
            op_width: None,
            src_width: None,
        }
    }
}

/// `j<cc>` spellings, indexed by [`Cond`] encoding (see [`Cond::ALL`]).
const JCC_NAMES: [&str; 16] = [
    "jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja", "js", "jns", "jp", "jnp", "jl", "jge",
    "jle", "jg",
];

/// `set<cc>` spellings, indexed by [`Cond`] encoding.
const SETCC_NAMES: [&str; 16] = [
    "seto", "setno", "setb", "setae", "sete", "setne", "setbe", "seta", "sets", "setns", "setp",
    "setnp", "setl", "setge", "setle", "setg",
];

/// `cmov<cc>` spellings, indexed by [`Cond`] encoding.
const CMOVCC_NAMES: [&str; 16] = [
    "cmovo", "cmovno", "cmovb", "cmovae", "cmove", "cmovne", "cmovbe", "cmova", "cmovs", "cmovns",
    "cmovp", "cmovnp", "cmovl", "cmovge", "cmovle", "cmovg",
];

pub(crate) fn fixed_name(m: Mnemonic) -> &'static str {
    match m {
        Mnemonic::Mov => "mov",
        Mnemonic::Movabs => "movabs",
        Mnemonic::Movsx => "movs",
        Mnemonic::Movzx => "movz",
        Mnemonic::Lea => "lea",
        Mnemonic::Xchg => "xchg",
        Mnemonic::Push => "push",
        Mnemonic::Pop => "pop",
        Mnemonic::Add => "add",
        Mnemonic::Adc => "adc",
        Mnemonic::Sub => "sub",
        Mnemonic::Sbb => "sbb",
        Mnemonic::And => "and",
        Mnemonic::Or => "or",
        Mnemonic::Xor => "xor",
        Mnemonic::Not => "not",
        Mnemonic::Neg => "neg",
        Mnemonic::Inc => "inc",
        Mnemonic::Dec => "dec",
        Mnemonic::Cmp => "cmp",
        Mnemonic::Test => "test",
        Mnemonic::Imul => "imul",
        Mnemonic::Mul => "mul",
        Mnemonic::Idiv => "idiv",
        Mnemonic::Div => "div",
        Mnemonic::Shl => "shl",
        Mnemonic::Shr => "shr",
        Mnemonic::Sar => "sar",
        Mnemonic::Rol => "rol",
        Mnemonic::Ror => "ror",
        Mnemonic::Cltq => "cltq",
        Mnemonic::Cltd => "cltd",
        Mnemonic::Cqto => "cqto",
        Mnemonic::Cwtl => "cwtl",
        Mnemonic::Jmp => "jmp",
        Mnemonic::Call => "call",
        Mnemonic::Ret => "ret",
        Mnemonic::Leave => "leave",
        Mnemonic::Nop => "nop",
        Mnemonic::Pause => "pause",
        Mnemonic::Movss => "movss",
        Mnemonic::Movsd => "movsd",
        Mnemonic::Movaps => "movaps",
        Mnemonic::Movapd => "movapd",
        Mnemonic::Movups => "movups",
        Mnemonic::Movd => "movd",
        Mnemonic::Movdq => "movq",
        Mnemonic::Addss => "addss",
        Mnemonic::Addsd => "addsd",
        Mnemonic::Subss => "subss",
        Mnemonic::Subsd => "subsd",
        Mnemonic::Mulss => "mulss",
        Mnemonic::Mulsd => "mulsd",
        Mnemonic::Divss => "divss",
        Mnemonic::Divsd => "divsd",
        Mnemonic::Sqrtss => "sqrtss",
        Mnemonic::Sqrtsd => "sqrtsd",
        Mnemonic::Ucomiss => "ucomiss",
        Mnemonic::Ucomisd => "ucomisd",
        Mnemonic::Comiss => "comiss",
        Mnemonic::Comisd => "comisd",
        Mnemonic::Cvtsi2ss => "cvtsi2ss",
        Mnemonic::Cvtsi2sd => "cvtsi2sd",
        Mnemonic::Cvttss2si => "cvttss2si",
        Mnemonic::Cvttsd2si => "cvttsd2si",
        Mnemonic::Cvtss2sd => "cvtss2sd",
        Mnemonic::Cvtsd2ss => "cvtsd2ss",
        Mnemonic::Pxor => "pxor",
        Mnemonic::Xorps => "xorps",
        Mnemonic::Xorpd => "xorpd",
        Mnemonic::Prefetchnta => "prefetchnta",
        Mnemonic::Prefetcht0 => "prefetcht0",
        Mnemonic::Prefetcht1 => "prefetcht1",
        Mnemonic::Prefetcht2 => "prefetcht2",
        Mnemonic::Ud2 => "ud2",
        Mnemonic::Int3 => "int3",
        Mnemonic::Hlt => "hlt",
        Mnemonic::Cpuid => "cpuid",
        Mnemonic::Rdtsc => "rdtsc",
        Mnemonic::Mfence => "mfence",
        Mnemonic::Lfence => "lfence",
        Mnemonic::Sfence => "sfence",
        Mnemonic::Endbr64 => "endbr64",
        Mnemonic::Jcc(_) | Mnemonic::Setcc(_) | Mnemonic::Cmovcc(_) => {
            unreachable!("conditional mnemonics have no fixed name")
        }
    }
}

/// Mnemonics that exist only without a size suffix (exact-match table).
/// Checked *before* suffix stripping so that e.g. `call` is not parsed as
/// `cal` + `l`, or `movsd` as `movs` + `d`.
fn exact_table(name: &str) -> Option<Mnemonic> {
    Some(match name {
        "movabs" => Mnemonic::Movabs,
        "lea" => Mnemonic::Lea,
        "call" | "callq" => Mnemonic::Call,
        "jmpq" => Mnemonic::Jmp,
        "ret" | "retq" => Mnemonic::Ret,
        "leave" | "leaveq" => Mnemonic::Leave,
        "jmp" => Mnemonic::Jmp,
        "cltq" | "cdqe" => Mnemonic::Cltq,
        "cltd" | "cdq" => Mnemonic::Cltd,
        "cqto" | "cqo" => Mnemonic::Cqto,
        "cwtl" | "cwde" => Mnemonic::Cwtl,
        "nop" => Mnemonic::Nop,
        "pause" => Mnemonic::Pause,
        "movss" => Mnemonic::Movss,
        "movsd" => Mnemonic::Movsd,
        "movaps" => Mnemonic::Movaps,
        "movapd" => Mnemonic::Movapd,
        "movups" => Mnemonic::Movups,
        "movd" => Mnemonic::Movd,
        "addss" => Mnemonic::Addss,
        "addsd" => Mnemonic::Addsd,
        "subss" => Mnemonic::Subss,
        "subsd" => Mnemonic::Subsd,
        "mulss" => Mnemonic::Mulss,
        "mulsd" => Mnemonic::Mulsd,
        "divss" => Mnemonic::Divss,
        "divsd" => Mnemonic::Divsd,
        "sqrtss" => Mnemonic::Sqrtss,
        "sqrtsd" => Mnemonic::Sqrtsd,
        "ucomiss" => Mnemonic::Ucomiss,
        "ucomisd" => Mnemonic::Ucomisd,
        "comiss" => Mnemonic::Comiss,
        "comisd" => Mnemonic::Comisd,
        "cvtss2sd" => Mnemonic::Cvtss2sd,
        "cvtsd2ss" => Mnemonic::Cvtsd2ss,
        "pxor" => Mnemonic::Pxor,
        "xorps" => Mnemonic::Xorps,
        "xorpd" => Mnemonic::Xorpd,
        "prefetchnta" => Mnemonic::Prefetchnta,
        "prefetcht0" => Mnemonic::Prefetcht0,
        "prefetcht1" => Mnemonic::Prefetcht1,
        "prefetcht2" => Mnemonic::Prefetcht2,
        "ud2" => Mnemonic::Ud2,
        "int3" => Mnemonic::Int3,
        "hlt" => Mnemonic::Hlt,
        "cpuid" => Mnemonic::Cpuid,
        "rdtsc" => Mnemonic::Rdtsc,
        "mfence" => Mnemonic::Mfence,
        "lfence" => Mnemonic::Lfence,
        "sfence" => Mnemonic::Sfence,
        "endbr64" => Mnemonic::Endbr64,
        _ => return None,
    })
}

/// Base mnemonics that accept an optional `b`/`w`/`l`/`q` size suffix.
fn suffixed_table(base: &str) -> Option<Mnemonic> {
    Some(match base {
        "mov" => Mnemonic::Mov,
        "xchg" => Mnemonic::Xchg,
        "push" => Mnemonic::Push,
        "pop" => Mnemonic::Pop,
        "add" => Mnemonic::Add,
        "adc" => Mnemonic::Adc,
        "sub" => Mnemonic::Sub,
        "sbb" => Mnemonic::Sbb,
        "and" => Mnemonic::And,
        "or" => Mnemonic::Or,
        "xor" => Mnemonic::Xor,
        "not" => Mnemonic::Not,
        "neg" => Mnemonic::Neg,
        "inc" => Mnemonic::Inc,
        "dec" => Mnemonic::Dec,
        "cmp" => Mnemonic::Cmp,
        "test" => Mnemonic::Test,
        "imul" => Mnemonic::Imul,
        "mul" => Mnemonic::Mul,
        "idiv" => Mnemonic::Idiv,
        "div" => Mnemonic::Div,
        "shl" | "sal" => Mnemonic::Shl,
        "shr" => Mnemonic::Shr,
        "sar" => Mnemonic::Sar,
        "rol" => Mnemonic::Rol,
        "ror" => Mnemonic::Ror,
        "lea" => Mnemonic::Lea,
        "nop" => Mnemonic::Nop,
        "movabs" => Mnemonic::Movabs,
        "cvtsi2ss" => Mnemonic::Cvtsi2ss,
        "cvtsi2sd" => Mnemonic::Cvtsi2sd,
        "cvttss2si" => Mnemonic::Cvttss2si,
        "cvttsd2si" => Mnemonic::Cvttsd2si,
        _ => return None,
    })
}

/// Parse an AT&T mnemonic string into its opcode family and explicit widths.
///
/// Returns `None` for mnemonics outside the supported subset.
///
/// # Examples
///
/// ```
/// use mao_x86::mnemonic::{parse_mnemonic, Mnemonic};
/// use mao_x86::reg::Width;
///
/// let p = parse_mnemonic("movsbl").unwrap();
/// assert_eq!(p.mnemonic, Mnemonic::Movsx);
/// assert_eq!(p.src_width, Some(Width::B1));
/// assert_eq!(p.op_width, Some(Width::B4));
/// ```
pub fn parse_mnemonic(name: &str) -> Option<ParsedMnemonic> {
    // Fast front table: common spellings resolve with one hash probe over
    // the name packed into a u64. The table memoizes the probe chain below
    // (it is built by calling it), so the two can never disagree; misses
    // fall through to the full chain.
    if let Some(v) = pack_mnemonic(name.as_bytes()) {
        let table = mnemonic_fast_table();
        let mut slot = mnemonic_slot(v);
        loop {
            let (k, p) = table[slot];
            if k == v {
                return Some(p);
            }
            if k == 0 {
                break;
            }
            slot = (slot + 1) % MNEMONIC_FAST_SLOTS;
        }
    }
    parse_mnemonic_uncached(name)
}

/// Spellings memoized in the fast front table: everything a compiler emits
/// at volume. Unknown or rare spellings just miss into the full chain.
const COMMON_SPELLINGS: &[&str] = &[
    "mov", "movq", "movl", "movw", "movb", "movabsq", "lea", "leaq", "leal", "add", "addq", "addl",
    "addw", "addb", "sub", "subq", "subl", "subw", "subb", "imul", "imulq", "imull", "mulq",
    "mull", "idivq", "idivl", "divq", "divl", "and", "andq", "andl", "andb", "or", "orq", "orl",
    "orb", "xor", "xorq", "xorl", "xorb", "not", "notq", "notl", "neg", "negq", "negl", "inc",
    "incq", "incl", "dec", "decq", "decl", "shl", "shlq", "shll", "shr", "shrq", "shrl", "sar",
    "sarq", "sarl", "sal", "salq", "sall", "rol", "rolq", "ror", "rorq", "cmp", "cmpq", "cmpl",
    "cmpw", "cmpb", "test", "testq", "testl", "testw", "testb", "push", "pushq", "pop", "popq",
    "call", "ret", "leave", "nop", "jmp", "je", "jne", "jz", "jnz", "jg", "jge", "jl", "jle", "ja",
    "jae", "jb", "jbe", "js", "jns", "jo", "jno", "jc", "jnc", "sete", "setne", "setg", "setge",
    "setl", "setle", "seta", "setae", "setb", "setbe", "cmove", "cmovne", "cmovg", "cmovge",
    "cmovl", "cmovle", "cmova", "cmovb", "movzbl", "movzbq", "movzwl", "movzwq", "movsbl",
    "movsbq", "movswl", "movswq", "movslq", "cltq", "cqto", "cdq", "cwtl",
];

const MNEMONIC_FAST_SLOTS: usize = 512;

/// Pack a ≤8-byte spelling into a nonzero u64 key.
#[inline]
fn pack_mnemonic(b: &[u8]) -> Option<u64> {
    if b.is_empty() || b.len() > 8 {
        return None;
    }
    let mut v = 0u64;
    for (i, &c) in b.iter().enumerate() {
        v |= u64::from(c) << (8 * i as u32);
    }
    Some(v)
}

#[inline]
fn mnemonic_slot(v: u64) -> usize {
    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55) as usize % MNEMONIC_FAST_SLOTS
}

static MNEMONIC_FAST: std::sync::OnceLock<[(u64, ParsedMnemonic); MNEMONIC_FAST_SLOTS]> =
    std::sync::OnceLock::new();

fn mnemonic_fast_table() -> &'static [(u64, ParsedMnemonic); MNEMONIC_FAST_SLOTS] {
    MNEMONIC_FAST.get_or_init(|| {
        let nil = ParsedMnemonic::plain(Mnemonic::Nop);
        let mut t = [(0u64, nil); MNEMONIC_FAST_SLOTS];
        for &name in COMMON_SPELLINGS {
            // Memoize the full chain's answer; spellings it rejects are
            // simply not cached.
            let Some(parsed) = parse_mnemonic_uncached(name) else {
                continue;
            };
            let v = pack_mnemonic(name.as_bytes()).expect("common spelling fits in 8 bytes");
            let mut slot = mnemonic_slot(v);
            while t[slot].0 != 0 {
                slot = (slot + 1) % MNEMONIC_FAST_SLOTS;
            }
            t[slot] = (v, parsed);
        }
        t
    })
}

fn parse_mnemonic_uncached(name: &str) -> Option<ParsedMnemonic> {
    // 1. Exact-match (unsuffixed) mnemonics, including the SSE family whose
    //    trailing letters look like size suffixes.
    if let Some(m) = exact_table(name) {
        return Some(ParsedMnemonic::plain(m));
    }

    // 2. Conditional families: jcc / setcc / cmovcc[suffix].
    if let Some(rest) = name.strip_prefix('j') {
        if let Some(c) = Cond::from_att_suffix(rest) {
            return Some(ParsedMnemonic::plain(Mnemonic::Jcc(c)));
        }
    }
    if let Some(rest) = name.strip_prefix("set") {
        if let Some(c) = Cond::from_att_suffix(rest) {
            return Some(ParsedMnemonic {
                mnemonic: Mnemonic::Setcc(c),
                op_width: Some(Width::B1),
                src_width: None,
            });
        }
    }
    if let Some(rest) = name.strip_prefix("cmov") {
        if let Some(c) = Cond::from_att_suffix(rest) {
            return Some(ParsedMnemonic::plain(Mnemonic::Cmovcc(c)));
        }
        // cmov with trailing size suffix, e.g. `cmovnel`.
        let mut chars = rest.chars();
        if let Some(last) = chars.next_back() {
            if let Some(w) = Width::from_att_suffix(last) {
                if let Some(c) = Cond::from_att_suffix(chars.as_str()) {
                    return Some(ParsedMnemonic {
                        mnemonic: Mnemonic::Cmovcc(c),
                        op_width: Some(w),
                        src_width: None,
                    });
                }
            }
        }
    }

    // 3. movs/movz two-width extension moves (movsbl, movzwq, movslq, ...).
    for (prefix, mnemonic) in [("movs", Mnemonic::Movsx), ("movz", Mnemonic::Movzx)] {
        if let Some(rest) = name.strip_prefix(prefix) {
            let mut chars = rest.chars();
            if let (Some(a), Some(b), None) = (chars.next(), chars.next(), chars.next()) {
                if let (Some(from), Some(to)) =
                    (Width::from_att_suffix(a), Width::from_att_suffix(b))
                {
                    if from < to {
                        return Some(ParsedMnemonic {
                            mnemonic,
                            op_width: Some(to),
                            src_width: Some(from),
                        });
                    }
                }
            }
        }
    }
    if name == "movsxd" {
        return Some(ParsedMnemonic {
            mnemonic: Mnemonic::Movsx,
            op_width: Some(Width::B8),
            src_width: Some(Width::B4),
        });
    }

    // 4. Suffix-stripped base mnemonics.
    let mut chars = name.chars();
    if let Some(last) = chars.next_back() {
        if let Some(w) = Width::from_att_suffix(last) {
            if let Some(m) = suffixed_table(chars.as_str()) {
                return Some(ParsedMnemonic {
                    mnemonic: m,
                    op_width: Some(w),
                    src_width: None,
                });
            }
        }
    }

    // 5. Bare (unsuffixed) base mnemonics: width inferred from operands.
    suffixed_table(name).map(ParsedMnemonic::plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `index` is the position in `ALL`, for every condition code of the
    /// conditional families too.
    #[test]
    fn index_is_the_position_in_all() {
        for (i, m) in Mnemonic::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?}");
            for c in Cond::ALL {
                assert_eq!(m.with_cond(c).index(), i, "{m:?} with {c:?}");
            }
        }
    }

    #[test]
    fn suffixed_alu() {
        let p = parse_mnemonic("addl").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Add);
        assert_eq!(p.op_width, Some(Width::B4));
        let p = parse_mnemonic("subq").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Sub);
        assert_eq!(p.op_width, Some(Width::B8));
        let p = parse_mnemonic("sall").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Shl);
    }

    #[test]
    fn bare_mnemonics() {
        assert_eq!(parse_mnemonic("add").unwrap().op_width, None);
        assert_eq!(parse_mnemonic("mov").unwrap().mnemonic, Mnemonic::Mov);
    }

    #[test]
    fn call_not_suffix_stripped() {
        assert_eq!(parse_mnemonic("call").unwrap().mnemonic, Mnemonic::Call);
        assert_eq!(parse_mnemonic("callq").unwrap().mnemonic, Mnemonic::Call);
    }

    #[test]
    fn callq_suffix() {
        // gas prints `callq`/`retq` in 64-bit mode.
        assert!(parse_mnemonic("retq").is_some());
    }

    #[test]
    fn sse_not_suffix_stripped() {
        assert_eq!(parse_mnemonic("movsd").unwrap().mnemonic, Mnemonic::Movsd);
        assert_eq!(parse_mnemonic("movss").unwrap().mnemonic, Mnemonic::Movss);
        assert_eq!(parse_mnemonic("addsd").unwrap().mnemonic, Mnemonic::Addsd);
    }

    #[test]
    fn extension_moves() {
        let p = parse_mnemonic("movzbl").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Movzx);
        assert_eq!(p.src_width, Some(Width::B1));
        assert_eq!(p.op_width, Some(Width::B4));
        let p = parse_mnemonic("movslq").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Movsx);
        assert_eq!(p.src_width, Some(Width::B4));
        assert_eq!(p.op_width, Some(Width::B8));
        // Narrowing "extension" is invalid.
        assert!(parse_mnemonic("movzlb").is_none());
    }

    #[test]
    fn conditional_families() {
        assert_eq!(
            parse_mnemonic("jne").unwrap().mnemonic,
            Mnemonic::Jcc(Cond::Ne)
        );
        assert_eq!(
            parse_mnemonic("jz").unwrap().mnemonic,
            Mnemonic::Jcc(Cond::E)
        );
        let p = parse_mnemonic("sete").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Setcc(Cond::E));
        assert_eq!(p.op_width, Some(Width::B1));
        assert_eq!(
            parse_mnemonic("cmovge").unwrap().mnemonic,
            Mnemonic::Cmovcc(Cond::Ge)
        );
        let p = parse_mnemonic("cmovnel").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Cmovcc(Cond::Ne));
        assert_eq!(p.op_width, Some(Width::B4));
    }

    #[test]
    fn jmp_is_not_jcc() {
        assert_eq!(parse_mnemonic("jmp").unwrap().mnemonic, Mnemonic::Jmp);
    }

    #[test]
    fn nop_with_suffix() {
        let p = parse_mnemonic("nopw").unwrap();
        assert_eq!(p.mnemonic, Mnemonic::Nop);
        assert_eq!(p.op_width, Some(Width::B2));
    }

    #[test]
    fn unknown_rejected() {
        assert!(parse_mnemonic("frobnicate").is_none());
        assert!(parse_mnemonic("").is_none());
    }

    #[test]
    fn att_base_names() {
        assert_eq!(Mnemonic::Jcc(Cond::Ne).att_base(), "jne");
        assert_eq!(Mnemonic::Setcc(Cond::G).att_base(), "setg");
        assert_eq!(Mnemonic::Add.att_base(), "add");
        assert_eq!(Mnemonic::Cmovcc(Cond::L).att_base(), "cmovl");
    }

    #[test]
    fn conditional_spellings_follow_the_suffix_table() {
        for c in Cond::ALL {
            let suffix = c.att_suffix();
            assert_eq!(Mnemonic::Jcc(c).att_base(), format!("j{suffix}"));
            assert_eq!(Mnemonic::Setcc(c).att_base(), format!("set{suffix}"));
            assert_eq!(Mnemonic::Cmovcc(c).att_base(), format!("cmov{suffix}"));
        }
    }

    #[test]
    fn cond_accessors() {
        assert_eq!(Mnemonic::Jcc(Cond::E).cond(), Some(Cond::E));
        assert_eq!(Mnemonic::Add.cond(), None);
        assert_eq!(
            Mnemonic::Jcc(Cond::E).with_cond(Cond::Ne),
            Mnemonic::Jcc(Cond::Ne)
        );
    }
}
