//! The core↔ISA boundary for the MAO reproduction.
//!
//! Everything above this crate (`mao-asm`, `mao` core, the passes, the
//! relaxer, `maod`, `mao check`) talks to instruction sets through the
//! types defined here; everything below it (`mao-x86`, `mao-aarch64`)
//! supplies one concrete instantiation each. The boundary has two faces,
//! chosen to match how the callers actually use it:
//!
//! * **Static dispatch on [`Insn`]** for the hot paths. Fragment
//!   relaxation and the pass pipeline iterate millions of instructions;
//!   a vtable call per encoded-length query would show up in the
//!   per-pass and relaxation times of the `bench_e2e` ledger. The neutral
//!   [`Insn`] enum keeps those
//!   call sites monomorphic — the x86 arm compiles to exactly the code
//!   that existed before the refactor, which is what makes the
//!   byte-identical bar attainable.
//!
//! * **Dynamic dispatch on [`Isa`]** for the cold paths: front-end
//!   parsing hooks, NOP/padding synthesis, alignment policy, cost-model
//!   binding. These run once per statement (or once per unit), so a
//!   `&'static dyn Isa` handle is free, and dyn-safety keeps the trait
//!   usable from registries that store heterogeneous ISAs (the
//!   extension-pass registry, maod's per-request ISA selection).
//!
//! Adding a third ISA means: write a crate shaped like `mao-aarch64`,
//! add an [`IsaId`] variant + an [`Insn`] arm, implement [`Isa`], and
//! register it in [`isa()`]. DESIGN.md §15 walks through it.

pub mod container;

use std::fmt;

/// Re-export of the x86-64 model. Core crates import x86 types through
/// here (`mao::isa::x86::...`) so that `mao_x86` never appears as a
/// direct dependency of pass/relaxation code.
pub mod x86 {
    pub use mao_x86::*;
}

/// Re-export of the AArch64 model, same contract as [`x86`].
pub mod aarch64 {
    pub use mao_aarch64::*;
}

pub use mao_x86::encode::BranchForm;
pub use mao_x86::sym::Sym;

/// The worker count to run with, for a parallel parse and the
/// function-level pass driver alike: `jobs`, capped at the host's
/// available parallelism, which `jobs == 0` (auto) resolves to. Output is
/// byte-identical at any job count, so more workers than cores would only
/// start threads; every caller, trusted or not, gets the same cap here.
pub fn effective_jobs(jobs: usize) -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let host = *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    match jobs {
        0 => host,
        jobs => jobs.min(host),
    }
}

/// Identifies an instruction set architecture.
///
/// The numeric `tag` values are stable on-disk identifiers: they appear
/// in the snapshot container header (v2), the layout-cache `.ml` frames
/// (v2), and drive `.mpt` provenance matching. Never renumber them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IsaId {
    /// The founding instantiation; also the default for legacy inputs
    /// (v1 snapshots, `.mpt` tables without provenance) that predate the
    /// ISA tag.
    #[default]
    X86_64,
    Aarch64,
}

impl IsaId {
    /// Every supported ISA, in tag order.
    pub const ALL: [IsaId; 2] = [IsaId::X86_64, IsaId::Aarch64];

    /// Canonical lowercase name, as accepted by `--isa` and emitted in
    /// stats / provenance.
    pub fn name(self) -> &'static str {
        match self {
            IsaId::X86_64 => "x86-64",
            IsaId::Aarch64 => "aarch64",
        }
    }

    /// Parse a user-supplied ISA name. Accepts the canonical names plus
    /// common aliases (`x86_64`, `amd64`, `arm64`).
    pub fn from_name(name: &str) -> Option<IsaId> {
        match name.trim().to_ascii_lowercase().as_str() {
            "x86-64" | "x86_64" | "x86" | "amd64" => Some(IsaId::X86_64),
            "aarch64" | "arm64" | "a64" => Some(IsaId::Aarch64),
            _ => None,
        }
    }

    /// Stable on-disk tag (snapshot header, layout frames).
    pub fn tag(self) -> u32 {
        match self {
            IsaId::X86_64 => 1,
            IsaId::Aarch64 => 2,
        }
    }

    /// Inverse of [`IsaId::tag`].
    pub fn from_tag(tag: u32) -> Option<IsaId> {
        match tag {
            1 => Some(IsaId::X86_64),
            2 => Some(IsaId::Aarch64),
            _ => None,
        }
    }
}

impl fmt::Display for IsaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An instruction from any supported ISA.
///
/// Hot paths match on this enum directly (static dispatch); the x86 arm
/// is the dominant case and stays monomorphic. Code that only ever
/// handles x86 keeps working through [`Insn::x86`] — entries from other
/// ISAs simply fall outside its view.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Insn {
    X86(mao_x86::Instruction),
    A64(mao_aarch64::A64Insn),
}

impl Insn {
    /// Which ISA this instruction belongs to.
    pub fn isa(&self) -> IsaId {
        match self {
            Insn::X86(_) => IsaId::X86_64,
            Insn::A64(_) => IsaId::Aarch64,
        }
    }

    /// The x86 instruction, if this is one.
    pub fn x86(&self) -> Option<&mao_x86::Instruction> {
        match self {
            Insn::X86(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable access to the x86 instruction, if this is one.
    pub fn x86_mut(&mut self) -> Option<&mut mao_x86::Instruction> {
        match self {
            Insn::X86(i) => Some(i),
            _ => None,
        }
    }

    /// The AArch64 instruction, if this is one.
    pub fn a64(&self) -> Option<&mao_aarch64::A64Insn> {
        match self {
            Insn::A64(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable access to the AArch64 instruction, if this is one.
    pub fn a64_mut(&mut self) -> Option<&mut mao_aarch64::A64Insn> {
        match self {
            Insn::A64(i) => Some(i),
            _ => None,
        }
    }

    /// The label this instruction branches or calls to, if any.
    pub fn target_label(&self) -> Option<&str> {
        match self {
            Insn::X86(i) => i.target_label(),
            Insn::A64(i) => i.target_label().map(|s| s.as_str()),
        }
    }

    /// [`Insn::target_label`] as its interned symbol.
    pub fn target_sym(&self) -> Option<Sym> {
        match self {
            Insn::X86(i) => i.target_sym(),
            Insn::A64(i) => i.target_label(),
        }
    }

    /// Is this a no-op?
    pub fn is_nop(&self) -> bool {
        match self {
            Insn::X86(i) => i.is_nop(),
            Insn::A64(i) => i.is_nop(),
        }
    }

    /// Is this a branch (conditional or not, excluding calls/returns)?
    pub fn is_branch(&self) -> bool {
        match self {
            Insn::X86(i) => i.mnemonic.is_branch(),
            Insn::A64(i) => i.mnemonic.is_branch(),
        }
    }

    /// Does this instruction end or redirect control flow?
    pub fn is_control_flow(&self) -> bool {
        match self {
            Insn::X86(i) => i.mnemonic.is_control_flow(),
            Insn::A64(i) => i.mnemonic.is_control_flow(),
        }
    }

    /// Is this a call (`call` / `bl`)? Calls redirect control flow but fall
    /// through for basic-block purposes.
    pub fn is_call(&self) -> bool {
        match self {
            Insn::X86(i) => i.mnemonic == mao_x86::Mnemonic::Call,
            Insn::A64(i) => i.mnemonic == mao_aarch64::A64Mnemonic::Bl,
        }
    }
}

impl From<mao_x86::Instruction> for Insn {
    fn from(i: mao_x86::Instruction) -> Insn {
        Insn::X86(i)
    }
}

impl From<mao_aarch64::A64Insn> for Insn {
    fn from(i: mao_aarch64::A64Insn) -> Insn {
        Insn::A64(i)
    }
}

impl Insn {
    /// Append the instruction's assembly spelling (the emitter's one path).
    pub fn write_text(&self, out: &mut String) {
        match self {
            Insn::X86(i) => i.write_text(out),
            Insn::A64(i) => i.write_text(out),
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        mao_x86::text::display_via(f, |out| self.write_text(out))
    }
}

/// Encoded length of `insn` in bytes under branch form `form`.
///
/// Static-dispatch hot-path helper: the relaxer calls this in its fixed
/// point. On A64 every instruction is 4 bytes and `form` is ignored.
pub fn encoded_length(insn: &Insn, form: BranchForm) -> Result<usize, mao_x86::EncodeError> {
    match insn {
        Insn::X86(i) => mao_x86::encode::encoded_length(i, form),
        Insn::A64(i) => Ok(i.encoded_length() as usize),
    }
}

/// `(short, near)` encoded lengths for a branch that relaxation may
/// rewrite. On A64 both forms are the fixed 4-byte width, so the fixed
/// point converges immediately.
pub fn branch_lengths(insn: &Insn) -> Result<(u32, u32), mao_x86::EncodeError> {
    match insn {
        Insn::X86(i) => mao_x86::encode::branch_lengths(i),
        Insn::A64(i) => {
            let n = i.encoded_length();
            Ok((n, n))
        }
    }
}

/// Does `insn` have distinct short/near branch encodings the relaxer can
/// choose between? Always false on fixed-width ISAs.
pub fn relaxable_branch(insn: &Insn) -> bool {
    match insn {
        // `jmp`/`jcc` to a label; `call` always encodes `rel32` and is
        // fixed-size, and indirect/external targets have no short form.
        Insn::X86(i) => i.mnemonic.is_branch() && i.target_label().is_some(),
        Insn::A64(_) => false,
    }
}

/// ISA-neutral summary of an instruction's side effects — the subset the
/// generic passes need (full per-register def/use stays ISA-specific).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Writes condition flags (EFLAGS / NZCV).
    pub defs_flags: bool,
    /// Reads condition flags.
    pub uses_flags: bool,
    /// May read memory.
    pub mem_read: bool,
    /// May write memory.
    pub mem_write: bool,
}

/// Effects summary for any instruction; data-table-backed on both ISAs.
pub fn effect_summary(insn: &Insn) -> EffectSummary {
    match insn {
        Insn::X86(i) => {
            let du = mao_x86::effects::def_use(i);
            EffectSummary {
                defs_flags: !du.flags_killed().is_empty(),
                uses_flags: !du.flags_use.is_empty(),
                mem_read: du.mem_read || du.barrier,
                mem_write: du.mem_write || du.barrier,
            }
        }
        Insn::A64(i) => {
            let e = i.effects();
            EffectSummary {
                defs_flags: e.defs_nzcv,
                uses_flags: e.uses_nzcv,
                mem_read: e.mem_read,
                mem_write: e.mem_write,
            }
        }
    }
}

/// Alignment and padding rules, expressed as parameters rather than
/// hardcoded in the relaxer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlignPolicy {
    /// Smallest unit the assembler may place an instruction on. 1 on
    /// x86; 4 on A64 (instructions must be word-aligned).
    pub insn_alignment: u32,
    /// Longest single padding instruction the ISA offers (multi-byte
    /// NOP on x86, one NOP word on A64).
    pub max_nop_unit: u32,
    /// Loop-top alignment the micro-architectural passes target.
    pub preferred_loop_align: u32,
}

/// Errors from ISA-boundary operations (parsing, padding synthesis).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsaError {
    /// The statement could not be parsed as an instruction of this ISA.
    Parse(String),
    /// The requested padding length is unrepresentable (e.g. not a
    /// multiple of 4 on A64).
    BadPadding { requested: usize },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::Parse(msg) => write!(f, "parse error: {msg}"),
            IsaError::BadPadding { requested } => {
                write!(f, "cannot synthesize {requested} byte(s) of padding")
            }
        }
    }
}

impl std::error::Error for IsaError {}

/// The dyn-safe ISA vtable: parsing hooks, padding synthesis, alignment
/// policy, and cost-model binding. One `&'static dyn Isa` per ISA,
/// obtained from [`isa()`].
pub trait Isa: Send + Sync {
    /// Which ISA this is.
    fn id(&self) -> IsaId;

    /// Canonical name (same as `self.id().name()`).
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Parse one instruction statement (mnemonic + operands, already
    /// stripped of labels/directives/comments) into a neutral [`Insn`].
    fn parse_insn(&self, text: &str) -> Result<Insn, IsaError>;

    /// Intern a mnemonic string, if this ISA recognizes it. Lets the
    /// front end ask "is this statement an instruction?" cheaply.
    fn knows_mnemonic(&self, mnemonic: &str) -> bool;

    /// Encoded length of `insn` under `form`. `insn` is guaranteed to
    /// belong to this ISA.
    fn insn_length(&self, insn: &Insn, form: BranchForm) -> Result<usize, IsaError>;

    /// `(short, near)` lengths for a branch; equal on fixed-width ISAs.
    fn insn_branch_lengths(&self, insn: &Insn) -> Result<(u32, u32), IsaError>;

    /// Can the relaxer pick between short and near forms of `insn`?
    fn is_relaxable_branch(&self, insn: &Insn) -> bool {
        relaxable_branch(insn)
    }

    /// Effects summary for `insn`.
    fn effects(&self, insn: &Insn) -> EffectSummary {
        effect_summary(insn)
    }

    /// A canonical single no-op instruction.
    fn nop(&self) -> Insn;

    /// Synthesize instructions covering exactly `len` bytes of padding.
    fn nop_pad(&self, len: usize) -> Result<Vec<Insn>, IsaError>;

    /// Alignment and padding parameters.
    fn align_policy(&self) -> AlignPolicy;

    /// Does a cost table claiming ISA `name` bind to this ISA?
    /// (`.mpt` v1 tables carry no ISA and claim `""`, which binds to
    /// x86-64 for backward compatibility.)
    fn accepts_cost_table(&self, table_isa: &str) -> bool;
}

/// The x86-64 instantiation: everything delegates to `mao-x86`, which is
/// the pre-refactor code unchanged — this impl is the compatibility
/// anchor for the byte-identical guarantee.
pub struct X86Isa;

impl Isa for X86Isa {
    fn id(&self) -> IsaId {
        IsaId::X86_64
    }

    fn parse_insn(&self, text: &str) -> Result<Insn, IsaError> {
        x86_parse::parse_statement(text).map(Insn::X86)
    }

    fn knows_mnemonic(&self, mnemonic: &str) -> bool {
        mao_x86::parse_mnemonic(mnemonic).is_some()
    }

    fn insn_length(&self, insn: &Insn, form: BranchForm) -> Result<usize, IsaError> {
        encoded_length(insn, form).map_err(|e| IsaError::Parse(e.to_string()))
    }

    fn insn_branch_lengths(&self, insn: &Insn) -> Result<(u32, u32), IsaError> {
        branch_lengths(insn).map_err(|e| IsaError::Parse(e.to_string()))
    }

    fn nop(&self) -> Insn {
        Insn::X86(mao_x86::Instruction::nop())
    }

    fn nop_pad(&self, len: usize) -> Result<Vec<Insn>, IsaError> {
        Ok(mao_x86::Instruction::nop_pad(len)
            .into_iter()
            .map(Insn::X86)
            .collect())
    }

    fn align_policy(&self) -> AlignPolicy {
        AlignPolicy {
            insn_alignment: 1,
            max_nop_unit: 6,
            preferred_loop_align: 16,
        }
    }

    fn accepts_cost_table(&self, table_isa: &str) -> bool {
        table_isa.is_empty() || IsaId::from_name(table_isa) == Some(IsaId::X86_64)
    }
}

/// The AArch64 instantiation: fixed 4-byte widths, NZCV effects, no
/// branch relaxation.
pub struct A64Isa;

impl Isa for A64Isa {
    fn id(&self) -> IsaId {
        IsaId::Aarch64
    }

    fn parse_insn(&self, text: &str) -> Result<Insn, IsaError> {
        mao_aarch64::parse_insn(text)
            .map(Insn::A64)
            .map_err(IsaError::Parse)
    }

    fn knows_mnemonic(&self, mnemonic: &str) -> bool {
        mao_aarch64::parse_mnemonic(mnemonic).is_some()
    }

    fn insn_length(&self, insn: &Insn, form: BranchForm) -> Result<usize, IsaError> {
        encoded_length(insn, form).map_err(|e| IsaError::Parse(e.to_string()))
    }

    fn insn_branch_lengths(&self, insn: &Insn) -> Result<(u32, u32), IsaError> {
        branch_lengths(insn).map_err(|e| IsaError::Parse(e.to_string()))
    }

    fn nop(&self) -> Insn {
        Insn::A64(mao_aarch64::A64Insn::nop())
    }

    fn nop_pad(&self, len: usize) -> Result<Vec<Insn>, IsaError> {
        if len % mao_aarch64::INSN_BYTES as usize != 0 {
            return Err(IsaError::BadPadding { requested: len });
        }
        Ok((0..len / mao_aarch64::INSN_BYTES as usize)
            .map(|_| Insn::A64(mao_aarch64::A64Insn::nop()))
            .collect())
    }

    fn align_policy(&self) -> AlignPolicy {
        AlignPolicy {
            insn_alignment: 4,
            max_nop_unit: 4,
            preferred_loop_align: 16,
        }
    }

    fn accepts_cost_table(&self, table_isa: &str) -> bool {
        IsaId::from_name(table_isa) == Some(IsaId::Aarch64)
    }
}

/// Minimal AT&T statement parser backing [`X86Isa::parse_insn`]. The
/// production front end in `mao-asm` keeps its own zero-copy parser;
/// this one serves the dyn hook (registries, tools, tests) and accepts
/// the same operand grammar: `$imm`, `%reg`, `*%reg`, `*mem`, labels,
/// and `disp(base,index,scale)`.
mod x86_parse {
    use super::IsaError;
    use mao_x86::operand::{Disp, Mem, Operand, Operands};
    use mao_x86::reg::{parse_reg_name, Reg};
    use mao_x86::sym::Sym;
    use mao_x86::{parse_mnemonic, Instruction, Mnemonic};

    fn bad(msg: String) -> IsaError {
        IsaError::Parse(msg)
    }

    fn is_symbol_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'$' | b'@')
    }

    fn parse_int(s: &str) -> Option<i64> {
        let s = s.trim();
        let (neg, body) = match s.strip_prefix('-') {
            Some(b) => (true, b.trim()),
            None => (false, s),
        };
        let mag = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).ok()?
        } else if body.len() > 1
            && body.starts_with('0')
            && body.bytes().all(|b| (b'0'..=b'7').contains(&b))
        {
            u64::from_str_radix(&body[1..], 8).ok()?
        } else {
            body.parse::<u64>().ok()?
        };
        Some(if neg {
            (mag as i64).wrapping_neg()
        } else {
            mag as i64
        })
    }

    fn parse_symbol_expr(s: &str) -> Option<Disp> {
        let s = s.trim();
        let b = s.as_bytes();
        let first = *b.first()?;
        if !(first.is_ascii_alphabetic() || matches!(first, b'_' | b'.' | b'$')) {
            return None;
        }
        let split = b
            .iter()
            .skip(1)
            .position(|&c| c == b'+' || c == b'-')
            .map(|i| i + 1);
        let (name, addend) = match split {
            Some(i) => {
                let (n, a) = s.split_at(i);
                (n.trim(), parse_int(a)?)
            }
            None => (s, 0),
        };
        if name.is_empty() || !name.bytes().all(is_symbol_byte) {
            return None;
        }
        Some(Disp::Symbol {
            name: Sym::intern(name),
            addend,
        })
    }

    fn parse_mem(s: &str) -> Result<Mem, IsaError> {
        let (disp_str, inner) = match s.find('(') {
            Some(open) => {
                let close = s
                    .rfind(')')
                    .ok_or_else(|| bad(format!("missing `)` in `{s}`")))?;
                (&s[..open], Some(&s[open + 1..close]))
            }
            None => (s, None),
        };
        let disp = if disp_str.trim().is_empty() {
            Disp::None
        } else if let Some(v) = parse_int(disp_str) {
            Disp::Imm(v)
        } else if let Some(d) = parse_symbol_expr(disp_str) {
            d
        } else {
            return Err(bad(format!("bad displacement `{disp_str}`")));
        };
        let mut mem = Mem {
            disp,
            base: None,
            index: None,
            scale: 1,
        };
        if let Some(inner) = inner {
            let mut parts = inner.split(',');
            let base = parts.next().map(str::trim);
            let index = parts.next().map(str::trim);
            let scale = parts.next().map(str::trim);
            if parts.next().is_some() {
                return Err(bad(format!("too many parts in `({inner})`")));
            }
            let parse_r = |p: &str| -> Result<Reg, IsaError> {
                let name = p
                    .strip_prefix('%')
                    .ok_or_else(|| bad(format!("expected register, got `{p}`")))?;
                parse_reg_name(name).ok_or_else(|| bad(format!("unknown register `{p}`")))
            };
            if let Some(b) = base.filter(|b| !b.is_empty()) {
                mem.base = Some(parse_r(b)?);
            }
            if let Some(i) = index.filter(|i| !i.is_empty()) {
                mem.index = Some(parse_r(i)?);
            }
            if let Some(sc) = scale.filter(|sc| !sc.is_empty()) {
                let v = parse_int(sc).ok_or_else(|| bad(format!("bad scale `{sc}`")))?;
                if ![1, 2, 4, 8].contains(&v) {
                    return Err(bad(format!("invalid scale {v}")));
                }
                mem.scale = v as u8;
            }
        }
        Ok(mem)
    }

    fn parse_operand(s: &str, is_branch: bool) -> Result<Operand, IsaError> {
        if let Some(imm) = s.strip_prefix('$') {
            let v = parse_int(imm).ok_or_else(|| bad(format!("unsupported immediate `{s}`")))?;
            return Ok(Operand::Imm(v));
        }
        if let Some(reg) = s.strip_prefix('%') {
            let r = parse_reg_name(reg).ok_or_else(|| bad(format!("unknown register `{s}`")))?;
            return Ok(Operand::Reg(r));
        }
        if let Some(ind) = s.strip_prefix('*') {
            let ind = ind.trim();
            if let Some(reg) = ind.strip_prefix('%') {
                let r =
                    parse_reg_name(reg).ok_or_else(|| bad(format!("unknown register `{ind}`")))?;
                return Ok(Operand::IndirectReg(r));
            }
            return Ok(Operand::IndirectMem(parse_mem(ind)?));
        }
        if is_branch && !s.as_bytes().contains(&b'(') && parse_int(s).is_none() {
            if s.bytes().all(is_symbol_byte) {
                return Ok(Operand::Label(Sym::intern(s)));
            }
            return Err(bad(format!("bad branch target `{s}`")));
        }
        Ok(Operand::Mem(parse_mem(s)?))
    }

    pub fn parse_statement(text: &str) -> Result<Instruction, IsaError> {
        let mut rest = text.trim();
        let mut lock = false;
        if let Some(r) = rest.strip_prefix("lock") {
            if r.starts_with(char::is_whitespace) {
                lock = true;
                rest = r.trim_start();
            }
        }
        let (mnem_str, ops_str) = match rest.find(char::is_whitespace) {
            Some(i) => (&rest[..i], rest[i..].trim()),
            None => (rest, ""),
        };
        let parsed = parse_mnemonic(mnem_str)
            .ok_or_else(|| bad(format!("unknown mnemonic `{mnem_str}`")))?;
        let is_branch = parsed.mnemonic.is_branch() || parsed.mnemonic == Mnemonic::Call;
        let mut operands = Operands::new();
        if !ops_str.is_empty() {
            let ob = ops_str.as_bytes();
            let mut depth = 0usize;
            let mut start = 0usize;
            for (k, &c) in ob.iter().enumerate() {
                match c {
                    b'(' => depth += 1,
                    b')' => depth = depth.saturating_sub(1),
                    b',' if depth == 0 => {
                        let part = ops_str[start..k].trim();
                        if !part.is_empty() {
                            operands.push(parse_operand(part, is_branch)?);
                        }
                        start = k + 1;
                    }
                    _ => {}
                }
            }
            let part = ops_str[start..].trim();
            if !part.is_empty() {
                operands.push(parse_operand(part, is_branch)?);
            }
        }
        let mut insn = Instruction::from_att(mnem_str, operands)
            .ok_or_else(|| bad(format!("unsupported statement `{text}`")))?;
        insn.lock = lock;
        Ok(insn)
    }
}

static X86_ISA: X86Isa = X86Isa;
static A64_ISA: A64Isa = A64Isa;

/// The registry: look up the `Isa` vtable for an [`IsaId`].
pub fn isa(id: IsaId) -> &'static dyn Isa {
    match id {
        IsaId::X86_64 => &X86_ISA,
        IsaId::Aarch64 => &A64_ISA,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time proof that `Isa` stays object-safe: the registry
    // hands out `&dyn Isa`, and this signature will not compile if a
    // future change breaks dyn-compatibility.
    fn _assert_object_safe(_: &dyn Isa) {}

    // And that it keeps working as a generic bound.
    fn _assert_generic_bound<I: Isa + ?Sized>(i: &I) -> IsaId {
        i.id()
    }

    #[test]
    fn isa_names_round_trip() {
        for id in IsaId::ALL {
            assert_eq!(IsaId::from_name(id.name()), Some(id));
            assert_eq!(IsaId::from_tag(id.tag()), Some(id));
            assert_eq!(isa(id).id(), id);
        }
        assert_eq!(IsaId::from_name("amd64"), Some(IsaId::X86_64));
        assert_eq!(IsaId::from_name("arm64"), Some(IsaId::Aarch64));
        assert_eq!(IsaId::from_name("riscv"), None);
        assert_eq!(IsaId::from_tag(0), None);
    }

    #[test]
    fn neutral_insn_static_dispatch_matches_x86_direct_calls() {
        let x = mao_x86::Instruction::from_att("ret", vec![]).unwrap();
        let n = Insn::from(x.clone());
        assert_eq!(n.isa(), IsaId::X86_64);
        assert_eq!(
            encoded_length(&n, BranchForm::Rel32).unwrap(),
            mao_x86::encode::encoded_length(&x, BranchForm::Rel32).unwrap()
        );
        assert_eq!(n.x86(), Some(&x));
        assert!(n.a64().is_none());
    }

    #[test]
    fn a64_insns_are_fixed_width_and_never_relaxable() {
        let i = mao_aarch64::parse_insn("b.eq\t.L1").unwrap();
        let n = Insn::from(i);
        assert_eq!(n.isa(), IsaId::Aarch64);
        assert_eq!(encoded_length(&n, BranchForm::Rel8).unwrap(), 4);
        assert_eq!(encoded_length(&n, BranchForm::Rel32).unwrap(), 4);
        assert_eq!(branch_lengths(&n).unwrap(), (4, 4));
        assert!(!relaxable_branch(&n));
        assert!(n.is_branch());
        assert_eq!(n.target_label(), Some(".L1"));
    }

    #[test]
    fn parse_hooks_dispatch_through_the_vtable() {
        let x = isa(IsaId::X86_64).parse_insn("ret").unwrap();
        assert_eq!(x.isa(), IsaId::X86_64);
        let a = isa(IsaId::Aarch64).parse_insn("add\tx0, x1, #8").unwrap();
        assert_eq!(a.isa(), IsaId::Aarch64);
        assert!(isa(IsaId::Aarch64).parse_insn("mov\tx0").is_err());
        assert!(isa(IsaId::X86_64).knows_mnemonic("movq"));
        assert!(!isa(IsaId::X86_64).knows_mnemonic("b.eq"));
        assert!(isa(IsaId::Aarch64).knows_mnemonic("b.eq"));
    }

    #[test]
    fn effect_summaries_reflect_the_tables() {
        let cmp = isa(IsaId::Aarch64).parse_insn("cmp\tx0, #0").unwrap();
        let eff = effect_summary(&cmp);
        assert!(eff.defs_flags && !eff.uses_flags);
        let ldr = isa(IsaId::Aarch64).parse_insn("ldr\tx0, [x1]").unwrap();
        assert!(effect_summary(&ldr).mem_read);
        let add = isa(IsaId::X86_64).parse_insn("addq\t%rax, %rbx").unwrap();
        assert!(effect_summary(&add).defs_flags);
    }

    #[test]
    fn nop_padding_respects_alignment_policy() {
        let x86 = isa(IsaId::X86_64);
        let pads = x86.nop_pad(7).unwrap();
        let total: usize = pads
            .iter()
            .map(|i| encoded_length(i, BranchForm::Rel32).unwrap())
            .sum();
        assert_eq!(total, 7);

        let a64 = isa(IsaId::Aarch64);
        assert_eq!(a64.nop_pad(8).unwrap().len(), 2);
        assert!(matches!(
            a64.nop_pad(6),
            Err(IsaError::BadPadding { requested: 6 })
        ));
        assert_eq!(a64.align_policy().insn_alignment, 4);
    }

    #[test]
    fn cost_table_binding_is_isa_checked() {
        let x86 = isa(IsaId::X86_64);
        assert!(x86.accepts_cost_table(""));
        assert!(x86.accepts_cost_table("x86-64"));
        assert!(!x86.accepts_cost_table("aarch64"));
        let a64 = isa(IsaId::Aarch64);
        assert!(a64.accepts_cost_table("aarch64"));
        assert!(!a64.accepts_cost_table(""));
    }
}
