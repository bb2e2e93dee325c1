//! Table-driven instruction side-effect model.
//!
//! The paper: *"MAO uses a table-driven approach to model side effects. A
//! tiny configuration language specifies opcodes, operands being modified,
//! flags set, and other potential side effects. A generator program
//! constructs C tables for use by MAO."*
//!
//! This module is the Rust equivalent: [`EFFECTS_DEF`] is the configuration
//! text, [`build_table`] is the generator (run once, lazily, at first use),
//! and [`effects`]/[`def_use`] are the lookup API the analyses consume.
//!
//! ## Configuration language
//!
//! One entry per line: `key: directive(args) directive(args) ...`
//!
//! | directive | meaning |
//! |---|---|
//! | `use(src)` / `use(dst)` / `use(src,dst)` | which explicit operands are read |
//! | `def(dst)` | the destination operand is written |
//! | `iuse(rax,...)` / `idef(rdx,...)` | implicit register reads/writes |
//! | `fdef(ZF,SF,...)` | flags defined (written with a meaningful value) |
//! | `fundef(AF,...)` | flags left undefined |
//! | `fuse(CF)` / `fuse(cc)` | flags read; `cc` = per the condition code |
//! | `nomem` | memory operands are address-only (lea, prefetch) |
//! | `imem(r)` / `imem(w)` | implicit memory access (push/pop/call/ret) |
//! | `barrier` | full clobber: calls and other opaque control transfers |
//!
//! Lines starting with `#` are comments.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::flags::Flags;
use crate::insn::Instruction;
use crate::mnemonic::{fixed_name, Mnemonic};
use crate::operand::{Operand, MAX_OPERANDS};
use crate::reg::{parse_reg_name, Reg, RegId, Width};

/// The side-effect configuration, in the format documented on the module.
pub const EFFECTS_DEF: &str = r#"
# Data movement.
mov:     use(src) def(dst)
movabs:  use(src) def(dst)
movsx:   use(src) def(dst)
movzx:   use(src) def(dst)
lea:     use(src) def(dst) nomem
xchg:    use(src,dst) def(src,dst)
push:    use(src) iuse(rsp) idef(rsp) imem(w)
pop:     def(dst) iuse(rsp) idef(rsp) imem(r)

# Integer ALU: full arithmetic flag set.
add:     use(src,dst) def(dst) fdef(CF,PF,AF,ZF,SF,OF)
sub:     use(src,dst) def(dst) fdef(CF,PF,AF,ZF,SF,OF)
adc:     use(src,dst) def(dst) fuse(CF) fdef(CF,PF,AF,ZF,SF,OF)
sbb:     use(src,dst) def(dst) fuse(CF) fdef(CF,PF,AF,ZF,SF,OF)
cmp:     use(src,dst) fdef(CF,PF,AF,ZF,SF,OF)
neg:     use(dst) def(dst) fdef(CF,PF,AF,ZF,SF,OF)

# Logic: CF/OF cleared (still 'defined'), AF undefined.
and:     use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
or:      use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
xor:     use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
test:    use(src,dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
not:     use(dst) def(dst)

# inc/dec preserve CF.
inc:     use(dst) def(dst) fdef(PF,AF,ZF,SF,OF)
dec:     use(dst) def(dst) fdef(PF,AF,ZF,SF,OF)

# Shifts and rotates: flag behaviour depends on the (possibly dynamic) count;
# model conservatively as defining CF/OF/result flags, AF undefined.
shl:     use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
shr:     use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
sar:     use(src,dst) def(dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
rol:     use(src,dst) def(dst) fdef(CF,OF)
ror:     use(src,dst) def(dst) fdef(CF,OF)

# Multiply / divide.
imul:    use(src,dst) def(dst) fdef(CF,OF) fundef(PF,AF,ZF,SF)
mul:     use(src) iuse(rax) idef(rax,rdx) fdef(CF,OF) fundef(PF,AF,ZF,SF)
idiv:    use(src) iuse(rax,rdx) idef(rax,rdx) fundef(CF,PF,AF,ZF,SF,OF)
div:     use(src) iuse(rax,rdx) idef(rax,rdx) fundef(CF,PF,AF,ZF,SF,OF)

# Sign-extension idioms.
cltq:    iuse(rax) idef(rax)
cltd:    iuse(rax) idef(rdx)
cqto:    iuse(rax) idef(rdx)
cwtl:    iuse(rax) idef(rax)

# Control flow.
jmp:     use(src)
jcc:     use(src) fuse(cc)
call:    use(src) iuse(rsp) idef(rsp) imem(w) barrier
ret:     iuse(rsp) idef(rsp) imem(r) barrier
leave:   iuse(rbp) idef(rsp,rbp) imem(r)
setcc:   def(dst) fuse(cc)
cmovcc:  use(src,dst) def(dst) fuse(cc)

# NOPs have no architectural effect; memory operands are address-only.
nop:     nomem
pause:   nomem

# SSE scalar subset.
movss:   use(src) def(dst)
movsd:   use(src) def(dst)
movaps:  use(src) def(dst)
movapd:  use(src) def(dst)
movups:  use(src) def(dst)
movd:    use(src) def(dst)
movdq:   use(src) def(dst)
addss:   use(src,dst) def(dst)
addsd:   use(src,dst) def(dst)
subss:   use(src,dst) def(dst)
subsd:   use(src,dst) def(dst)
mulss:   use(src,dst) def(dst)
mulsd:   use(src,dst) def(dst)
divss:   use(src,dst) def(dst)
divsd:   use(src,dst) def(dst)
sqrtss:  use(src) def(dst)
sqrtsd:  use(src) def(dst)
ucomiss: use(src,dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
ucomisd: use(src,dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
comiss:  use(src,dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
comisd:  use(src,dst) fdef(CF,PF,ZF,SF,OF) fundef(AF)
cvtsi2ss:  use(src) def(dst)
cvtsi2sd:  use(src) def(dst)
cvttss2si: use(src) def(dst)
cvttsd2si: use(src) def(dst)
cvtss2sd:  use(src) def(dst)
cvtsd2ss:  use(src) def(dst)
pxor:    use(src,dst) def(dst)
xorps:   use(src,dst) def(dst)
xorpd:   use(src,dst) def(dst)

# Prefetch hints read the address only; no architectural side effect.
prefetchnta: use(src) nomem
prefetcht0:  use(src) nomem
prefetcht1:  use(src) nomem
prefetcht2:  use(src) nomem

# Traps / misc.
ud2:     barrier
int3:    barrier
hlt:     barrier
cpuid:   iuse(rax,rcx) idef(rax,rbx,rcx,rdx) barrier
rdtsc:   idef(rax,rdx)
mfence:  imem(r) imem(w)
lfence:
sfence:  imem(w)
endbr64:
"#;

/// Parsed side effects for one mnemonic family.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Explicit source operands (all but the last) are read.
    pub reads_src: bool,
    /// The destination operand (the last) is read.
    pub reads_dst: bool,
    /// The first (source-position) operand is also written (xchg).
    pub writes_src: bool,
    /// The destination operand is written.
    pub writes_dst: bool,
    /// Implicit register reads.
    pub implicit_reads: Vec<RegId>,
    /// Implicit register writes.
    pub implicit_writes: Vec<RegId>,
    /// Flags written with meaningful values.
    pub flags_def: Flags,
    /// Flags left with undefined values (still killed for liveness).
    pub flags_undef: Flags,
    /// Flags read (fixed part; conditional mnemonics add the cc's flags).
    pub flags_use: Flags,
    /// Flags read according to the instruction's condition code.
    pub flags_use_cond: bool,
    /// Memory operands are address-only (no load/store).
    pub no_mem_access: bool,
    /// Implicit memory read (pop/ret).
    pub implicit_mem_read: bool,
    /// Implicit memory write (push/call).
    pub implicit_mem_write: bool,
    /// Opaque clobber: treat as reading and writing everything.
    pub barrier: bool,
}

/// Error produced when the configuration text is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number in the config text.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "effects config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Parse the configuration language into a lookup table.
///
/// This is the "generator program" of the paper, except it runs at startup
/// instead of emitting C source.
pub fn build_table(config: &str) -> Result<HashMap<String, Effects>, ConfigError> {
    let mut table = HashMap::new();
    for (idx, raw_line) in config.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = match line.split_once('#') {
            Some((before, _)) => before.trim(),
            None => line,
        };
        let (key, rest) = line.split_once(':').ok_or_else(|| ConfigError {
            line: lineno,
            message: "missing `:` after mnemonic key".to_string(),
        })?;
        let key = key.trim().to_string();
        let mut eff = Effects::default();
        for directive in split_directives(rest) {
            apply_directive(&mut eff, &directive).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
        }
        if table.insert(key.clone(), eff).is_some() {
            return Err(ConfigError {
                line: lineno,
                message: format!("duplicate entry for `{key}`"),
            });
        }
    }
    Ok(table)
}

/// Split `use(src,dst) def(dst) fdef(ZF)` into individual directives.
fn split_directives(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn apply_directive(eff: &mut Effects, directive: &str) -> Result<(), String> {
    let (name, args) = match directive.split_once('(') {
        Some((n, rest)) => {
            let args = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unterminated `(` in `{directive}`"))?;
            (n, args)
        }
        None => (directive, ""),
    };
    let args: Vec<&str> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',').map(str::trim).collect()
    };
    match name {
        "use" | "def" => {
            for a in &args {
                match (*a, name) {
                    ("src", "use") => eff.reads_src = true,
                    ("dst", "use") => eff.reads_dst = true,
                    ("src", "def") => eff.writes_src = true,
                    ("dst", "def") => eff.writes_dst = true,
                    _ => return Err(format!("bad operand role `{a}` in `{name}`")),
                }
            }
        }
        "iuse" | "idef" => {
            for a in &args {
                let reg = parse_reg_name(a).ok_or_else(|| format!("unknown register `{a}`"))?;
                if name == "iuse" {
                    eff.implicit_reads.push(reg.id);
                } else {
                    eff.implicit_writes.push(reg.id);
                }
            }
        }
        "fdef" | "fundef" | "fuse" => {
            for a in &args {
                if *a == "cc" && name == "fuse" {
                    eff.flags_use_cond = true;
                    continue;
                }
                let flag = Flags::from_name(a).ok_or_else(|| format!("unknown flag `{a}`"))?;
                match name {
                    "fdef" => eff.flags_def |= flag,
                    "fundef" => eff.flags_undef |= flag,
                    "fuse" => eff.flags_use |= flag,
                    _ => unreachable!(),
                }
            }
        }
        "nomem" => eff.no_mem_access = true,
        "imem" => {
            for a in &args {
                match *a {
                    "r" => eff.implicit_mem_read = true,
                    "w" => eff.implicit_mem_write = true,
                    _ => return Err(format!("bad imem mode `{a}`")),
                }
            }
        }
        "barrier" => eff.barrier = true,
        _ => return Err(format!("unknown directive `{name}`")),
    }
    Ok(())
}

/// Table key for a mnemonic: conditional families collapse onto one entry.
fn table_key(m: Mnemonic) -> &'static str {
    match m {
        Mnemonic::Jcc(_) => "jcc",
        Mnemonic::Setcc(_) => "setcc",
        Mnemonic::Cmovcc(_) => "cmovcc",
        // att_base for these is the suffix-less stem; the table uses the
        // Intel-style family name.
        Mnemonic::Movsx => "movsx",
        Mnemonic::Movzx => "movzx",
        Mnemonic::Movdq => "movdq",
        other => fixed_name(other),
    }
}

/// The builtin table laid out densely by [`Mnemonic::index`], so the lookup
/// behind every `def_use` is one bounds-checked load: no key string, no
/// hashing.
fn global_table() -> &'static [Option<Effects>] {
    static TABLE: OnceLock<Vec<Option<Effects>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut by_name = build_table(EFFECTS_DEF).expect("builtin effects config must parse");
        Mnemonic::ALL
            .iter()
            .map(|&m| by_name.remove(table_key(m)))
            .collect()
    })
}

/// Look up the side effects of a mnemonic family.
///
/// Returns `None` for mnemonics absent from the table (which would indicate
/// a gap in [`EFFECTS_DEF`]; a test asserts full coverage).
#[inline]
pub fn effects(m: Mnemonic) -> Option<&'static Effects> {
    global_table()[m.index()].as_ref()
}

/// Registers one [`DefUse`] can read: at most two per explicit operand
/// (base and index of a memory operand) over at most [`MAX_OPERANDS`]
/// operands, plus at most two implicit reads from the table, plus `%rax`
/// for one-operand `imul`. A test derives the worst case from the table and
/// checks it fits; [`def_use`] models a longer operand list (which the
/// parser and the snapshot decoder refuse) as a barrier, so no instruction
/// can overflow the list.
pub const MAX_REG_USES: usize = 2 * MAX_OPERANDS + 2 + 1;

/// Registers one [`DefUse`] can write: the source and destination
/// operands, at most four implicit writes from the table (`cpuid`), plus
/// `%rax` and `%rdx` for one-operand `imul`. See [`MAX_REG_USES`].
pub const MAX_REG_DEFS: usize = 2 + 4 + 2;

/// A fixed-capacity register list stored inline: building a [`DefUse`]
/// allocates nothing. Derefs to `&[Reg]`.
#[derive(Clone, Copy)]
pub struct RegList<const N: usize> {
    len: u8,
    regs: [Reg; N],
}

impl<const N: usize> RegList<N> {
    #[inline]
    fn push(&mut self, r: Reg) {
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl<const N: usize> Default for RegList<N> {
    fn default() -> RegList<N> {
        RegList {
            len: 0,
            regs: [Reg::new(RegId::Rax, Width::B8); N],
        }
    }
}

impl<const N: usize> std::ops::Deref for RegList<N> {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl<'a, const N: usize> IntoIterator for &'a RegList<N> {
    type Item = &'a Reg;
    type IntoIter = std::slice::Iter<'a, Reg>;

    #[inline]
    fn into_iter(self) -> std::slice::Iter<'a, Reg> {
        self.iter()
    }
}

impl<const N: usize> PartialEq for RegList<N> {
    fn eq(&self, other: &RegList<N>) -> bool {
        **self == **other
    }
}

impl<const N: usize> Eq for RegList<N> {}

impl<const N: usize> std::fmt::Debug for RegList<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Fully resolved defs/uses of one concrete instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefUse {
    /// Registers read.
    pub reg_uses: RegList<MAX_REG_USES>,
    /// Registers written.
    pub reg_defs: RegList<MAX_REG_DEFS>,
    /// Flags written with defined values.
    pub flags_def: Flags,
    /// Flags clobbered with undefined values.
    pub flags_undef: Flags,
    /// Flags read.
    pub flags_use: Flags,
    /// Performs an explicit or implicit load.
    pub mem_read: bool,
    /// Performs an explicit or implicit store.
    pub mem_write: bool,
    /// Opaque clobber (calls etc.).
    pub barrier: bool,
}

impl DefUse {
    /// All flags killed (defined or undefined) by the instruction.
    pub fn flags_killed(&self) -> Flags {
        self.flags_def | self.flags_undef
    }

    /// Does the instruction write to register id `id` (any width)?
    pub fn defs_reg(&self, id: RegId) -> bool {
        self.reg_defs.iter().any(|r| r.id == id)
    }

    /// Does the instruction read register id `id` (any width)?
    pub fn uses_reg(&self, id: RegId) -> bool {
        self.reg_uses.iter().any(|r| r.id == id)
    }
}

/// Compute the defs/uses of an instruction by combining the side-effect
/// table with the instruction's concrete operands.
pub fn def_use(insn: &Instruction) -> DefUse {
    let mut du = DefUse::default();
    let eff = effects(insn.mnemonic).filter(|_| insn.operands.len() <= MAX_OPERANDS);
    let Some(eff) = eff else {
        // Unknown instruction, or more operands than any parsed one can
        // carry: treat as a barrier (conservative).
        du.barrier = true;
        du.mem_read = true;
        du.mem_write = true;
        return du;
    };

    let n = insn.operands.len();
    // One-operand imul (`imul src` -> rdx:rax) has implicit operands the
    // table's 2/3-operand entry does not describe.
    let imul_one_op = insn.mnemonic == Mnemonic::Imul && n == 1;

    for (i, op) in insn.operands.iter().enumerate() {
        let is_dst = i + 1 == n && n > 1;
        let (read, written) = if n == 1 {
            // Single-operand instructions: the table's dst role applies when
            // the operand is written (neg/not/inc/dec/pop/setcc), the src
            // role when only read (push/jmp/mul/idiv).
            (
                eff.reads_src || eff.reads_dst,
                eff.writes_dst && !imul_one_op,
            )
        } else if is_dst {
            (eff.reads_dst, eff.writes_dst)
        } else {
            (eff.reads_src, i == 0 && eff.writes_src)
        };

        match op {
            Operand::Imm(_) | Operand::Label(_) => {}
            Operand::Reg(r) => {
                if read {
                    du.reg_uses.push(*r);
                }
                if written {
                    du.reg_defs.push(*r);
                }
            }
            Operand::IndirectReg(r) => du.reg_uses.push(*r),
            Operand::Mem(m) | Operand::IndirectMem(m) => {
                for r in m.regs_used() {
                    du.reg_uses.push(r);
                }
                if !eff.no_mem_access && !matches!(op, Operand::IndirectMem(_)) {
                    if read {
                        du.mem_read = true;
                    }
                    if written {
                        du.mem_write = true;
                    }
                }
                if matches!(op, Operand::IndirectMem(_)) {
                    du.mem_read = true; // jump-table load
                }
            }
        }
    }

    let implicit_width = insn.op_width.unwrap_or(Width::B8);
    for id in &eff.implicit_reads {
        du.reg_uses
            .push(Reg::new(*id, Width::B8.min(implicit_width.max(Width::B4))));
    }
    for id in &eff.implicit_writes {
        du.reg_defs.push(Reg::new(*id, Width::B8));
    }
    if imul_one_op {
        du.reg_uses.push(Reg::new(RegId::Rax, insn.width()));
        du.reg_defs.push(Reg::new(RegId::Rax, Width::B8));
        du.reg_defs.push(Reg::new(RegId::Rdx, Width::B8));
    }

    du.flags_def = eff.flags_def;
    du.flags_undef = eff.flags_undef;
    du.flags_use = eff.flags_use;
    if eff.flags_use_cond {
        if let Some(c) = insn.cond() {
            du.flags_use |= c.flags_read();
        }
    }
    du.mem_read |= eff.implicit_mem_read;
    du.mem_write |= eff.implicit_mem_write;
    du.barrier = eff.barrier;
    du
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Cond;
    use crate::insn::build;
    use crate::operand::Mem;

    #[test]
    fn builtin_config_parses() {
        let table = build_table(EFFECTS_DEF).unwrap();
        assert!(table.contains_key("add"));
        assert!(table.contains_key("jcc"));
    }

    #[test]
    fn every_mnemonic_is_covered() {
        // Registry-driven audit: walk `Mnemonic::ALL` instead of a
        // hand-maintained copy of the enum, so a new mnemonic without a
        // side-effect entry fails here rather than silently becoming a
        // conservative barrier in every dataflow client.
        for m in Mnemonic::ALL {
            assert!(effects(m).is_some(), "no effects entry for {m:?}");
        }
    }

    #[test]
    fn flag_sets_stay_inside_the_legal_universe() {
        // Consistency audit of the side-effect tables themselves: for every
        // mnemonic, the def/undef/use flag sets must be subsets of the legal
        // flag universe, an instruction must not declare the same flag both
        // defined and undefined, and conditional mnemonics must get their
        // flag reads from the condition code, not a fixed set.
        for m in Mnemonic::ALL {
            let eff = effects(m).expect("covered above");
            assert!(
                Flags::ALL.contains(eff.flags_def),
                "{m:?}: flags_def outside the flag universe"
            );
            assert!(
                Flags::ALL.contains(eff.flags_undef),
                "{m:?}: flags_undef outside the flag universe"
            );
            assert!(
                Flags::ALL.contains(eff.flags_use),
                "{m:?}: flags_use outside the flag universe"
            );
            assert!(
                (eff.flags_def & eff.flags_undef).is_empty(),
                "{m:?}: a flag cannot be both defined and undefined"
            );
            if m.cond().is_some() {
                assert!(
                    eff.flags_use_cond,
                    "{m:?}: conditional mnemonic must read via its cc"
                );
            }
        }
    }

    #[test]
    fn all_list_has_no_duplicates() {
        // `Mnemonic::ALL` feeds the audits above; a duplicate entry would
        // shadow a missing one.
        for (i, a) in Mnemonic::ALL.iter().enumerate() {
            for b in &Mnemonic::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate entry in Mnemonic::ALL");
            }
        }
    }

    /// The inline register lists hold the worst case the table and the
    /// operand cap allow, derived from the table itself; and every mnemonic
    /// with the widest operand lists stays inside them (a push past a
    /// list's capacity panics).
    #[test]
    fn def_use_lists_hold_the_worst_case() {
        use crate::reg::{Reg, RegId};
        let table: Vec<&Effects> = Mnemonic::ALL.iter().filter_map(|&m| effects(m)).collect();
        let reads = table.iter().map(|e| e.implicit_reads.len()).max().unwrap();
        let writes = table.iter().map(|e| e.implicit_writes.len()).max().unwrap();
        // Two registers per operand, the implicit ones, `imul`'s extras.
        let (worst_uses, worst_defs) = (2 * MAX_OPERANDS + reads + 1, 2 + writes + 2);
        assert!(worst_uses <= MAX_REG_USES, "{worst_uses} uses");
        assert!(worst_defs <= MAX_REG_DEFS, "{worst_defs} defs");

        let mem = Operand::Mem(Mem::base_index(Reg::q(RegId::R8), Reg::q(RegId::Rdi), 1, 0));
        let reg = Operand::Reg(Reg::q(RegId::Rbx));
        for m in Mnemonic::ALL {
            for n in [1, 2, 3, MAX_OPERANDS, MAX_OPERANDS + 1] {
                let shapes = [
                    vec![mem; n],
                    vec![reg; n],
                    (0..n)
                        .map(|k| if k == 0 || k + 1 == n { reg } else { mem })
                        .collect(),
                ];
                for ops in shapes {
                    let du = def_use(&Instruction::new(m, ops));
                    if n > MAX_OPERANDS {
                        assert!(du.barrier && du.reg_uses.is_empty(), "{m:?} x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_def_use() {
        use crate::reg::{Reg, RegId, Width};
        let i = build::add(Width::B4, Reg::l(RegId::Rax), Reg::l(RegId::Rbx));
        let du = def_use(&i);
        assert!(du.uses_reg(RegId::Rax));
        assert!(du.uses_reg(RegId::Rbx)); // add reads its destination
        assert!(du.defs_reg(RegId::Rbx));
        assert!(!du.defs_reg(RegId::Rax));
        assert_eq!(du.flags_def, Flags::ALL);
        assert!(!du.mem_read && !du.mem_write);
    }

    #[test]
    fn mov_does_not_read_dest() {
        use crate::reg::{Reg, RegId, Width};
        let i = build::mov(Width::B4, Reg::l(RegId::Rax), Reg::l(RegId::Rbx));
        let du = def_use(&i);
        assert!(du.uses_reg(RegId::Rax));
        assert!(!du.uses_reg(RegId::Rbx));
        assert!(du.defs_reg(RegId::Rbx));
        assert!(du.flags_def.is_empty());
    }

    #[test]
    fn store_and_load() {
        use crate::reg::{Reg, RegId, Width};
        let store = build::mov(
            Width::B8,
            Reg::q(RegId::Rdx),
            Mem::base_disp(Reg::q(RegId::Rsp), 24),
        );
        let du = def_use(&store);
        assert!(du.mem_write && !du.mem_read);
        assert!(du.uses_reg(RegId::Rsp)); // address

        let load = build::mov(
            Width::B8,
            Mem::base_disp(Reg::q(RegId::Rsp), 24),
            Reg::q(RegId::Rdx),
        );
        let du = def_use(&load);
        assert!(du.mem_read && !du.mem_write);
        assert!(du.defs_reg(RegId::Rdx));
    }

    #[test]
    fn lea_is_not_a_load() {
        use crate::reg::{Reg, RegId, Width};
        let i = Instruction::with_width(
            Mnemonic::Lea,
            Width::B8,
            vec![
                Operand::Mem(Mem::base_index(Reg::q(RegId::R8), Reg::q(RegId::Rdi), 1, 0)),
                Operand::Reg(Reg::l(RegId::Rbx)),
            ],
        );
        let du = def_use(&i);
        assert!(!du.mem_read && !du.mem_write);
        assert!(du.uses_reg(RegId::R8) && du.uses_reg(RegId::Rdi));
        assert!(du.defs_reg(RegId::Rbx));
    }

    #[test]
    fn jcc_reads_cond_flags() {
        let j = build::jcc(Cond::G, ".L1");
        let du = def_use(&j);
        assert_eq!(du.flags_use, Cond::G.flags_read());
        let j = build::jcc(Cond::E, ".L1");
        assert_eq!(def_use(&j).flags_use, Flags::ZF);
    }

    #[test]
    fn push_pop_rsp_and_memory() {
        use crate::reg::{Reg, RegId};
        let p = Instruction::new(Mnemonic::Push, vec![Operand::Reg(Reg::q(RegId::Rbp))]);
        let du = def_use(&p);
        assert!(du.uses_reg(RegId::Rbp));
        assert!(du.uses_reg(RegId::Rsp) && du.defs_reg(RegId::Rsp));
        assert!(du.mem_write);

        let p = Instruction::new(Mnemonic::Pop, vec![Operand::Reg(Reg::q(RegId::Rbp))]);
        let du = def_use(&p);
        assert!(du.defs_reg(RegId::Rbp));
        assert!(du.mem_read);
    }

    #[test]
    fn call_is_barrier() {
        let c = Instruction::new(Mnemonic::Call, vec![Operand::Label("f".into())]);
        assert!(def_use(&c).barrier);
    }

    #[test]
    fn one_operand_imul() {
        use crate::reg::{Reg, RegId};
        let i = Instruction::new(Mnemonic::Imul, vec![Operand::Reg(Reg::l(RegId::Rbx))]);
        let du = def_use(&i);
        assert!(du.uses_reg(RegId::Rbx) && du.uses_reg(RegId::Rax));
        assert!(du.defs_reg(RegId::Rax) && du.defs_reg(RegId::Rdx));
        assert!(!du.defs_reg(RegId::Rbx));
    }

    #[test]
    fn inc_preserves_cf() {
        use crate::reg::{Reg, RegId};
        let i = Instruction::new(Mnemonic::Inc, vec![Operand::Reg(Reg::l(RegId::Rax))]);
        let du = def_use(&i);
        assert!(!du.flags_killed().contains(Flags::CF));
        assert!(du.flags_def.contains(Flags::ZF));
    }

    #[test]
    fn indirect_jump_reads_table() {
        use crate::reg::{Reg, RegId};
        let i = Instruction::new(
            Mnemonic::Jmp,
            vec![Operand::IndirectMem(Mem {
                disp: crate::operand::Disp::Symbol {
                    name: ".Ltable".into(),
                    addend: 0,
                },
                base: None,
                index: Some(Reg::q(RegId::Rax)),
                scale: 8,
            })],
        );
        let du = def_use(&i);
        assert!(du.mem_read);
        assert!(du.uses_reg(RegId::Rax));
    }

    #[test]
    fn config_errors_are_reported() {
        assert!(build_table("add use(src)").is_err()); // missing colon
        assert!(build_table("add: use(bogus)").is_err());
        assert!(build_table("add: fdef(QF)").is_err());
        assert!(build_table("add:\nadd:").is_err()); // duplicate
        let err = build_table("x: frob(1)").unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
    }

    #[test]
    fn unknown_mnemonic_conservative() {
        // def_use falls back to barrier semantics via the missing-entry path;
        // simulate by querying a mnemonic we deliberately keep unmapped.
        let table = build_table("mov: use(src) def(dst)").unwrap();
        assert!(!table.contains_key("add"));
    }
}
