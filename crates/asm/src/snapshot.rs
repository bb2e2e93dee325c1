//! Binary IR snapshots: a compact, content-addressed serialization of the
//! parsed entry list.
//!
//! A snapshot lets repeated builds of mostly-unchanged assembly skip text
//! parsing entirely: the CLI (`mao --emit-snapshot` / `--snapshot-dir`) and
//! `maod` key snapshots by the input's content hash and load the IR straight
//! from bytes. A snapshot is a [`Kind::Snapshot`] artifact in the shared
//! container, keyed by that content hash and stamped with the unit's ISA,
//! so a corrupt, truncated, or version-skewed file is *detected and
//! rejected*, never served (the stores evict such files on sight; `mao
//! check`'s snapshot execution path proves byte-identical results against
//! the text path).
//!
//! Body layout (`varint`/`zigzag` are LEB128):
//!
//! ```text
//! strtab_count varint    distinct strings, then per string: len + bytes
//! entry_count  varint    then per entry: tag byte + payload
//! ```
//!
//! Strings are deduplicated through a string table; symbol-typed fields
//! intern each table entry exactly once at decode, so a snapshot load does
//! one hash probe per *distinct* symbol instead of one per occurrence.
//! Mnemonics and registers serialize through stable numeric codes
//! ([`mao_x86::Mnemonic::snapshot_code`], [`mao_x86::RegId::index`],
//! [`mao_aarch64::A64Mnemonic::snapshot_code`]); any table reordering
//! requires a [`Kind::Snapshot`] version bump.

use mao_aarch64::{A64Insn, A64Mnemonic, A64Operand, A64Reg};
use mao_isa::container::{self, ContainerError, Kind};
use mao_isa::{Insn, IsaId};
use mao_x86::insn::Instruction;
use mao_x86::operand::{Disp, Mem, Operand, Operands, MAX_OPERANDS};
use mao_x86::reg::{Reg, RegId, Width};
use mao_x86::sym::Sym;
use mao_x86::Mnemonic;

use crate::entry::{Align, DataItem, DataWidth, Directive, Entry};

/// 128-bit FNV-1a content hash of source text — the snapshot store key.
pub fn content_key(text: &str) -> u128 {
    mao_x86::fnv::fnv1a128(text.as_bytes())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
    strings: std::collections::HashMap<&'static str, u32>,
    // Table in insertion order; everything goes through the interner so the
    // map key and the table entry can share one `&'static str`.
    table: Vec<&'static str>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
    }

    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn sym(&mut self, s: Sym) {
        let idx = match self.strings.get(s.as_str()) {
            Some(&i) => i,
            None => {
                let i = self.table.len() as u32;
                self.strings.insert(s.as_str(), i);
                self.table.push(s.as_str());
                i
            }
        };
        self.varint(u64::from(idx));
    }

    fn string(&mut self, s: &str) {
        let idx = match self.strings.get(s) {
            Some(&i) => i,
            None => {
                let i = self.table.len() as u32;
                // Free-text strings (args, exprs, literals) are interned too:
                // they are rare enough that the interner growth is bounded in
                // practice, and sharing one `&'static str` table beats
                // keeping a second owned-key map.
                let stat = Sym::intern(s).as_str();
                self.strings.insert(stat, i);
                self.table.push(stat);
                i
            }
        };
        self.varint(u64::from(idx));
    }

    fn reg(&mut self, r: Reg) {
        self.u8(r.id.index() as u8);
        self.u8(width_code(Some(r.width)) | if r.high8 { 0x80 } else { 0 });
    }

    fn mem(&mut self, m: &Mem) {
        let scale_code = m.scale.trailing_zeros() as u8; // 1,2,4,8 -> 0..3
        let disp_kind = match m.disp {
            Disp::None => 0u8,
            Disp::Imm(_) => 1,
            Disp::Symbol { .. } => 2,
        };
        let flags = u8::from(m.base.is_some())
            | u8::from(m.index.is_some()) << 1
            | scale_code << 2
            | disp_kind << 4;
        self.u8(flags);
        if let Some(b) = m.base {
            self.reg(b);
        }
        if let Some(i) = m.index {
            self.reg(i);
        }
        match &m.disp {
            Disp::None => {}
            Disp::Imm(v) => self.zigzag(*v),
            Disp::Symbol { name, addend } => {
                self.sym(*name);
                self.zigzag(*addend);
            }
        }
    }

    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Imm(v) => {
                self.u8(0);
                self.zigzag(*v);
            }
            Operand::Reg(r) => {
                self.u8(1);
                self.reg(*r);
            }
            Operand::Mem(m) => {
                self.u8(2);
                self.mem(m);
            }
            Operand::Label(l) => {
                self.u8(3);
                self.sym(*l);
            }
            Operand::IndirectReg(r) => {
                self.u8(4);
                self.reg(*r);
            }
            Operand::IndirectMem(m) => {
                self.u8(5);
                self.mem(m);
            }
        }
    }

    fn insn(&mut self, i: &Instruction) {
        self.u16(i.mnemonic.snapshot_code());
        let flags = width_code(i.op_width) | width_code(i.src_width) << 3 | u8::from(i.lock) << 6;
        self.u8(flags);
        self.varint(i.operands.len() as u64);
        for op in &i.operands {
            self.operand(op);
        }
    }

    fn a64_reg(&mut self, r: A64Reg) {
        self.u8(r.num | u8::from(r.is64) << 6 | u8::from(r.sp) << 7);
    }

    fn a64_operand(&mut self, op: &A64Operand) {
        match op {
            A64Operand::Reg(r) => {
                self.u8(0);
                self.a64_reg(*r);
            }
            A64Operand::Imm(v) => {
                self.u8(1);
                self.zigzag(*v);
            }
            A64Operand::Mem { base, offset } => {
                self.u8(2);
                self.a64_reg(*base);
                self.zigzag(*offset);
            }
            A64Operand::Label(l) => {
                self.u8(3);
                self.sym(*l);
            }
        }
    }

    fn a64_insn(&mut self, i: &A64Insn) {
        self.u16(i.mnemonic.snapshot_code());
        self.varint(i.operands.len() as u64);
        for op in &i.operands {
            self.a64_operand(op);
        }
    }

    fn entry(&mut self, e: &Entry) {
        match e {
            Entry::Label(l) => {
                self.u8(0);
                self.sym(*l);
            }
            Entry::Insn(Insn::X86(i)) => {
                self.u8(1);
                self.insn(i);
            }
            Entry::Insn(Insn::A64(i)) => {
                self.u8(13);
                self.a64_insn(i);
            }
            Entry::Directive(d) => self.directive(d),
        }
    }

    fn directive(&mut self, d: &Directive) {
        match d {
            Directive::Section { name, args } => {
                self.u8(2);
                self.sym(*name);
                self.varint(args.len() as u64);
                for a in args {
                    self.string(a);
                }
            }
            Directive::Global(s) => {
                self.u8(3);
                self.sym(*s);
            }
            Directive::Type { symbol, kind } => {
                self.u8(4);
                self.sym(*symbol);
                self.sym(*kind);
            }
            Directive::Size { symbol, expr } => {
                self.u8(5);
                self.sym(*symbol);
                self.string(expr);
            }
            Directive::Align(a) => {
                self.u8(6);
                let flags = u8::from(a.fill.is_some())
                    | u8::from(a.max_skip.is_some()) << 1
                    | u8::from(a.p2_form) << 2;
                self.u8(flags);
                self.varint(a.alignment);
                if let Some(f) = a.fill {
                    self.u8(f);
                }
                if let Some(m) = a.max_skip {
                    self.varint(m);
                }
            }
            Directive::Data { width, items } => {
                self.u8(7);
                self.u8(data_width_code(*width));
                self.varint(items.len() as u64);
                for item in items {
                    match item {
                        DataItem::Imm(v) => {
                            self.u8(0);
                            self.zigzag(*v);
                        }
                        DataItem::Symbol(s) => {
                            self.u8(1);
                            self.sym(*s);
                        }
                    }
                }
            }
            Directive::Ascii(s) => {
                self.u8(8);
                self.string(s);
            }
            Directive::Asciz(s) => {
                self.u8(9);
                self.string(s);
            }
            Directive::Zero(n) => {
                self.u8(10);
                self.varint(*n);
            }
            Directive::Comm {
                symbol,
                size,
                align,
            } => {
                self.u8(11);
                self.sym(*symbol);
                self.varint(*size);
                match align {
                    Some(a) => {
                        self.u8(1);
                        self.varint(*a);
                    }
                    None => self.u8(0),
                }
            }
            Directive::Other { name, args } => {
                self.u8(12);
                self.sym(*name);
                self.string(args);
            }
        }
    }
}

fn width_code(w: Option<Width>) -> u8 {
    match w {
        None => 0,
        Some(Width::B1) => 1,
        Some(Width::B2) => 2,
        Some(Width::B4) => 3,
        Some(Width::B8) => 4,
        Some(Width::B16) => 5,
    }
}

fn width_from_code(c: u8) -> Result<Option<Width>, ContainerError> {
    Ok(match c {
        0 => None,
        1 => Some(Width::B1),
        2 => Some(Width::B2),
        3 => Some(Width::B4),
        4 => Some(Width::B8),
        5 => Some(Width::B16),
        _ => return Err(ContainerError::Body("width code")),
    })
}

fn data_width_code(w: DataWidth) -> u8 {
    match w {
        DataWidth::Byte => 0,
        DataWidth::Word => 1,
        DataWidth::Long => 2,
        DataWidth::Quad => 3,
    }
}

fn data_width_from_code(c: u8) -> Result<DataWidth, ContainerError> {
    Ok(match c {
        0 => DataWidth::Byte,
        1 => DataWidth::Word,
        2 => DataWidth::Long,
        3 => DataWidth::Quad,
        _ => return Err(ContainerError::Body("data width code")),
    })
}

/// The ISA a unit's instructions belong to, inferred from the first
/// instruction entry (directive-only units are tagged x86-64, the
/// historical default — their decode is ISA-independent anyway).
pub fn unit_isa(entries: &[Entry]) -> IsaId {
    entries
        .iter()
        .find_map(Entry::insn_any)
        .map(Insn::isa)
        .unwrap_or(IsaId::X86_64)
}

/// Serialize `entries` into a self-contained snapshot keyed by `key`.
pub fn encode(entries: &[Entry], key: u128) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(entries.len() * 12 + 64),
        strings: std::collections::HashMap::new(),
        table: Vec::new(),
    };
    // Entries are encoded first (into a scratch) so the string table they
    // populate can be written ahead of them in the body.
    w.varint(entries.len() as u64);
    for e in entries {
        w.entry(e);
    }
    let entry_bytes = std::mem::take(&mut w.buf);
    let table = std::mem::take(&mut w.table);

    let capacity = entry_bytes.len() + table.len() * 12 + 16;
    let isa = Some(unit_isa(entries));
    container::seal(Kind::Snapshot, isa, key, capacity, |body| {
        w.buf = std::mem::take(body);
        w.varint(table.len() as u64);
        for s in &table {
            w.varint(s.len() as u64);
            w.buf.extend_from_slice(s.as_bytes());
        }
        w.buf.extend_from_slice(&entry_bytes);
        *body = w.buf;
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode cursor. The hot path decodes ~10 bytes per entry, so the
/// primitives are slice-splitting (`split_first`/`split_first_chunk`) with
/// `#[inline(always)]`: one compare per read, no position arithmetic, and
/// the compiler keeps the cursor in registers across an entry.
struct Reader<'a, 's> {
    rest: &'a [u8],
    syms: &'s [Sym],
}

impl<'a, 's> Reader<'a, 's> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if n > self.rest.len() {
            return Err(ContainerError::Body("truncated body"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, ContainerError> {
        match self.rest.split_first() {
            Some((&b, tail)) => {
                self.rest = tail;
                Ok(b)
            }
            None => Err(ContainerError::Body("truncated body")),
        }
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, ContainerError> {
        // Single-byte fast path: the overwhelming majority of varints in a
        // snapshot (operand counts, string indices, small displacements).
        if let Some((&b, tail)) = self.rest.split_first() {
            if b < 0x80 {
                self.rest = tail;
                return Ok(u64::from(b));
            }
        }
        self.varint_multi()
    }

    fn varint_multi(&mut self) -> Result<u64, ContainerError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(ContainerError::Body("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline(always)]
    fn zigzag(&mut self) -> Result<i64, ContainerError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    #[inline(always)]
    fn sym(&mut self) -> Result<Sym, ContainerError> {
        let idx = self.varint()? as usize;
        self.syms
            .get(idx)
            .copied()
            .ok_or(ContainerError::Body("string index out of range"))
    }

    fn string(&mut self) -> Result<String, ContainerError> {
        Ok(self.sym()?.as_str().to_owned())
    }

    #[inline(always)]
    fn reg(&mut self) -> Result<Reg, ContainerError> {
        let (id, wb) = match self.rest.split_first_chunk::<2>() {
            Some((&[id, wb], tail)) => {
                self.rest = tail;
                (id, wb)
            }
            None => return Err(ContainerError::Body("truncated body")),
        };
        let id = RegId::from_index(id as usize).ok_or(ContainerError::Body("register id"))?;
        let width = width_from_code(wb & 0x7f)?.ok_or(ContainerError::Body("register width"))?;
        Ok(Reg {
            id,
            width,
            high8: wb & 0x80 != 0,
        })
    }

    #[inline]
    fn mem(&mut self) -> Result<Mem, ContainerError> {
        let flags = self.u8()?;
        let base = if flags & 1 != 0 {
            Some(self.reg()?)
        } else {
            None
        };
        let index = if flags & 2 != 0 {
            Some(self.reg()?)
        } else {
            None
        };
        let scale = 1u8 << ((flags >> 2) & 0x3);
        let disp = match (flags >> 4) & 0x3 {
            0 => Disp::None,
            1 => Disp::Imm(self.zigzag()?),
            2 => Disp::Symbol {
                name: self.sym()?,
                addend: self.zigzag()?,
            },
            _ => return Err(ContainerError::Body("displacement kind")),
        };
        Ok(Mem {
            disp,
            base,
            index,
            scale,
        })
    }

    #[inline]
    fn operand(&mut self) -> Result<Operand, ContainerError> {
        Ok(match self.u8()? {
            0 => Operand::Imm(self.zigzag()?),
            1 => Operand::Reg(self.reg()?),
            2 => Operand::Mem(self.mem()?),
            3 => Operand::Label(self.sym()?),
            4 => Operand::IndirectReg(self.reg()?),
            5 => Operand::IndirectMem(self.mem()?),
            _ => return Err(ContainerError::Body("operand tag")),
        })
    }

    #[inline]
    fn a64_reg(&mut self) -> Result<A64Reg, ContainerError> {
        let b = self.u8()?;
        let num = b & 0x3f;
        if num > 31 {
            return Err(ContainerError::Body("a64 register number"));
        }
        Ok(A64Reg {
            num,
            is64: b & 0x40 != 0,
            sp: b & 0x80 != 0,
        })
    }

    #[inline]
    fn a64_operand(&mut self) -> Result<A64Operand, ContainerError> {
        Ok(match self.u8()? {
            0 => A64Operand::Reg(self.a64_reg()?),
            1 => A64Operand::Imm(self.zigzag()?),
            2 => A64Operand::Mem {
                base: self.a64_reg()?,
                offset: self.zigzag()?,
            },
            3 => A64Operand::Label(self.sym()?),
            _ => return Err(ContainerError::Body("a64 operand tag")),
        })
    }

    #[inline]
    fn a64_insn(&mut self) -> Result<A64Insn, ContainerError> {
        let code = match self.rest.split_first_chunk::<2>() {
            Some((&[c0, c1], tail)) => {
                self.rest = tail;
                u16::from_le_bytes([c0, c1])
            }
            None => return Err(ContainerError::Body("truncated body")),
        };
        let mnemonic = A64Mnemonic::from_snapshot_code(code)
            .ok_or(ContainerError::Body("a64 mnemonic code"))?;
        let n = self.varint()? as usize;
        if n > 4 {
            return Err(ContainerError::Body("a64 operand count"));
        }
        let mut operands = Vec::with_capacity(n);
        for _ in 0..n {
            operands.push(self.a64_operand()?);
        }
        Ok(A64Insn { mnemonic, operands })
    }

    #[inline]
    fn insn(&mut self) -> Result<Instruction, ContainerError> {
        // One 3-byte chunk read for the fixed head (code + flags).
        let (code, flags) = match self.rest.split_first_chunk::<3>() {
            Some((&[c0, c1, flags], tail)) => {
                self.rest = tail;
                (u16::from_le_bytes([c0, c1]), flags)
            }
            None => return Err(ContainerError::Body("truncated body")),
        };
        let mnemonic =
            Mnemonic::from_snapshot_code(code).ok_or(ContainerError::Body("mnemonic code"))?;
        let op_width = width_from_code(flags & 0x7)?;
        let src_width = width_from_code((flags >> 3) & 0x7)?;
        let lock = flags & 0x40 != 0;
        let n = self.varint()? as usize;
        if n > MAX_OPERANDS {
            return Err(ContainerError::Body("operand count"));
        }
        let mut operands = Operands::new();
        for _ in 0..n {
            operands.push(self.operand()?);
        }
        Ok(Instruction {
            mnemonic,
            op_width,
            src_width,
            lock,
            operands,
        })
    }

    /// Decode one entry directly into `out` (pushing rather than returning
    /// keeps the ~112-byte `Entry` from being moved through two stack
    /// copies per entry on the hot decode path).
    fn entry_into(&mut self, out: &mut Vec<Entry>) -> Result<(), ContainerError> {
        out.push(match self.u8()? {
            0 => Entry::Label(self.sym()?),
            1 => Entry::Insn(Insn::X86(self.insn()?)),
            13 => Entry::Insn(Insn::A64(self.a64_insn()?)),
            2 => {
                let name = self.sym()?;
                let n = self.varint()? as usize;
                if n > 64 {
                    return Err(ContainerError::Body("section arg count"));
                }
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.string()?);
                }
                Entry::Directive(Directive::Section { name, args })
            }
            3 => Entry::Directive(Directive::Global(self.sym()?)),
            4 => Entry::Directive(Directive::Type {
                symbol: self.sym()?,
                kind: self.sym()?,
            }),
            5 => Entry::Directive(Directive::Size {
                symbol: self.sym()?,
                expr: self.string()?,
            }),
            6 => {
                let flags = self.u8()?;
                let alignment = self.varint()?;
                let fill = if flags & 1 != 0 {
                    Some(self.u8()?)
                } else {
                    None
                };
                let max_skip = if flags & 2 != 0 {
                    Some(self.varint()?)
                } else {
                    None
                };
                Entry::Directive(Directive::Align(Align {
                    alignment,
                    fill,
                    max_skip,
                    p2_form: flags & 4 != 0,
                }))
            }
            7 => {
                let width = data_width_from_code(self.u8()?)?;
                let n = self.varint()? as usize;
                if n > 1 << 24 {
                    return Err(ContainerError::Body("data item count"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(match self.u8()? {
                        0 => DataItem::Imm(self.zigzag()?),
                        1 => DataItem::Symbol(self.sym()?),
                        _ => return Err(ContainerError::Body("data item tag")),
                    });
                }
                Entry::Directive(Directive::Data { width, items })
            }
            8 => Entry::Directive(Directive::Ascii(self.string()?)),
            9 => Entry::Directive(Directive::Asciz(self.string()?)),
            10 => Entry::Directive(Directive::Zero(self.varint()?)),
            11 => {
                let symbol = self.sym()?;
                let size = self.varint()?;
                let align = match self.u8()? {
                    0 => None,
                    1 => Some(self.varint()?),
                    _ => return Err(ContainerError::Body("comm align flag")),
                };
                Entry::Directive(Directive::Comm {
                    symbol,
                    size,
                    align,
                })
            }
            12 => Entry::Directive(Directive::Other {
                name: self.sym()?,
                args: self.string()?,
            }),
            _ => return Err(ContainerError::Body("entry tag")),
        });
        Ok(())
    }
}

/// The content key embedded in a snapshot, without a full decode.
///
/// Validates the container (the cheap part) so callers can reject junk
/// before trusting the key.
pub fn snapshot_key(bytes: &[u8]) -> Result<u128, ContainerError> {
    Ok(container::read(bytes, Kind::Snapshot)?.key)
}

/// The ISA tag stamped in a snapshot's header, without a full decode.
pub fn snapshot_isa(bytes: &[u8]) -> Result<IsaId, ContainerError> {
    let isa = container::read(bytes, Kind::Snapshot)?.isa;
    IsaId::from_tag(isa).ok_or(ContainerError::WrongIsa(isa))
}

/// A loaded (validated, indexed) snapshot whose entries decode on demand.
///
/// This is the mmap-style load boundary: [`Snapshot::load`] verifies the
/// container (magic, kind, version, length, checksum), checks the content key,
/// and interns the string table — everything a consumer must pay *before
/// the first entry* — but touches none of the entry region. Entries are
/// then decoded straight out of the borrowed byte buffer, either streamed
/// one at a time ([`Snapshot::iter`], constant memory) or materialized in
/// full ([`Snapshot::to_entries`]). Load cost is therefore proportional to
/// the string table, not the unit, which is what makes a snapshot hit
/// cheap even for units whose entry list is tens of megabytes in IR form.
pub struct Snapshot<'a> {
    key: u128,
    isa: IsaId,
    syms: Vec<Sym>,
    entry_bytes: &'a [u8],
    nentries: usize,
}

impl<'a> Snapshot<'a> {
    /// Validate a snapshot and index its string table, without decoding
    /// entries.
    ///
    /// When `expected_key` is given, the embedded content key must match —
    /// protecting content-addressed stores from hash-collision filename
    /// mixups, exactly like the result cache's `WrongKey` check.
    pub fn load(
        bytes: &'a [u8],
        expected_key: Option<u128>,
    ) -> Result<Snapshot<'a>, ContainerError> {
        let framed = container::read(bytes, Kind::Snapshot)?;
        let isa = IsaId::from_tag(framed.isa).ok_or(ContainerError::WrongIsa(framed.isa))?;
        let key = framed.key;
        if expected_key.is_some_and(|expect| expect != key) {
            return Err(ContainerError::WrongKey);
        }
        let mut r = Reader {
            rest: framed.body,
            syms: &[],
        };
        let nstrings = r.varint()? as usize;
        if nstrings > 1 << 24 {
            return Err(ContainerError::Body("string table size"));
        }
        // Every string costs at least one body byte, so a lying count cannot
        // force an allocation larger than the snapshot itself.
        let mut syms = Vec::with_capacity(nstrings.min(r.rest.len()));
        for _ in 0..nstrings {
            let len = r.varint()? as usize;
            let raw = r.take(len)?;
            let s =
                std::str::from_utf8(raw).map_err(|_| ContainerError::Body("string not UTF-8"))?;
            syms.push(Sym::intern(s));
        }
        let nentries = r.varint()? as usize;
        if nentries > 1 << 28 {
            return Err(ContainerError::Body("entry count"));
        }
        Ok(Snapshot {
            key,
            isa,
            syms,
            entry_bytes: r.rest,
            nentries,
        })
    }

    /// The content key embedded at encode time.
    pub fn key(&self) -> u128 {
        self.key
    }

    /// The ISA tag stamped at encode time.
    pub fn isa(&self) -> IsaId {
        self.isa
    }

    /// Number of entries in the snapshot.
    pub fn len(&self) -> usize {
        self.nentries
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.nentries == 0
    }

    /// Decode every entry into a `Vec` (the eager path the optimizer
    /// pipeline uses — it needs the whole unit).
    pub fn to_entries(&self) -> Result<Vec<Entry>, ContainerError> {
        let mut r = Reader {
            rest: self.entry_bytes,
            syms: &self.syms,
        };
        // One body byte per entry minimum bounds the reservation even if
        // the count lies.
        let mut entries = Vec::with_capacity(self.nentries.min(r.rest.len()));
        for _ in 0..self.nentries {
            r.entry_into(&mut entries)?;
        }
        if !r.rest.is_empty() {
            return Err(ContainerError::Body("trailing bytes"));
        }
        Ok(entries)
    }

    /// Stream entries one at a time without materializing the unit.
    ///
    /// Constant memory: suited to consumers that fold over the entry list
    /// (counting, re-emission, differential comparison).
    pub fn iter(&self) -> SnapshotEntries<'a, '_> {
        SnapshotEntries {
            r: Reader {
                rest: self.entry_bytes,
                syms: &self.syms,
            },
            remaining: self.nentries,
            scratch: Vec::with_capacity(1),
        }
    }
}

/// Streaming entry iterator over a loaded [`Snapshot`].
///
/// Yields `Err` at most once (on a malformed entry region) and then stops;
/// a fully consumed iterator that never errored has decoded exactly the
/// entries `to_entries` would have produced.
pub struct SnapshotEntries<'a, 's> {
    r: Reader<'a, 's>,
    remaining: usize,
    scratch: Vec<Entry>,
}

impl Iterator for SnapshotEntries<'_, '_> {
    type Item = Result<Entry, ContainerError>;

    fn next(&mut self) -> Option<Result<Entry, ContainerError>> {
        if self.remaining == 0 {
            if !self.r.rest.is_empty() {
                self.r.rest = &[];
                return Some(Err(ContainerError::Body("trailing bytes")));
            }
            return None;
        }
        self.remaining -= 1;
        self.scratch.clear();
        match self.r.entry_into(&mut self.scratch) {
            Ok(()) => self.scratch.pop().map(Ok),
            Err(e) => {
                self.remaining = 0;
                self.r.rest = &[];
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining + 1))
    }
}

/// Decode a snapshot back into the entry list (load + full materialization).
pub fn decode(bytes: &[u8], expected_key: Option<u128>) -> Result<Vec<Entry>, ContainerError> {
    Snapshot::load(bytes, expected_key)?.to_entries()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const SAMPLE: &str = "\t.text\n\t.globl main\n\t.type main, @function\nmain:\n\tpushq \
                          %rbp\n\tmovq %rsp, %rbp\n\tmovl $0, -4(%rbp)\n.L2:\n\tcmpl $9, \
                          -4(%rbp)\n\tjg .L4\n\tlock addl $1, counter(%rip)\n\taddl $1, \
                          -4(%rbp)\n\tjmp .L2\n.L4:\n\tleave\n\tret\n\t.size main, \
                          .-main\n\t.section .rodata,\"a\",@progbits\n.LC0:\n\t.quad .L2\n\t\
                          .quad .L4, 8\n\t.long 42\n\t.string \"hi\\n\"\n\t.ascii \"raw\"\n\t\
                          .zero 16\n\t.comm buf,64,32\n\t.p2align 4,,15\n\t.align 8\n\t.byte \
                          1, 2, 3\n\tsete %al\n\tcmovge %eax, %ebx\n\tjmp *tab(,%rax,8)\n\t\
                          call *%rdx\n\tmovsbl 1(%rdi,%r8,4), %edx\n\t.ident \"x\"\n";

    #[test]
    fn roundtrip_paper_style_unit() {
        let entries = parse(SAMPLE).unwrap();
        let key = content_key(SAMPLE);
        let bytes = encode(&entries, key);
        assert_eq!(snapshot_key(&bytes).unwrap(), key);
        let back = decode(&bytes, Some(key)).unwrap();
        assert_eq!(entries, back);
    }

    #[test]
    fn snapshot_is_more_compact_than_text() {
        let entries = parse(SAMPLE).unwrap();
        let bytes = encode(&entries, 0);
        assert!(
            bytes.len() < SAMPLE.len(),
            "snapshot {}B not smaller than text {}B",
            bytes.len(),
            SAMPLE.len()
        );
    }

    #[test]
    fn wrong_key_is_rejected() {
        let entries = parse("nop\n").unwrap();
        let bytes = encode(&entries, 7);
        assert_eq!(decode(&bytes, Some(8)), Err(ContainerError::WrongKey));
        assert!(decode(&bytes, Some(7)).is_ok());
        assert!(decode(&bytes, None).is_ok());
    }

    #[test]
    fn mnemonic_codes_roundtrip_all_families() {
        use mao_x86::flags::Cond;
        for m in Mnemonic::ALL {
            match m {
                Mnemonic::Jcc(_) | Mnemonic::Setcc(_) | Mnemonic::Cmovcc(_) => {
                    for c in Cond::ALL {
                        let v = m.with_cond(c);
                        assert_eq!(Mnemonic::from_snapshot_code(v.snapshot_code()), Some(v));
                    }
                }
                other => {
                    assert_eq!(
                        Mnemonic::from_snapshot_code(other.snapshot_code()),
                        Some(other)
                    );
                }
            }
        }
        assert_eq!(Mnemonic::from_snapshot_code(0x9999), None);
    }

    #[test]
    fn a64_units_round_trip_with_isa_tag() {
        let text = "// leaf function\nf:\n\tsub\tsp, sp, #16\n\tstr\tx19, [sp, #8]\n\tmov\tx19, \
                    x0\n.L1:\n\tcmp\tx19, #0\n\tb.eq\t.L2\n\tsub\tx19, x19, #1\n\tb\t.L1\n.L2:\n\t\
                    ldr\tx19, [sp, #8]\n\tadd\tsp, sp, #16\n\tret\n";
        let entries = crate::parse_isa(text, IsaId::Aarch64).unwrap();
        let key = content_key(text);
        let bytes = encode(&entries, key);
        assert_eq!(snapshot_isa(&bytes).unwrap(), IsaId::Aarch64);
        let snap = Snapshot::load(&bytes, Some(key)).unwrap();
        assert_eq!(snap.isa(), IsaId::Aarch64);
        assert_eq!(snap.to_entries().unwrap(), entries);
    }

    #[test]
    fn x86_units_carry_the_x86_isa_tag() {
        let entries = parse("nop\n").unwrap();
        let bytes = encode(&entries, 0);
        assert_eq!(snapshot_isa(&bytes).unwrap(), IsaId::X86_64);
        // Directive-only units default to the x86 tag.
        let entries = parse(".text\n").unwrap();
        assert_eq!(snapshot_isa(&encode(&entries, 0)).unwrap(), IsaId::X86_64);
    }

    #[test]
    fn content_key_is_stable_and_sensitive() {
        let a = content_key("nop\n");
        assert_eq!(a, content_key("nop\n"));
        assert_ne!(a, content_key("nop \n"));
    }
}
