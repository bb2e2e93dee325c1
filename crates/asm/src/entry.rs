//! Assembly-file entries: the node type of the "one long list" IR.
//!
//! The paper: *"After parsing, all assembly directives and instructions form
//! one long list of MAO IR nodes."* An [`Entry`] is one such node — a label,
//! an instruction, or a directive. The `mao` crate layers sections,
//! functions and iterators on top of a `Vec<Entry>`.

use std::fmt;

use mao_isa::Insn;
use mao_x86::sym::Sym;
use mao_x86::text::{display_via, push_i64, push_u64};
use mao_x86::Instruction;

/// A value inside a data directive (`.long 4`, `.quad .L42`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataItem {
    /// Constant value.
    Imm(i64),
    /// Symbol reference (jump tables are `.quad .Lnn` lists).
    Symbol(Sym),
}

impl DataItem {
    /// Append the item's spelling.
    pub fn write_text(&self, out: &mut String) {
        match self {
            DataItem::Imm(v) => push_i64(out, *v),
            DataItem::Symbol(s) => out.push_str(s.as_str()),
        }
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

/// Width of a data directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataWidth {
    /// `.byte`
    Byte,
    /// `.word` / `.value` (2 bytes)
    Word,
    /// `.long` / `.int` (4 bytes)
    Long,
    /// `.quad` (8 bytes)
    Quad,
}

impl DataWidth {
    /// Size in bytes of one item.
    pub fn bytes(self) -> u64 {
        match self {
            DataWidth::Byte => 1,
            DataWidth::Word => 2,
            DataWidth::Long => 4,
            DataWidth::Quad => 8,
        }
    }

    /// Directive spelling.
    pub fn name(self) -> &'static str {
        match self {
            DataWidth::Byte => ".byte",
            DataWidth::Word => ".word",
            DataWidth::Long => ".long",
            DataWidth::Quad => ".quad",
        }
    }
}

/// An alignment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Align {
    /// Alignment in bytes (always a power of two).
    pub alignment: u64,
    /// Optional fill byte (x86 text sections default to NOP fill).
    pub fill: Option<u8>,
    /// Maximum bytes to skip; alignment is abandoned if it would need more.
    pub max_skip: Option<u64>,
    /// Was this written as `.p2align` (exponent form) or `.align`?
    pub p2_form: bool,
}

impl Align {
    /// A plain `.p2align n` request for 2^n-byte alignment.
    pub fn p2(n: u32) -> Align {
        Align {
            alignment: 1 << n,
            fill: None,
            max_skip: None,
            p2_form: true,
        }
    }
}

/// An assembly directive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Directive {
    /// `.text`, `.data`, `.bss`, `.section name[,flags]`.
    Section {
        /// Section name (`.text`, `.rodata`, ...).
        name: Sym,
        /// Raw flag arguments, passed through verbatim.
        args: Vec<String>,
    },
    /// `.globl sym` / `.global sym`.
    Global(Sym),
    /// `.type sym, @kind`.
    Type {
        /// Symbol name.
        symbol: Sym,
        /// Kind (`function`, `object`, ...), without the `@`.
        kind: Sym,
    },
    /// `.size sym, expr` (expression kept verbatim).
    Size {
        /// Symbol name.
        symbol: Sym,
        /// Size expression, e.g. `.-main`.
        expr: String,
    },
    /// `.align` / `.p2align` / `.balign`.
    Align(Align),
    /// `.byte`/`.word`/`.long`/`.quad` with one or more items.
    Data {
        /// Item width.
        width: DataWidth,
        /// The values.
        items: Vec<DataItem>,
    },
    /// `.ascii "..."` (no trailing NUL).
    Ascii(String),
    /// `.asciz`/`.string "..."` (NUL-terminated).
    Asciz(String),
    /// `.zero n` / `.skip n`.
    Zero(u64),
    /// `.comm sym, size[, align]`.
    Comm {
        /// Symbol name.
        symbol: Sym,
        /// Size in bytes.
        size: u64,
        /// Optional alignment.
        align: Option<u64>,
    },
    /// Any directive MAO does not interpret (`.file`, `.ident`, `.cfi_*`,
    /// ...), passed through verbatim.
    Other {
        /// Directive name including the leading dot.
        name: Sym,
        /// Raw argument text.
        args: String,
    },
}

impl Directive {
    /// Does this directive change the current section?
    pub fn section_name(&self) -> Option<&str> {
        match self {
            Directive::Section { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }

    /// Size contribution in bytes for address computation, if statically
    /// known (data, strings, zero-fill; alignment is handled separately).
    pub fn data_size(&self) -> Option<u64> {
        match self {
            Directive::Data { width, items } => Some(width.bytes() * items.len() as u64),
            Directive::Ascii(s) => Some(s.len() as u64),
            Directive::Asciz(s) => Some(s.len() as u64 + 1),
            Directive::Zero(n) => Some(*n),
            _ => None,
        }
    }
}

/// Append `name "s"`, escaping what `.ascii`/`.asciz` need (`"`, `\\`,
/// `\n`, `\t`, `\r`, NUL); runs without escapes are copied whole.
fn push_string(out: &mut String, name: &str, s: &str) {
    out.push_str(name);
    out.push_str(" \"");
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            b'\0' => "\\0",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` is on char boundaries.
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl Directive {
    /// Append the directive's spelling, without indentation.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Directive::Section { name, args } => {
                if matches!(name.as_str(), ".text" | ".data" | ".bss") && args.is_empty() {
                    out.push_str(name.as_str());
                } else {
                    out.push_str(".section ");
                    out.push_str(name.as_str());
                    for a in args {
                        out.push(',');
                        out.push_str(a);
                    }
                }
            }
            Directive::Global(s) => {
                out.push_str(".globl ");
                out.push_str(s.as_str());
            }
            Directive::Type { symbol, kind } => {
                out.push_str(".type ");
                out.push_str(symbol.as_str());
                out.push_str(", @");
                out.push_str(kind.as_str());
            }
            Directive::Size { symbol, expr } => {
                out.push_str(".size ");
                out.push_str(symbol.as_str());
                out.push_str(", ");
                out.push_str(expr);
            }
            Directive::Align(a) => {
                if a.p2_form {
                    out.push_str(".p2align ");
                    push_u64(out, u64::from(a.alignment.trailing_zeros()));
                } else {
                    out.push_str(".align ");
                    push_u64(out, a.alignment);
                }
                if let Some(fill) = a.fill {
                    out.push(',');
                    push_u64(out, u64::from(fill));
                }
                if let Some(max) = a.max_skip {
                    out.push_str(if a.fill.is_some() { "," } else { ",," });
                    push_u64(out, max);
                }
            }
            Directive::Data { width, items } => {
                out.push_str(width.name());
                out.push(' ');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_text(out);
                }
            }
            Directive::Ascii(s) => push_string(out, ".ascii", s),
            Directive::Asciz(s) => push_string(out, ".asciz", s),
            Directive::Zero(n) => {
                out.push_str(".zero ");
                push_u64(out, *n);
            }
            Directive::Comm {
                symbol,
                size,
                align,
            } => {
                out.push_str(".comm ");
                out.push_str(symbol.as_str());
                out.push(',');
                push_u64(out, *size);
                if let Some(a) = align {
                    out.push(',');
                    push_u64(out, *a);
                }
            }
            Directive::Other { name, args } => {
                out.push_str(name.as_str());
                if !args.is_empty() {
                    out.push(' ');
                    out.push_str(args);
                }
            }
        }
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

/// One node of the parsed assembly file.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Entry {
    /// `name:`
    Label(Sym),
    /// A machine instruction (any ISA; see [`mao_isa::Insn`]).
    Insn(Insn),
    /// An assembler directive.
    Directive(Directive),
}

impl Entry {
    /// The x86 instruction, if this entry is one. Entries from other
    /// ISAs return `None` — x86-only passes see through this accessor
    /// and naturally skip foreign instructions.
    pub fn insn(&self) -> Option<&Instruction> {
        match self {
            Entry::Insn(Insn::X86(i)) => Some(i),
            _ => None,
        }
    }

    /// Mutable x86 instruction access (see [`Entry::insn`]).
    pub fn insn_mut(&mut self) -> Option<&mut Instruction> {
        match self {
            Entry::Insn(Insn::X86(i)) => Some(i),
            _ => None,
        }
    }

    /// The instruction of any ISA, if this entry is one.
    pub fn insn_any(&self) -> Option<&Insn> {
        match self {
            Entry::Insn(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable ISA-neutral instruction access.
    pub fn insn_any_mut(&mut self) -> Option<&mut Insn> {
        match self {
            Entry::Insn(i) => Some(i),
            _ => None,
        }
    }

    /// The label name, if this entry is a label.
    pub fn label(&self) -> Option<&str> {
        match self {
            Entry::Label(l) => Some(l.as_str()),
            _ => None,
        }
    }

    /// The directive, if this entry is one.
    pub fn directive(&self) -> Option<&Directive> {
        match self {
            Entry::Directive(d) => Some(d),
            _ => None,
        }
    }

    /// Append the entry's line, without the newline: `name:` for a label,
    /// a tab then the instruction or directive otherwise.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Entry::Label(l) => {
                out.push_str(l.as_str());
                out.push(':');
            }
            Entry::Insn(i) => {
                out.push('\t');
                i.write_text(out);
            }
            Entry::Directive(d) => {
                out.push('\t');
                d.write_text(out);
            }
        }
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_via(f, |out| self.write_text(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_display() {
        let d = Directive::Section {
            name: ".text".into(),
            args: vec![],
        };
        assert_eq!(d.to_string(), ".text");
        let d = Directive::Section {
            name: ".rodata".into(),
            args: vec![],
        };
        assert_eq!(d.to_string(), ".section .rodata");
        let d = Directive::Align(Align::p2(4));
        assert_eq!(d.to_string(), ".p2align 4");
        let d = Directive::Align(Align {
            alignment: 16,
            fill: None,
            max_skip: Some(15),
            p2_form: true,
        });
        assert_eq!(d.to_string(), ".p2align 4,,15");
    }

    #[test]
    fn data_directive() {
        let d = Directive::Data {
            width: DataWidth::Quad,
            items: vec![DataItem::Symbol(".L4".into()), DataItem::Imm(0)],
        };
        assert_eq!(d.to_string(), ".quad .L4, 0");
        assert_eq!(d.data_size(), Some(16));
    }

    #[test]
    fn string_escaping() {
        let d = Directive::Asciz("a\"b\n".into());
        assert_eq!(d.to_string(), ".asciz \"a\\\"b\\n\"");
        assert_eq!(d.data_size(), Some(5));
    }

    #[test]
    fn entry_accessors() {
        let e = Entry::Label(".L1".into());
        assert_eq!(e.label(), Some(".L1"));
        assert!(e.insn().is_none());
        let e = Entry::Insn(Instruction::nop().into());
        assert!(e.insn().is_some());
        assert!(e.insn_any().is_some());
        let a64 = Entry::Insn(mao_aarch64::A64Insn::nop().into());
        assert!(a64.insn().is_none(), "x86 view must skip A64 entries");
        assert_eq!(
            a64.insn_any().map(|i| i.isa()),
            Some(mao_isa::IsaId::Aarch64)
        );
        assert_eq!(a64.to_string(), "\tnop");
    }
}
