//! Textual assembly emission.
//!
//! MAO's output is another assembly file that flows through the standard
//! toolchain. Emission is the inverse of parsing: `parse(emit(entries))`
//! yields an equal entry list (the identity-transform property the paper
//! verifies by disassembling object files, §III.A).
//!
//! Emission is one byte writer. [`emit`] reserves a single `String` close
//! to the final size and each entry appends its line through its
//! `write_text` method ([`Entry::write_text`] down to
//! `mao_x86::Reg::write_text`), using only `push`/`push_str`: mnemonic,
//! condition and register spellings are static tables, integers go through
//! `mao_x86::text`, and nothing allocates per entry. Every `Display` impl
//! on the IR (`Entry`, `Directive`, `Instruction`, `Operand`, `Reg`,
//! `A64Insn`, ...) delegates to the same writers, so each node has exactly
//! one spelling. The `fmt`-driven emitter this replaced lives on as the
//! test-only `reference` module, the byte-identity oracle.

use crate::entry::Entry;

/// Bytes reserved per entry. The mean emitted line of `core_library(1.0)`
/// is 18.4 bytes (newline included), so a typical unit emits without
/// regrowing the buffer and reserves little it does not use.
const RESERVE_PER_ENTRY: usize = 20;

/// Render the entry list as an assembly file, one line per entry.
pub fn emit(entries: &[Entry]) -> String {
    let mut out = String::with_capacity(entries.len() * RESERVE_PER_ENTRY);
    for e in entries {
        e.write_text(&mut out);
        out.push('\n');
    }
    out
}

/// The `fmt`-driven emitter [`emit`] replaced, kept verbatim (behind
/// newtype wrappers, since the IR's own `Display` impls now delegate to the
/// byte writer) as the oracle the differential tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use std::fmt::{self, Write as _};

    use mao_aarch64::{A64Insn, A64Mnemonic, A64Operand, A64Reg};
    use mao_isa::Insn;
    use mao_x86::reg::REG_NAME_LIST;
    use mao_x86::{Disp, Instruction, Mem, Mnemonic, Operand, Reg, Width};

    use crate::entry::{DataItem, Directive, Entry};

    /// Render the entry list as an assembly file.
    pub fn emit(entries: &[Entry]) -> String {
        let mut out = String::new();
        for e in entries {
            // Entry::Display already handles per-kind indentation.
            let _ = writeln!(out, "{}", R(e));
        }
        out
    }

    /// Displays the wrapped node with the reference spelling.
    pub struct R<'a, T>(pub &'a T);

    impl fmt::Display for R<'_, DataItem> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                DataItem::Imm(v) => write!(f, "{v}"),
                DataItem::Symbol(s) => write!(f, "{s}"),
            }
        }
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                '\0' => out.push_str("\\0"),
                c => out.push(c),
            }
        }
        out
    }

    impl fmt::Display for R<'_, Directive> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Directive::Section { name, args } => {
                    if matches!(name.as_str(), ".text" | ".data" | ".bss") && args.is_empty() {
                        write!(f, "{name}")
                    } else {
                        write!(f, ".section {name}")?;
                        for a in args {
                            write!(f, ",{a}")?;
                        }
                        Ok(())
                    }
                }
                Directive::Global(s) => write!(f, ".globl {s}"),
                Directive::Type { symbol, kind } => write!(f, ".type {symbol}, @{kind}"),
                Directive::Size { symbol, expr } => write!(f, ".size {symbol}, {expr}"),
                Directive::Align(a) => {
                    if a.p2_form {
                        write!(f, ".p2align {}", a.alignment.trailing_zeros())?;
                    } else {
                        write!(f, ".align {}", a.alignment)?;
                    }
                    match (a.fill, a.max_skip) {
                        (None, None) => Ok(()),
                        (Some(fill), None) => write!(f, ",{fill}"),
                        (None, Some(max)) => write!(f, ",,{max}"),
                        (Some(fill), Some(max)) => write!(f, ",{fill},{max}"),
                    }
                }
                Directive::Data { width, items } => {
                    write!(f, "{} ", width.name())?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", R(item))?;
                    }
                    Ok(())
                }
                Directive::Ascii(s) => write!(f, ".ascii \"{}\"", escape(s)),
                Directive::Asciz(s) => write!(f, ".asciz \"{}\"", escape(s)),
                Directive::Zero(n) => write!(f, ".zero {n}"),
                Directive::Comm {
                    symbol,
                    size,
                    align,
                } => {
                    write!(f, ".comm {symbol},{size}")?;
                    if let Some(a) = align {
                        write!(f, ",{a}")?;
                    }
                    Ok(())
                }
                Directive::Other { name, args } => {
                    if args.is_empty() {
                        write!(f, "{name}")
                    } else {
                        write!(f, "{name} {args}")
                    }
                }
            }
        }
    }

    impl fmt::Display for R<'_, Entry> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Entry::Label(l) => write!(f, "{l}:"),
                Entry::Insn(i) => write!(f, "\t{}", R(i)),
                Entry::Directive(d) => write!(f, "\t{}", R(d)),
            }
        }
    }

    impl fmt::Display for R<'_, Insn> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Insn::X86(i) => R(i).fmt(f),
                Insn::A64(i) => R(i).fmt(f),
            }
        }
    }

    /// `Mnemonic::att_base` as it was: the conditional families are
    /// formatted from the condition suffix.
    fn att_base(m: Mnemonic) -> String {
        match m {
            Mnemonic::Jcc(c) => format!("j{}", c.att_suffix()),
            Mnemonic::Setcc(c) => format!("set{}", c.att_suffix()),
            Mnemonic::Cmovcc(c) => format!("cmov{}", c.att_suffix()),
            other => other.att_base().to_string(),
        }
    }

    /// `Instruction::att_mnemonic` as it was.
    fn att_mnemonic(i: &Instruction) -> String {
        match i.mnemonic {
            Mnemonic::Movsx | Mnemonic::Movzx => {
                let from = i.src_width.and_then(Width::att_suffix).unwrap_or('b');
                let to = i.op_width.and_then(Width::att_suffix).unwrap_or('l');
                format!("{}{}{}", att_base(i.mnemonic), from, to)
            }
            Mnemonic::Setcc(_) => att_base(i.mnemonic),
            _ => {
                let base = att_base(i.mnemonic);
                if i.mnemonic.takes_size_suffix() {
                    if let Some(suffix) = i.op_width.and_then(Width::att_suffix) {
                        return format!("{base}{suffix}");
                    }
                }
                base
            }
        }
    }

    impl fmt::Display for R<'_, Instruction> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.0.lock {
                write!(f, "lock ")?;
            }
            write!(f, "{}", att_mnemonic(self.0))?;
            for (i, op) in self.0.operands.iter().enumerate() {
                if i == 0 {
                    write!(f, " ")?;
                } else {
                    write!(f, ", ")?;
                }
                write!(f, "{}", R(op))?;
            }
            Ok(())
        }
    }

    impl fmt::Display for R<'_, Disp> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Disp::None => Ok(()),
                Disp::Imm(v) => write!(f, "{v}"),
                Disp::Symbol { name, addend } => {
                    write!(f, "{name}")?;
                    if *addend != 0 {
                        write!(f, "{addend:+}")?;
                    }
                    Ok(())
                }
            }
        }
    }

    impl fmt::Display for R<'_, Mem> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", R(&self.0.disp))?;
            if self.0.base.is_some() || self.0.index.is_some() {
                write!(f, "(")?;
                if let Some(b) = &self.0.base {
                    write!(f, "{}", R(b))?;
                }
                if let Some(i) = &self.0.index {
                    write!(f, ",{},{}", R(i), self.0.scale)?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
    }

    impl fmt::Display for R<'_, Operand> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Operand::Imm(v) => write!(f, "${v}"),
                Operand::Reg(r) => write!(f, "{}", R(r)),
                Operand::Mem(m) => write!(f, "{}", R(m)),
                Operand::Label(l) => write!(f, "{l}"),
                Operand::IndirectReg(r) => write!(f, "*{}", R(r)),
                Operand::IndirectMem(m) => write!(f, "*{}", R(m)),
            }
        }
    }

    /// The register-name `if` chain as it was: the first spelling whose
    /// `(id, width, high8)` matches, else `<invalid-reg>`.
    fn att_name(r: Reg) -> &'static str {
        REG_NAME_LIST
            .iter()
            .find(|&&(_, known)| known == r)
            .map_or("<invalid-reg>", |&(name, _)| name)
    }

    impl fmt::Display for R<'_, Reg> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "%{}", att_name(*self.0))
        }
    }

    impl fmt::Display for R<'_, A64Reg> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match (self.0.num, self.0.is64, self.0.sp) {
                (31, true, true) => write!(f, "sp"),
                (31, false, true) => write!(f, "wsp"),
                (31, true, false) => write!(f, "xzr"),
                (31, false, false) => write!(f, "wzr"),
                (n, true, _) => write!(f, "x{n}"),
                (n, false, _) => write!(f, "w{n}"),
            }
        }
    }

    /// `A64Mnemonic::name` as it was.
    fn a64_name(m: A64Mnemonic) -> String {
        match m {
            A64Mnemonic::BCond(c) => format!("b.{}", c.name()),
            other => other.name().to_string(),
        }
    }

    impl fmt::Display for R<'_, A64Operand> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                A64Operand::Reg(r) => write!(f, "{}", R(r)),
                A64Operand::Imm(v) => write!(f, "#{v}"),
                A64Operand::Mem { base, offset: 0 } => write!(f, "[{}]", R(base)),
                A64Operand::Mem { base, offset } => write!(f, "[{}, #{offset}]", R(base)),
                A64Operand::Label(s) => write!(f, "{}", s.as_str()),
            }
        }
    }

    impl fmt::Display for R<'_, A64Insn> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", a64_name(self.0.mnemonic))?;
            for (i, op) in self.0.operands.iter().enumerate() {
                if i == 0 {
                    write!(f, "\t{}", R(op))?;
                } else {
                    write!(f, ", {}", R(op))?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SAMPLE: &str = r#"
	.text
	.globl	main
	.type	main, @function
main:
	push %rbp
	mov %rsp, %rbp
	movl $5, -4(%rbp)
	jmp .L2
.L1:
	addl $1, -4(%rbp)
	subl $1, -4(%rbp)
.L2:
	cmpl $0, -4(%rbp)
	jne .L1
	pop %rbp
	ret
	.size	main, .-main
	.section	.rodata,"a",@progbits
.LC0:
	.quad	.L1
	.string	"hi\n"
"#;

    #[test]
    fn parse_emit_parse_is_identity() {
        let first = parse(SAMPLE).unwrap();
        let text = emit(&first);
        let second = parse(&text).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn emit_emits_one_line_per_entry() {
        let entries = parse("nop\nnop\n").unwrap();
        let text = emit(&entries);
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn nop_length_survives_roundtrip() {
        use mao_x86::encode::{encoded_length, BranchForm};
        use mao_x86::Instruction;
        for len in 1..=6usize {
            let n = Instruction::nop_of_len(len);
            let text = emit(&[Entry::Insn(n.into())]);
            let back = parse(&text).unwrap();
            let i = back[0].insn().unwrap();
            assert_eq!(
                encoded_length(i, BranchForm::Rel32).unwrap(),
                len,
                "length {len} lost in {text:?}"
            );
        }
    }
}

/// The byte writer against the `reference` oracle: identical bytes on the
/// corpus, the paper kernels, the spec suites, an AArch64 unit and
/// generated entries, and `parse(emit(x)) == x` throughout.
#[cfg(test)]
mod differential {
    use mao_aarch64::A64Insn;
    use mao_corpus::compiler::{generate, GeneratorConfig};
    use mao_corpus::{kernels, spec};
    use mao_isa::IsaId;
    use mao_x86::reg::REG_NAME_LIST;
    use mao_x86::{Cond, Disp, Instruction, Mem, Mnemonic, Operand, Operands, Reg, Width};
    use proptest::prelude::*;

    use super::{emit, reference};
    use crate::entry::{Align, DataItem, DataWidth, Directive, Entry};
    use crate::parser::parse_isa;

    /// Same bytes as the oracle, and the text parses back to `entries`.
    fn assert_same(entries: &[Entry], isa: IsaId, what: &str) {
        let text = emit(entries);
        let oracle = reference::emit(entries);
        if text != oracle {
            let line = text
                .lines()
                .zip(oracle.lines())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("{a:?} vs oracle {b:?}"));
            panic!("{what}: byte writer differs from the reference: {line:?}");
        }
        for e in entries {
            assert_eq!(e.to_string(), format!("{}", reference::R(e)), "{what}");
        }
        let back = parse_isa(&text, isa).unwrap_or_else(|e| panic!("{what}: reparse: {e}"));
        if let Some((b, e)) = back.iter().zip(entries).find(|(b, e)| b != e) {
            panic!("{what}: parse(emit(x)) != x: {e:?} came back as {b:?} from `{e}`");
        }
        assert_eq!(back.len(), entries.len(), "{what}: parse(emit(x)) != x");
    }

    fn assert_text_same(asm: &str, isa: IsaId, what: &str) {
        let entries = parse_isa(asm, isa).unwrap_or_else(|e| panic!("{what}: parse: {e}"));
        assert_same(&entries, isa, what);
    }

    #[test]
    fn core_library_matches_the_reference() {
        let asm = generate(&GeneratorConfig::core_library(0.05)).asm;
        assert_text_same(&asm, IsaId::X86_64, "core_library(0.05)");
    }

    #[test]
    fn paper_kernels_match_the_reference() {
        for w in kernels::paper_suite(10) {
            assert_text_same(&w.asm, IsaId::X86_64, &w.name);
        }
    }

    #[test]
    fn spec_suites_match_the_reference() {
        for w in spec::spec2000_int().iter().chain(&spec::spec2006_subset()) {
            assert_text_same(&w.asm, IsaId::X86_64, &w.name);
        }
    }

    #[test]
    fn aarch64_unit_matches_the_reference() {
        let asm = include_str!("../../check/tests/fixtures/aarch64_smoke.s");
        assert_text_same(asm, IsaId::Aarch64, "aarch64_smoke.s");
        // Every register spelling, immediate extreme and b.cond.
        let mut text = String::from("f:\n");
        for n in 0..31 {
            text.push_str(&format!("\tmov\tx{n}, w{n}\n"));
        }
        text.push_str("\tmov\tsp, wsp\n\tmov\txzr, wzr\n");
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            text.push_str(&format!("\tmov\tx0, #{v}\n\tldr\tx1, [sp, #{v}]\n"));
        }
        for c in mao_aarch64::Cond::ALL {
            text.push_str(&format!("\tb.{}\tf\n", c.name()));
        }
        text.push_str("\tbl\tf\n\tb\tf\n\tret\n\tnop\n\tstr\tx2, [x3]\n\tcmp\tx1, x2\n");
        text.push_str("\tadd\tx1, x2, #3\n\tsub\tw1, w2, w3\n");
        assert_text_same(&text, IsaId::Aarch64, "aarch64 spellings");
        let nop = Entry::Insn(A64Insn::nop().into());
        assert_eq!(nop.to_string(), format!("{}", reference::R(&nop)));
    }

    /// Values at the edges of the integer writer.
    fn edge_i64() -> impl Strategy<Value = i64> {
        (
            prop::sample::select(vec![
                0,
                1,
                -1,
                9,
                10,
                -10,
                i64::from(i32::MIN),
                i64::from(u32::MAX),
                i64::MIN,
                i64::MAX,
                i64::MIN + 1,
            ]),
            any::<i64>(),
            any::<bool>(),
        )
            .prop_map(|(edge, raw, pick_edge)| if pick_edge { edge } else { raw })
    }

    fn small_u64() -> impl Strategy<Value = u64> {
        // The parser reads directive sizes as i64, so stay in its range.
        edge_i64()
            .prop_map(i64::unsigned_abs)
            .prop_map(|v| v.min(i64::MAX as u64))
    }

    fn symbol() -> impl Strategy<Value = mao_x86::Sym> {
        prop::sample::select(vec!["foo", ".L12", "main", "_Z3barv", "tab.1"])
            .prop_map(mao_x86::Sym::intern)
    }

    fn reg() -> impl Strategy<Value = Reg> {
        prop::sample::select(REG_NAME_LIST.iter().map(|&(_, r)| r).collect())
    }

    /// Memory operands with a textual form: a base or an index, or a
    /// displacement.
    fn mem() -> impl Strategy<Value = Mem> {
        (
            0u8..3,
            edge_i64(),
            symbol(),
            prop::option::of(reg()),
            prop::option::of(reg()),
            prop::sample::select(vec![1u8, 2, 4, 8]),
        )
            .prop_map(|(kind, v, name, base, index, scale)| {
                let disp = match kind {
                    0 if base.is_some() || index.is_some() => Disp::None,
                    1 | 0 => Disp::Imm(v),
                    _ => Disp::Symbol { name, addend: v },
                };
                Mem {
                    disp,
                    base,
                    scale: if index.is_some() { scale } else { 1 },
                    index,
                }
            })
    }

    fn operand(branch: bool) -> impl Strategy<Value = Operand> {
        (0u8..3, edge_i64(), reg(), mem(), symbol()).prop_map(move |(kind, v, r, m, s)| {
            match (branch, kind) {
                (false, 0) => Operand::Imm(v),
                (false, 1) => Operand::Reg(r),
                (false, _) => Operand::Mem(m),
                (true, 0) => Operand::Label(s),
                (true, 1) => Operand::IndirectReg(r),
                (true, _) => Operand::IndirectMem(m),
            }
        })
    }

    fn width() -> impl Strategy<Value = Width> {
        prop::sample::select(vec![Width::B1, Width::B2, Width::B4, Width::B8])
    }

    /// Every `(source, destination)` width pair of `movs`/`movz` (the
    /// parser reads them only when widening).
    fn widening() -> impl Strategy<Value = (Width, Width)> {
        let w = [Width::B1, Width::B2, Width::B4, Width::B8];
        let pairs = w
            .iter()
            .flat_map(|&a| w.iter().filter(move |&&b| a < b).map(move |&b| (a, b)));
        prop::sample::select(pairs.collect())
    }

    /// Every mnemonic, with every condition for the conditional families.
    /// SSE `movq` is left to [`odd_nodes_match_the_reference`]: its
    /// spelling reads back as `mov` + `q` unless an operand is an XMM
    /// register.
    fn mnemonic() -> impl Strategy<Value = Mnemonic> {
        let mut all: Vec<Mnemonic> = Mnemonic::ALL.to_vec();
        all.retain(|&m| m != Mnemonic::Movdq);
        for c in Cond::ALL {
            all.extend([Mnemonic::Jcc(c), Mnemonic::Setcc(c), Mnemonic::Cmovcc(c)]);
        }
        prop::sample::select(all)
    }

    /// Instructions in the shape the parser produces, so they round-trip:
    /// an explicit width exactly when a suffix is printed, else the width
    /// the parser infers; labels and indirect targets only on branches.
    fn instruction() -> impl Strategy<Value = Instruction> {
        (
            mnemonic(),
            width(),
            widening(),
            any::<bool>(),
            prop::collection::vec(operand(false), 0..3),
            operand(true),
        )
            .prop_map(|(mnemonic, w, (from, to), lock, plain, target)| {
                let branch = mnemonic.is_branch() || mnemonic == Mnemonic::Call;
                let operands: Operands = if branch { vec![target] } else { plain }.into();
                let (op_width, src_width) = match mnemonic {
                    Mnemonic::Movsx | Mnemonic::Movzx => (Some(to), Some(from)),
                    Mnemonic::Setcc(_) => (Some(Width::B1), None),
                    m if m.takes_size_suffix() => (Some(w), None),
                    _ => (Instruction::infer_width_of(&operands), None),
                };
                Instruction {
                    mnemonic,
                    op_width,
                    src_width,
                    lock,
                    operands,
                }
            })
    }

    /// Strings over the bytes `.ascii` escapes plus plain and non-ASCII text.
    fn string() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                "\"", "\\", "\n", "\t", "\r", "\0", "a", "Z", " ", "é", "%d",
            ]),
            0..12,
        )
        .prop_map(|parts| parts.concat())
    }

    fn directive() -> impl Strategy<Value = Directive> {
        (
            0u8..11,
            (symbol(), symbol()),
            edge_i64(),
            small_u64(),
            (0u32..33, any::<bool>(), prop::option::of(any::<u8>())),
            prop::option::of(small_u64()),
            prop::collection::vec((edge_i64(), symbol(), any::<bool>()), 1..4),
            string(),
        )
            .prop_map(
                |(kind, (sym, other), v, n, (exp, p2_form, fill), opt, items, text)| match kind {
                    0 => Directive::Section {
                        name: pick(v, &[".text", ".data", ".bss", ".rodata"]).into(),
                        args: if v % 2 == 0 {
                            vec![]
                        } else {
                            vec!["\"a\"".into(), "@progbits".into()]
                        },
                    },
                    1 => Directive::Global(sym),
                    2 => Directive::Type {
                        symbol: sym,
                        kind: pick(v, &["function", "object"]).into(),
                    },
                    3 => Directive::Size {
                        symbol: sym,
                        expr: format!(".-{other}"),
                    },
                    4 => Directive::Align(Align {
                        alignment: 1 << exp,
                        fill,
                        max_skip: opt,
                        p2_form,
                    }),
                    5 => Directive::Data {
                        width: [
                            DataWidth::Byte,
                            DataWidth::Word,
                            DataWidth::Long,
                            DataWidth::Quad,
                        ][(n % 4) as usize],
                        items: items
                            .into_iter()
                            .map(|(v, s, is_sym)| {
                                if is_sym {
                                    DataItem::Symbol(s)
                                } else {
                                    DataItem::Imm(v)
                                }
                            })
                            .collect(),
                    },
                    6 => Directive::Ascii(text),
                    7 => Directive::Asciz(text),
                    8 => Directive::Zero(n),
                    9 => Directive::Comm {
                        symbol: sym,
                        size: n,
                        align: opt,
                    },
                    _ => Directive::Other {
                        name: pick(v, &[".file", ".ident", ".cfi_startproc", ".loc"]).into(),
                        args: if v % 3 == 0 {
                            String::new()
                        } else {
                            text.replace('\n', " ").trim().into()
                        },
                    },
                },
            )
    }

    fn pick(v: i64, choices: &[&'static str]) -> &'static str {
        choices[v.unsigned_abs() as usize % choices.len()]
    }

    fn entry() -> impl Strategy<Value = Entry> {
        (0u8..4, symbol(), instruction(), directive()).prop_map(|(kind, l, i, d)| match kind {
            0 => Entry::Label(l),
            1 => Entry::Directive(d),
            _ => Entry::Insn(i.into()),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn generated_entries_match_the_reference(entries in prop::collection::vec(entry(), 1..24)) {
            assert_same(&entries, IsaId::X86_64, "generated entries");
        }
    }

    /// Combinations no parser produces still print exactly as before:
    /// invalid registers, B16 and missing widths on `movs`/`movz`, and
    /// memory operands with nothing to print.
    #[test]
    fn odd_nodes_match_the_reference() {
        let odd_reg = Reg {
            id: mao_x86::RegId::Rax,
            width: Width::B4,
            high8: true,
        };
        let widths = [
            None,
            Some(Width::B1),
            Some(Width::B2),
            Some(Width::B4),
            Some(Width::B8),
            Some(Width::B16),
        ];
        let mut entries = Vec::new();
        for m in [
            Mnemonic::Movsx,
            Mnemonic::Movzx,
            Mnemonic::Movdq,
            Mnemonic::Add,
            Mnemonic::Setcc(Cond::A),
        ] {
            for op_width in widths {
                for src_width in widths {
                    entries.push(Entry::Insn(
                        Instruction {
                            mnemonic: m,
                            op_width,
                            src_width,
                            lock: true,
                            operands: vec![Operand::Reg(odd_reg), Operand::Mem(Mem::default())]
                                .into(),
                        }
                        .into(),
                    ));
                }
            }
        }
        assert_eq!(emit(&entries), reference::emit(&entries));
    }
}
