//! Reference (seed) parser — the pre-zero-copy baseline.
//!
//! This is the original allocating parser, kept verbatim modulo the `Sym`
//! field types of the IR it must now produce: it still walks `char`s,
//! materializes a `String` per token before interning, splits statements and
//! operands through intermediate `Vec`s, and re-runs width inference by
//! constructing a throwaway `Instruction`. It is an oracle for tests only;
//! no production code calls it:
//!
//! 1. **Differential testing.** `parse(text)` must agree with
//!    `parse_reference(text)` on every input (see `tests/frontend.rs`),
//!    which pins the rewrite to the seed semantics.
//! 2. **Honest speed gates.** The release-only gate in `tests/frontend.rs`
//!    requires the zero-copy parser to run at >= 2x the *seed* algorithm;
//!    measuring the seed algorithm against the same IR types keeps the
//!    comparison apples-to-apples.

use mao_x86::insn::Instruction;
use mao_x86::mnemonic::parse_mnemonic;
use mao_x86::operand::{Disp, Mem, Operand, MAX_OPERANDS};
use mao_x86::reg::{parse_reg_name, Reg};
use mao_x86::sym::Sym;

use crate::entry::{Align, DataItem, DataWidth, Directive, Entry};

use crate::parser::ParseError;

/// Parse a complete assembly file with the seed algorithm.
pub fn parse_reference(text: &str) -> Result<Vec<Entry>, ParseError> {
    let mut entries = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line);
        for stmt in split_statements(line) {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            // Helpers report line + message; the raw source line is only
            // known here, so attach it on the way out.
            parse_statement(stmt, lineno, &mut entries).map_err(|mut e| {
                if e.text.is_empty() {
                    e.text = raw_line.trim().to_string();
                }
                e
            })?;
        }
    }
    Ok(entries)
}

/// Remove a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\\' if in_str => escaped = !escaped,
            b'"' if !escaped => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

/// Split on `;` statement separators, respecting string literals.
fn split_statements(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\\' if in_str => escaped = !escaped,
            b'"' if !escaped => in_str = !in_str,
            b';' if !in_str => {
                out.push(&line[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&line[start..]);
    out
}

fn is_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '$' | '@')
}

fn parse_statement(stmt: &str, lineno: usize, out: &mut Vec<Entry>) -> Result<(), ParseError> {
    // Leading labels: `name:` possibly repeated.
    let mut rest = stmt;
    loop {
        let sym_len = rest.chars().take_while(|&c| is_symbol_char(c)).count();
        if sym_len > 0 {
            let sym_bytes: usize = rest.chars().take(sym_len).map(char::len_utf8).sum();
            if rest[sym_bytes..].starts_with(':') {
                out.push(Entry::Label(Sym::intern(&rest[..sym_bytes].to_string())));
                rest = rest[sym_bytes + 1..].trim_start();
                if rest.is_empty() {
                    return Ok(());
                }
                continue;
            }
        }
        break;
    }

    if rest.starts_with('.') {
        out.push(Entry::Directive(parse_directive(rest, lineno)?));
        Ok(())
    } else {
        out.push(Entry::Insn(parse_instruction(rest, lineno)?.into()));
        Ok(())
    }
}

fn err(lineno: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line: lineno,
        message: message.into(),
        text: String::new(),
        offset: 0..0,
    }
}

/// Parse an integer literal: decimal, `0x` hex, `0` octal, with optional sign.
fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b.trim()),
        None => (false, s),
    };
    let mag = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()?
    } else if body.len() > 1 && body.starts_with('0') && body.chars().all(|c| c.is_digit(8)) {
        u64::from_str_radix(&body[1..], 8).ok()?
    } else {
        body.parse::<u64>().ok()?
    };
    if neg {
        Some((mag as i64).wrapping_neg())
    } else {
        Some(mag as i64)
    }
}

/// Parse `sym`, `sym+4`, `sym-8` into a symbolic displacement.
fn parse_symbol_expr(s: &str) -> Option<Disp> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let first = s.chars().next()?;
    if !(first.is_ascii_alphabetic() || matches!(first, '_' | '.' | '$')) {
        return None;
    }
    let split = s
        .char_indices()
        .skip(1)
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i);
    let (name, addend) = match split {
        Some(i) => {
            let (n, a) = s.split_at(i);
            (n.trim(), parse_int(a)?)
        }
        None => (s, 0),
    };
    if name.is_empty() || !name.chars().all(is_symbol_char) {
        return None;
    }
    Some(Disp::Symbol {
        name: Sym::intern(&name.to_string()),
        addend,
    })
}

/// Parse the memory operand `disp(base,index,scale)` or plain `disp`.
fn parse_mem(s: &str, lineno: usize) -> Result<Mem, ParseError> {
    let s = s.trim();
    let (disp_str, inner) = match s.find('(') {
        Some(open) => {
            let close = s
                .rfind(')')
                .ok_or_else(|| err(lineno, format!("missing `)` in `{s}`")))?;
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
        return Err(err(lineno, format!("bad displacement `{disp_str}`")));
    };

    let mut mem = Mem {
        disp,
        base: None,
        index: None,
        scale: 1,
    };

    if let Some(inner) = inner {
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        if parts.len() > 3 {
            return Err(err(lineno, format!("too many parts in `({inner})`")));
        }
        let parse_r = |p: &str| -> Result<Reg, ParseError> {
            let name = p
                .strip_prefix('%')
                .ok_or_else(|| err(lineno, format!("expected register, got `{p}`")))?;
            parse_reg_name(name).ok_or_else(|| err(lineno, format!("unknown register `{p}`")))
        };
        if let Some(b) = parts.first() {
            if !b.is_empty() {
                mem.base = Some(parse_r(b)?);
            }
        }
        if let Some(i) = parts.get(1) {
            if !i.is_empty() {
                mem.index = Some(parse_r(i)?);
            }
        }
        if let Some(sc) = parts.get(2) {
            if !sc.is_empty() {
                let v = parse_int(sc).ok_or_else(|| err(lineno, format!("bad scale `{sc}`")))?;
                if ![1, 2, 4, 8].contains(&v) {
                    return Err(err(lineno, format!("invalid scale {v}")));
                }
                mem.scale = v as u8;
            }
        }
    }
    Ok(mem)
}

/// Split an operand list on top-level commas (commas inside `(...)` group).
fn split_operands(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out.iter()
        .map(|p| p.trim())
        .filter(|p| !p.is_empty())
        .collect()
}

fn parse_operand(s: &str, is_branch: bool, lineno: usize) -> Result<Operand, ParseError> {
    let s = s.trim();
    if let Some(imm) = s.strip_prefix('$') {
        let v =
            parse_int(imm).ok_or_else(|| err(lineno, format!("unsupported immediate `{s}`")))?;
        return Ok(Operand::Imm(v));
    }
    if let Some(reg) = s.strip_prefix('%') {
        let r =
            parse_reg_name(reg).ok_or_else(|| err(lineno, format!("unknown register `{s}`")))?;
        return Ok(Operand::Reg(r));
    }
    if let Some(ind) = s.strip_prefix('*') {
        let ind = ind.trim();
        if let Some(reg) = ind.strip_prefix('%') {
            let r = parse_reg_name(reg)
                .ok_or_else(|| err(lineno, format!("unknown register `{ind}`")))?;
            return Ok(Operand::IndirectReg(r));
        }
        return Ok(Operand::IndirectMem(parse_mem(ind, lineno)?));
    }
    if is_branch && !s.contains('(') && parse_int(s).is_none() {
        // Direct branch/call target.
        if s.chars().all(is_symbol_char) {
            return Ok(Operand::Label(Sym::intern(&s.to_string())));
        }
        return Err(err(lineno, format!("bad branch target `{s}`")));
    }
    Ok(Operand::Mem(parse_mem(s, lineno)?))
}

fn parse_instruction(s: &str, lineno: usize) -> Result<Instruction, ParseError> {
    let mut rest = s.trim();
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
        .ok_or_else(|| err(lineno, format!("unknown mnemonic `{mnem_str}`")))?;
    let is_branch = parsed.mnemonic.is_branch() || parsed.mnemonic == mao_x86::Mnemonic::Call;
    let mut operands = Vec::new();
    if !ops_str.is_empty() {
        for op in split_operands(ops_str) {
            let op = parse_operand(op, is_branch, lineno)?;
            if operands.len() == MAX_OPERANDS {
                return Err(crate::parser::too_many_operands(lineno));
            }
            operands.push(op);
        }
    }
    let mut insn = Instruction {
        mnemonic: parsed.mnemonic,
        op_width: parsed.op_width,
        src_width: parsed.src_width,
        lock,
        operands: operands.into(),
    };
    if insn.op_width.is_none() {
        // Re-run width inference now that operands are attached.
        let inferred = Instruction::new(insn.mnemonic, insn.operands.clone()).op_width;
        insn.op_width = inferred;
    }
    Ok(insn)
}

fn unescape(s: &str, lineno: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some(other) => {
                return Err(err(lineno, format!("unsupported escape `\\{other}`")));
            }
            None => return Err(err(lineno, "dangling backslash".to_string())),
        }
    }
    Ok(out)
}

/// Extract the quoted string from `"..."`.
fn quoted(s: &str, lineno: usize) -> Result<String, ParseError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| err(lineno, format!("expected quoted string, got `{s}`")))?;
    unescape(inner, lineno)
}

fn parse_directive(s: &str, lineno: usize) -> Result<Directive, ParseError> {
    let (name, args) = match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    };
    let d = match name {
        ".text" | ".data" | ".bss" => Directive::Section {
            name: Sym::intern(&name.to_string()),
            args: vec![],
        },
        ".section" => {
            let mut parts = args.splitn(2, ',');
            let sec = parts.next().unwrap_or("").trim().to_string();
            let rest: Vec<String> = parts
                .next()
                .map(|r| r.split(',').map(|a| a.trim().to_string()).collect())
                .unwrap_or_default();
            if sec.is_empty() {
                return Err(err(lineno, ".section needs a name"));
            }
            Directive::Section {
                name: Sym::intern(&sec),
                args: rest,
            }
        }
        ".globl" | ".global" => Directive::Global(Sym::intern(&args.trim().to_string())),
        ".type" => {
            let (sym, kind) = args
                .split_once(',')
                .ok_or_else(|| err(lineno, ".type needs `sym, @kind`"))?;
            let kind = kind.trim();
            let kind = kind
                .strip_prefix('@')
                .or_else(|| kind.strip_prefix('%'))
                .unwrap_or(kind);
            Directive::Type {
                symbol: Sym::intern(&sym.trim().to_string()),
                kind: Sym::intern(&kind.to_string()),
            }
        }
        ".size" => {
            let (sym, expr) = args
                .split_once(',')
                .ok_or_else(|| err(lineno, ".size needs `sym, expr`"))?;
            Directive::Size {
                symbol: Sym::intern(&sym.trim().to_string()),
                expr: expr.trim().to_string(),
            }
        }
        ".align" | ".balign" | ".p2align" => {
            let parts: Vec<&str> = args.split(',').map(str::trim).collect();
            let n = parse_int(parts.first().copied().unwrap_or(""))
                .ok_or_else(|| err(lineno, format!("bad alignment in `{s}`")))?;
            if n < 0 {
                return Err(err(lineno, "negative alignment"));
            }
            let p2_form = name == ".p2align";
            let alignment = if p2_form {
                if n > 32 {
                    return Err(err(lineno, format!("p2align exponent {n} too large")));
                }
                1u64 << n
            } else {
                let n = n as u64;
                if !n.is_power_of_two() && n != 0 {
                    return Err(err(lineno, format!("alignment {n} is not a power of two")));
                }
                n.max(1)
            };
            let fill = parts
                .get(1)
                .filter(|p| !p.is_empty())
                .map(|p| {
                    parse_int(p)
                        .and_then(|v| u8::try_from(v).ok())
                        .ok_or_else(|| err(lineno, format!("bad fill `{p}`")))
                })
                .transpose()?;
            let max_skip = parts
                .get(2)
                .filter(|p| !p.is_empty())
                .map(|p| {
                    parse_int(p)
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| err(lineno, format!("bad max-skip `{p}`")))
                })
                .transpose()?;
            Directive::Align(Align {
                alignment,
                fill,
                max_skip,
                p2_form,
            })
        }
        ".byte" | ".word" | ".value" | ".long" | ".int" | ".quad" => {
            let width = match name {
                ".byte" => DataWidth::Byte,
                ".word" | ".value" => DataWidth::Word,
                ".long" | ".int" => DataWidth::Long,
                ".quad" => DataWidth::Quad,
                _ => unreachable!(),
            };
            let mut items = Vec::new();
            for item in args.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                if let Some(v) = parse_int(item) {
                    items.push(DataItem::Imm(v));
                } else if item.chars().all(is_symbol_char) {
                    items.push(DataItem::Symbol(Sym::intern(&item.to_string())));
                } else {
                    return Err(err(lineno, format!("unsupported data item `{item}`")));
                }
            }
            Directive::Data { width, items }
        }
        ".ascii" => Directive::Ascii(quoted(args, lineno)?),
        ".asciz" | ".string" => Directive::Asciz(quoted(args, lineno)?),
        ".zero" | ".skip" | ".space" => {
            let n = parse_int(args.split(',').next().unwrap_or(""))
                .ok_or_else(|| err(lineno, format!("bad size in `{s}`")))?;
            Directive::Zero(n.max(0) as u64)
        }
        ".comm" => {
            let parts: Vec<&str> = args.split(',').map(str::trim).collect();
            if parts.len() < 2 {
                return Err(err(lineno, ".comm needs `sym, size`"));
            }
            let size = parse_int(parts[1])
                .ok_or_else(|| err(lineno, format!("bad .comm size `{}`", parts[1])))?;
            let align = parts
                .get(2)
                .map(|p| {
                    parse_int(p)
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| err(lineno, format!("bad .comm align `{p}`")))
                })
                .transpose()?;
            Directive::Comm {
                symbol: Sym::intern(&parts[0].to_string()),
                size: size.max(0) as u64,
                align,
            }
        }
        other => Directive::Other {
            name: Sym::intern(&other.to_string()),
            args: args.to_string(),
        },
    };
    Ok(d)
}
