//! AT&T-syntax assembly parser — zero-copy front end.
//!
//! Parses compiler-emitted assembly text (the same dialect gas accepts for
//! x86-64 ELF targets) into the flat [`Entry`] list. Unknown directives are
//! passed through verbatim; unknown *instructions* are an error, because MAO
//! must understand every instruction it may move or measure.
//!
//! This is the zero-copy rewrite of the seed parser (which is preserved as
//! [`crate::parser_reference::parse_reference`], a test oracle for
//! differential checks and speed gates). The differences that buy the
//! front-end throughput:
//!
//! - **No per-token `String`s.** Tokens are `&str` slices of the input
//!   buffer; symbol-shaped tokens intern directly into the global [`Sym`]
//!   table without an intermediate allocation.
//! - **Byte-level scanning.** Line splitting, comment stripping, statement
//!   splitting, label scans and operand splitting walk `&[u8]` with a fast
//!   path for lines containing no `#`/`"`/`;`. Slices are only taken at
//!   ASCII delimiter positions, which are always UTF-8 char boundaries.
//! - **No intermediate `Vec`s.** Statements and operands are processed as
//!   they are found instead of being collected per line.
//! - **Width inference without cloning.** [`Instruction::infer_width_of`]
//!   runs on the operand slice instead of round-tripping through a
//!   throwaway `Instruction`.
//! - **Parallel parsing.** [`parse_with_jobs`] splits the input at line
//!   boundaries (the grammar is line-local; all cross-line state lives in
//!   `MaoUnit`), parses chunks on scoped threads, and concatenates in input
//!   order — byte-identical results at any job count, and the first error in
//!   input order is reported exactly as the sequential parse would.
//!
//! Errors carry the 1-based line, the offending source line text, and the
//! byte-offset range of the offending statement within the input buffer.

use std::fmt;
use std::ops::Range;

use mao_isa::IsaId;
use mao_x86::insn::Instruction;
use mao_x86::mnemonic::parse_mnemonic;
use mao_x86::operand::{Disp, Mem, Operand, Operands, MAX_OPERANDS};
use mao_x86::reg::{parse_reg_name, Reg};
use mao_x86::sym::Sym;

use crate::entry::{Align, DataItem, DataWidth, Directive, Entry};

/// Parse failure, with the 1-based source line, the offending text, and the
/// byte range of the offending statement in the input buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
    /// The source line that failed, trimmed (empty if unavailable).
    pub text: String,
    /// Byte range of the offending (trimmed) statement within the input
    /// buffer; `0..0` if unavailable.
    pub offset: Range<usize>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if !self.text.is_empty() {
            write!(f, " in `{}`", self.text)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Minimum input size before [`parse_with_jobs`] bothers spawning threads.
const PARALLEL_MIN_BYTES: usize = 64 * 1024;

/// Parse a complete assembly file into the flat entry list.
///
/// # Examples
///
/// ```
/// let entries = mao_asm::parse(".text\nfoo:\n\tpush %rbp\n\tret\n").unwrap();
/// assert_eq!(entries.len(), 4);
/// ```
pub fn parse(text: &str) -> Result<Vec<Entry>, ParseError> {
    parse_chunk(text, 1, 0, IsaId::X86_64)
}

/// Parse a complete assembly file for the given ISA.
///
/// The grammar above the instruction level (labels, directives, statement
/// separators) is shared; instruction statements dispatch to the ISA's
/// parser, and the comment syntax follows the ISA's assembler dialect
/// (`#` on x86, `//` on AArch64 — where `#` introduces immediates).
pub fn parse_isa(text: &str, isa: IsaId) -> Result<Vec<Entry>, ParseError> {
    parse_chunk(text, 1, 0, isa)
}

/// Parse with up to `jobs` threads, splitting at line boundaries.
///
/// Byte-identical to [`parse`] at any job count: the grammar is line-local,
/// chunks are merged in input order, and the first error in input order wins.
pub fn parse_with_jobs(text: &str, jobs: usize) -> Result<Vec<Entry>, ParseError> {
    parse_with_jobs_isa(text, jobs, IsaId::X86_64)
}

/// [`parse_with_jobs`] for the given ISA (see [`parse_isa`]).
pub fn parse_with_jobs_isa(text: &str, jobs: usize, isa: IsaId) -> Result<Vec<Entry>, ParseError> {
    let jobs = jobs.max(1);
    if jobs == 1 || text.len() < PARALLEL_MIN_BYTES {
        return parse_chunk(text, 1, 0, isa);
    }
    let bytes = text.as_bytes();
    // Chunk boundaries: the next line start at or after each even split
    // point. Dedup keeps chunks non-empty when lines are huge.
    let mut bounds: Vec<usize> = vec![0];
    for k in 1..jobs {
        let target = text.len() * k / jobs;
        let next_line = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(off) => target + off + 1,
            None => text.len(),
        };
        if next_line > *bounds.last().unwrap() && next_line < text.len() {
            bounds.push(next_line);
        }
    }
    bounds.push(text.len());
    if bounds.len() <= 2 {
        return parse_chunk(text, 1, 0, isa);
    }

    // First line number of each chunk = 1 + newlines before its start.
    let mut first_lines = Vec::with_capacity(bounds.len() - 1);
    let mut line = 1usize;
    for w in bounds.windows(2) {
        first_lines.push(line);
        line += bytes[w[0]..w[1]].iter().filter(|&&b| b == b'\n').count();
    }

    let results: Vec<Result<Vec<Entry>, ParseError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .zip(&first_lines)
            .map(|(w, &first_line)| {
                let (start, end) = (w[0], w[1]);
                let chunk = &text[start..end];
                scope.spawn(move || parse_chunk(chunk, first_line, start, isa))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut chunks = Vec::with_capacity(results.len());
    for r in results {
        // Input-order scan: the first failing chunk holds the first error in
        // input order, because every earlier chunk parsed to completion.
        chunks.push(r?);
    }
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for mut c in chunks {
        out.append(&mut c);
    }
    Ok(out)
}

/// Sequential parse of `text`, which starts at 1-based line `first_line` and
/// byte offset `base` of the original input (both used for error reporting).
fn parse_chunk(
    text: &str,
    first_line: usize,
    base: usize,
    isa: IsaId,
) -> Result<Vec<Entry>, ParseError> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 12 + 4);
    let mut pos = 0usize;
    let mut lineno = first_line;
    while pos < bytes.len() {
        // One fused (vectorizable) scan finds the line end and whether the
        // line contains a comment/string/separator byte; most lines have
        // none and go straight to the statement parser. The comment byte is
        // dialect-specific: `#` starts a comment in x86 gas but introduces
        // immediates on AArch64, whose comments are `//`.
        let mut special = false;
        let hit = if isa == IsaId::X86_64 {
            bytes[pos..]
                .iter()
                .position(|&b| matches!(b, b'\n' | b'#' | b'"' | b';'))
        } else {
            bytes[pos..]
                .iter()
                .position(|&b| matches!(b, b'\n' | b'/' | b'"' | b';'))
        };
        let line_end = match hit {
            Some(off) if bytes[pos + off] == b'\n' => pos + off,
            Some(off) => {
                special = true;
                match bytes[pos + off..].iter().position(|&b| b == b'\n') {
                    Some(o2) => pos + off + o2,
                    None => bytes.len(),
                }
            }
            None => bytes.len(),
        };
        let line = &text[pos..line_end];
        if special {
            parse_line_special(line, lineno, base + pos, isa, &mut out)?;
        } else {
            parse_segment(line, 0, line, lineno, base + pos, isa, &mut out)?;
        }
        pos = line_end + 1;
        lineno += 1;
    }
    Ok(out)
}

/// Parse one source line known to contain a `#`, `"`, or `;`: strip the
/// comment and split on `;` statement separators (both
/// string-literal-aware), then parse each statement.
fn parse_line_special(
    line: &str,
    lineno: usize,
    line_base: usize,
    isa: IsaId,
    out: &mut Vec<Entry>,
) -> Result<(), ParseError> {
    let bytes = line.as_bytes();
    // One string-aware scan handles both comment stripping and
    // statement splitting (identical state machine to the seed parser's
    // `strip_comment` + `split_statements` passes).
    let mut in_str = false;
    let mut escaped = false;
    let mut stmt_start = 0usize;
    let mut k = 0usize;
    while k < bytes.len() {
        let comment_here = if isa == IsaId::X86_64 {
            bytes[k] == b'#'
        } else {
            bytes[k] == b'/' && bytes.get(k + 1) == Some(&b'/')
        };
        if comment_here && !in_str {
            return parse_segment(
                &line[stmt_start..k],
                stmt_start,
                line,
                lineno,
                line_base,
                isa,
                out,
            );
        }
        match bytes[k] {
            b'\\' if in_str => escaped = !escaped,
            b'"' if !escaped => in_str = !in_str,
            b';' if !in_str => {
                parse_segment(
                    &line[stmt_start..k],
                    stmt_start,
                    line,
                    lineno,
                    line_base,
                    isa,
                    out,
                )?;
                stmt_start = k + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
        k += 1;
    }
    parse_segment(
        &line[stmt_start..],
        stmt_start,
        line,
        lineno,
        line_base,
        isa,
        out,
    )
}

/// Trim one statement segment and parse it, annotating any error with the
/// full source line text and the statement's byte range.
fn parse_segment(
    seg: &str,
    seg_off: usize,
    raw_line: &str,
    lineno: usize,
    line_base: usize,
    isa: IsaId,
    out: &mut Vec<Entry>,
) -> Result<(), ParseError> {
    let stmt = fast_trim(seg);
    if stmt.is_empty() {
        return Ok(());
    }
    parse_statement(stmt, lineno, isa, out).map_err(|mut e| {
        if e.text.is_empty() {
            e.text = raw_line.trim().to_string();
        }
        if e.offset == (0..0) {
            let lead = seg.len() - fast_trim_start(seg).len();
            let start = line_base + seg_off + lead;
            e.offset = start..start + stmt.len();
        }
        e
    })
}

#[inline]
fn is_symbol_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'$' | b'@')
}

fn parse_statement(
    stmt: &str,
    lineno: usize,
    isa: IsaId,
    out: &mut Vec<Entry>,
) -> Result<(), ParseError> {
    // Leading labels: `name:` possibly repeated. Scanning stops at the first
    // non-symbol byte, which is always a char boundary (multi-byte UTF-8
    // sequences start with a non-symbol byte).
    let mut rest = stmt;
    let head_len = loop {
        let b = rest.as_bytes();
        let mut n = 0;
        while n < b.len() && is_symbol_byte(b[n]) {
            n += 1;
        }
        if n > 0 && n < b.len() && b[n] == b':' {
            out.push(Entry::Label(Sym::intern(&rest[..n])));
            rest = fast_trim_start(&rest[n + 1..]);
            if rest.is_empty() {
                return Ok(());
            }
            continue;
        }
        // `n` is the symbol-byte prefix of the head token — the mnemonic or
        // directive-name boundary, reused below instead of a fresh scan.
        break n;
    };

    if rest.as_bytes().first() == Some(&b'.') {
        out.push(Entry::Directive(parse_directive(rest, lineno)?));
        Ok(())
    } else if isa == IsaId::X86_64 {
        out.push(Entry::Insn(
            parse_instruction(rest, head_len, lineno)?.into(),
        ));
        Ok(())
    } else {
        let insn = mao_aarch64::parse_insn(rest).map_err(|m| err(lineno, m))?;
        out.push(Entry::Insn(insn.into()));
        Ok(())
    }
}

/// Is `b` one of the six ASCII whitespace bytes `char::is_whitespace` accepts?
#[inline]
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
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
    let s = fast_trim(s);
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, fast_trim(b)),
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
    if neg {
        Some((mag as i64).wrapping_neg())
    } else {
        Some(mag as i64)
    }
}

/// Parse `sym`, `sym+4`, `sym-8` into a symbolic displacement.
fn parse_symbol_expr(s: &str) -> Option<Disp> {
    let s = fast_trim(s);
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
            (fast_trim(n), parse_int(a)?)
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

/// Parse the memory operand `disp(base,index,scale)` or plain `disp`.
// `s` arrives trimmed from `parse_operand`.
fn parse_mem(s: &str, lineno: usize) -> Result<Mem, ParseError> {
    let (disp_str, inner) = match s.find('(') {
        Some(open) => {
            let close = s
                .rfind(')')
                .ok_or_else(|| err(lineno, format!("missing `)` in `{s}`")))?;
            (&s[..open], Some(&s[open + 1..close]))
        }
        None => (s, None),
    };

    let disp = if fast_trim(disp_str).is_empty() {
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
        let mut parts = inner.split(',');
        let base = parts.next().map(fast_trim);
        let index = parts.next().map(fast_trim);
        let scale = parts.next().map(fast_trim);
        if parts.next().is_some() {
            return Err(err(lineno, format!("too many parts in `({inner})`")));
        }
        let parse_r = |p: &str| -> Result<Reg, ParseError> {
            let name = p
                .strip_prefix('%')
                .ok_or_else(|| err(lineno, format!("expected register, got `{p}`")))?;
            parse_reg_name(name).ok_or_else(|| err(lineno, format!("unknown register `{p}`")))
        };
        if let Some(b) = base {
            if !b.is_empty() {
                mem.base = Some(parse_r(b)?);
            }
        }
        if let Some(i) = index {
            if !i.is_empty() {
                mem.index = Some(parse_r(i)?);
            }
        }
        if let Some(sc) = scale {
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

// `s` arrives trimmed from `parse_instruction`'s operand split.
fn parse_operand(s: &str, is_branch: bool, lineno: usize) -> Result<Operand, ParseError> {
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
        let ind = fast_trim(ind);
        if let Some(reg) = ind.strip_prefix('%') {
            let r = parse_reg_name(reg)
                .ok_or_else(|| err(lineno, format!("unknown register `{ind}`")))?;
            return Ok(Operand::IndirectReg(r));
        }
        return Ok(Operand::IndirectMem(parse_mem(ind, lineno)?));
    }
    if is_branch && !s.as_bytes().contains(&b'(') && parse_int(s).is_none() {
        // Direct branch/call target.
        if s.bytes().all(is_symbol_byte) {
            return Ok(Operand::Label(Sym::intern(s)));
        }
        return Err(err(lineno, format!("bad branch target `{s}`")));
    }
    Ok(Operand::Mem(parse_mem(s, lineno)?))
}

/// Byte-wise `str::trim`, falling back to the char-based trim whenever an
/// edge byte could be (part of) Unicode whitespace — `0x0b` (vertical tab,
/// not ASCII whitespace to `trim_ascii` but whitespace to `char`) or any
/// non-ASCII lead byte. Always equivalent to `s.trim()`.
#[inline]
fn fast_trim(s: &str) -> &str {
    let t = s.trim_ascii();
    let b = t.as_bytes();
    match (b.first(), b.last()) {
        (Some(&f), Some(&l)) if f >= 0x80 || l >= 0x80 || f == 0x0b || l == 0x0b => t.trim(),
        _ => t,
    }
}

/// Byte-wise `str::trim_start`; see [`fast_trim`].
#[inline]
fn fast_trim_start(s: &str) -> &str {
    let t = s.trim_ascii_start();
    match t.as_bytes().first() {
        Some(&f) if f >= 0x80 || f == 0x0b => t.trim_start(),
        _ => t,
    }
}

/// Byte-wise `s.find(char::is_whitespace)`, falling back to the char-based
/// scan on the first non-ASCII byte so Unicode whitespace is still honored
/// exactly like the seed parser.
#[inline]
fn find_ws(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if is_ascii_ws(b) {
            return Some(i);
        }
        if b >= 0x80 {
            return s[i..].find(char::is_whitespace).map(|j| i + j);
        }
    }
    None
}

#[inline]
// `s` arrives trimmed from `parse_statement`; `head_len` is the length of
// its symbol-byte prefix (already scanned by the label loop) — on the fast
// path this is exactly the mnemonic boundary, so no re-scan is needed.
fn parse_instruction(s: &str, head_len: usize, lineno: usize) -> Result<Instruction, ParseError> {
    let mut rest = s;
    let mut head = head_len;
    let mut lock = false;
    if let Some(r) = rest.strip_prefix("lock") {
        if r.starts_with(char::is_whitespace) {
            lock = true;
            rest = fast_trim_start(r);
            // The prefix invalidated the pre-scanned boundary; re-scan.
            let b = rest.as_bytes();
            head = 0;
            while head < b.len() && is_symbol_byte(b[head]) {
                head += 1;
            }
        }
    }
    // Symbol bytes are never whitespace, so the first whitespace is at
    // `head` (the common case, checked without a scan) or beyond it.
    let (mnem_str, ops_str) = if head == rest.len() {
        (rest, "")
    } else if is_ascii_ws(rest.as_bytes()[head]) {
        (&rest[..head], fast_trim(&rest[head..]))
    } else {
        // Head token continues with a non-symbol, non-whitespace byte
        // (always a char boundary): fall back to the full whitespace scan
        // so malformed input errors exactly like the seed parser.
        match find_ws(rest) {
            Some(i) => (&rest[..i], fast_trim(&rest[i..])),
            None => (rest, ""),
        }
    };
    let parsed = parse_mnemonic(mnem_str)
        .ok_or_else(|| err(lineno, format!("unknown mnemonic `{mnem_str}`")))?;
    let is_branch = parsed.mnemonic.is_branch() || parsed.mnemonic == mao_x86::Mnemonic::Call;
    let mut operands = Operands::new();
    if !ops_str.is_empty() {
        // Split on top-level commas (commas inside `(...)` group), parsing
        // each operand as it is found.
        let ob = ops_str.as_bytes();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (k, &c) in ob.iter().enumerate() {
            match c {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    let part = fast_trim(&ops_str[start..k]);
                    if !part.is_empty() {
                        push_operand(&mut operands, part, is_branch, lineno)?;
                    }
                    start = k + 1;
                }
                _ => {}
            }
        }
        let part = fast_trim(&ops_str[start..]);
        if !part.is_empty() {
            push_operand(&mut operands, part, is_branch, lineno)?;
        }
    }
    let op_width = parsed
        .op_width
        .or_else(|| Instruction::infer_width_of(&operands));
    Ok(Instruction {
        mnemonic: parsed.mnemonic,
        op_width,
        src_width: parsed.src_width,
        lock,
        operands,
    })
}

/// Parse one operand and append it, refusing more than [`MAX_OPERANDS`]
/// (no x86 form has more than three; the cap bounds what one statement can
/// make downstream tables hold).
fn push_operand(
    operands: &mut Operands,
    part: &str,
    is_branch: bool,
    lineno: usize,
) -> Result<(), ParseError> {
    let op = parse_operand(part, is_branch, lineno)?;
    if operands.len() == MAX_OPERANDS {
        return Err(too_many_operands(lineno));
    }
    operands.push(op);
    Ok(())
}

pub(crate) fn too_many_operands(lineno: usize) -> ParseError {
    err(lineno, format!("more than {MAX_OPERANDS} operands"))
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
    let (name, args) = match find_ws(s) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    };
    let d = match name {
        ".text" | ".data" | ".bss" => Directive::Section {
            name: Sym::intern(name),
            args: vec![],
        },
        ".section" => {
            let mut parts = args.splitn(2, ',');
            let sec = parts.next().unwrap_or("").trim();
            let rest: Vec<String> = parts
                .next()
                .map(|r| r.split(',').map(|a| a.trim().to_string()).collect())
                .unwrap_or_default();
            if sec.is_empty() {
                return Err(err(lineno, ".section needs a name"));
            }
            Directive::Section {
                name: Sym::intern(sec),
                args: rest,
            }
        }
        ".globl" | ".global" => Directive::Global(Sym::intern(args.trim())),
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
                symbol: Sym::intern(sym.trim()),
                kind: Sym::intern(kind),
            }
        }
        ".size" => {
            let (sym, expr) = args
                .split_once(',')
                .ok_or_else(|| err(lineno, ".size needs `sym, expr`"))?;
            Directive::Size {
                symbol: Sym::intern(sym.trim()),
                expr: expr.trim().to_string(),
            }
        }
        ".align" | ".balign" | ".p2align" => {
            let mut parts = args.split(',');
            let p0 = parts.next().map(str::trim);
            let p1 = parts.next().map(str::trim);
            let p2 = parts.next().map(str::trim);
            let n = parse_int(p0.unwrap_or(""))
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
            let fill = p1
                .filter(|p| !p.is_empty())
                .map(|p| {
                    parse_int(p)
                        .and_then(|v| u8::try_from(v).ok())
                        .ok_or_else(|| err(lineno, format!("bad fill `{p}`")))
                })
                .transpose()?;
            let max_skip = p2
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
                } else if item.bytes().all(is_symbol_byte) {
                    items.push(DataItem::Symbol(Sym::intern(item)));
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
            let mut parts = args.split(',');
            let sym = parts.next().map(str::trim);
            let size_str = parts.next().map(str::trim);
            let align_str = parts.next().map(str::trim);
            let (Some(sym), Some(size_str)) = (sym, size_str) else {
                return Err(err(lineno, ".comm needs `sym, size`"));
            };
            let size = parse_int(size_str)
                .ok_or_else(|| err(lineno, format!("bad .comm size `{size_str}`")))?;
            let align = align_str
                .map(|p| {
                    parse_int(p)
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| err(lineno, format!("bad .comm align `{p}`")))
                })
                .transpose()?;
            Directive::Comm {
                symbol: Sym::intern(sym),
                size: size.max(0) as u64,
                align,
            }
        }
        other => Directive::Other {
            name: Sym::intern(other),
            args: args.to_string(),
        },
    };
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao_x86::mnemonic::Mnemonic;
    use mao_x86::reg::{RegId, Width};

    #[test]
    fn parse_paper_figure1_loop() {
        let text = r#"
.L3:    movsbl 1(%rdi,%r8,4),%edx
        movsbl (%rdi,%r8,4),%eax
        movl %edx, (%rsi,%r8,4)
        addq $1, %r8
        nop
.L5:    movsbl 1(%rdi,%r8,4),%edx
        cmpl %r8d, %r9d
        jg .L3
"#;
        let entries = parse(text).unwrap();
        let labels: Vec<_> = entries.iter().filter_map(Entry::label).collect();
        assert_eq!(labels, vec![".L3", ".L5"]);
        let insns: Vec<_> = entries.iter().filter_map(Entry::insn).collect();
        assert_eq!(insns.len(), 8);
        assert_eq!(insns[0].mnemonic, Mnemonic::Movsx);
        assert_eq!(insns[7].target_label(), Some(".L3"));
    }

    #[test]
    fn comments_and_separators() {
        let entries = parse("nop # trailing comment\nnop; nop\n# full line\n").unwrap();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn hash_inside_string_not_comment() {
        let entries = parse(".ascii \"a#b\"\n").unwrap();
        assert_eq!(
            entries[0].directive(),
            Some(&Directive::Ascii("a#b".into()))
        );
    }

    #[test]
    fn integer_forms() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("-42"), Some(-42));
        assert_eq!(parse_int("0x2a"), Some(42));
        assert_eq!(parse_int("-0x1"), Some(-1));
        assert_eq!(parse_int("010"), Some(8));
        assert_eq!(parse_int("0"), Some(0));
        assert_eq!(parse_int("foo"), None);
        // 64-bit unsigned magnitude wraps into i64 space.
        assert_eq!(parse_int("0xffffffffffffffff"), Some(-1));
    }

    #[test]
    fn memory_operand_forms() {
        let i = parse("movq 24(%rsp), %rdx").unwrap();
        let m = i[0].insn().unwrap().operands[0].mem().unwrap().clone();
        assert_eq!(m.disp, Disp::Imm(24));
        assert_eq!(m.base.unwrap().id, RegId::Rsp);

        let i = parse("movl %eax, (,%rbx,8)").unwrap();
        let m = i[0].insn().unwrap().operands[1].mem().unwrap().clone();
        assert!(m.base.is_none());
        assert_eq!(m.index.unwrap().id, RegId::Rbx);
        assert_eq!(m.scale, 8);

        let i = parse("movq glob(%rip), %rax").unwrap();
        let m = i[0].insn().unwrap().operands[0].mem().unwrap().clone();
        assert!(m.is_rip_relative());

        let i = parse("movl %eax, tbl+4(,%rcx,4)").unwrap();
        let m = i[0].insn().unwrap().operands[1].mem().unwrap().clone();
        assert_eq!(
            m.disp,
            Disp::Symbol {
                name: "tbl".into(),
                addend: 4
            }
        );
    }

    #[test]
    fn explicit_zero_disp_roundtrip() {
        let i = parse("nopl 0(%rax,%rax,1)").unwrap();
        let m = i[0].insn().unwrap().operands[0].mem().unwrap().clone();
        assert_eq!(m.disp, Disp::Imm(0));
        let i = parse("nopl (%rax)").unwrap();
        let m = i[0].insn().unwrap().operands[0].mem().unwrap().clone();
        assert_eq!(m.disp, Disp::None);
    }

    #[test]
    fn indirect_branches() {
        let i = parse("jmp *%rax").unwrap();
        assert!(i[0].insn().unwrap().is_indirect_branch());
        let i = parse("jmp *.Ltab(,%rdx,8)").unwrap();
        assert!(i[0].insn().unwrap().is_indirect_branch());
        let i = parse("call *16(%rbx)").unwrap();
        assert!(i[0].insn().unwrap().is_indirect_branch());
    }

    #[test]
    fn branch_targets_are_labels() {
        let i = parse("jne .L5").unwrap();
        assert_eq!(i[0].insn().unwrap().target_label(), Some(".L5"));
        let i = parse("call memcpy").unwrap();
        assert_eq!(i[0].insn().unwrap().target_label(), Some("memcpy"));
    }

    #[test]
    fn lock_prefix() {
        let i = parse("lock addl $1, (%rdi)").unwrap();
        assert!(i[0].insn().unwrap().lock);
    }

    #[test]
    fn width_suffix_and_inference() {
        let i = parse("movl $5, -4(%rbp)").unwrap();
        assert_eq!(i[0].insn().unwrap().op_width, Some(Width::B4));
        let i = parse("mov %rsp, %rbp").unwrap();
        assert_eq!(i[0].insn().unwrap().width(), Width::B8);
    }

    #[test]
    fn directives() {
        let text = r#"
	.file	"x.c"
	.text
	.globl	main
	.type	main, @function
	.p2align 4,,15
	.section	.rodata,"a",@progbits
	.align 8
.LC0:
	.quad	.L4
	.quad	.L5
	.long	42
	.string	"hi"
	.zero	16
	.size	main, .-main
"#;
        let entries = parse(text).unwrap();
        let dirs: Vec<_> = entries
            .iter()
            .filter_map(Entry::directive)
            .cloned()
            .collect();
        assert!(matches!(&dirs[0], Directive::Other { name, .. } if name == ".file"));
        assert!(matches!(&dirs[1], Directive::Section { name, .. } if name == ".text"));
        assert_eq!(dirs[2], Directive::Global("main".into()));
        assert!(matches!(&dirs[3], Directive::Type { kind, .. } if kind == "function"));
        assert!(
            matches!(&dirs[4], Directive::Align(a) if a.alignment == 16 && a.max_skip == Some(15))
        );
        assert!(
            matches!(&dirs[5], Directive::Section { name, args } if name == ".rodata" && args.len() == 2)
        );
        assert!(matches!(&dirs[6], Directive::Align(a) if a.alignment == 8 && !a.p2_form));
        assert!(
            matches!(&dirs[7], Directive::Data { width: DataWidth::Quad, items } if items[0] == DataItem::Symbol(".L4".into()))
        );
        assert!(matches!(&dirs[10], Directive::Asciz(s) if s == "hi"));
        assert_eq!(dirs[11], Directive::Zero(16));
        assert!(matches!(&dirs[12], Directive::Size { expr, .. } if expr == ".-main"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("nop\nfrobnicate %eax\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        let e = parse("movl $5, 4(%bogus)\n").unwrap_err();
        assert!(e.message.contains("bogus"));
        let e = parse(".align 3\n").unwrap_err();
        assert!(e.message.contains("power of two"));
    }

    #[test]
    fn unknown_mnemonic_error_carries_line_and_text() {
        let e = parse("nop\nnop\nfrobnicate %eax, %ebx\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "frobnicate %eax, %ebx");
        let rendered = e.to_string();
        assert!(rendered.contains("line 3"), "{rendered}");
        assert!(rendered.contains("frobnicate %eax, %ebx"), "{rendered}");
    }

    #[test]
    fn bad_register_error_carries_line_and_text() {
        let e = parse("\tret\n\tmovl %eax, %exx\n").unwrap_err();
        assert_eq!(e.line, 2);
        // The offending line is reported trimmed, without the leading tab.
        assert_eq!(e.text, "movl %eax, %exx");
        assert!(e.message.contains("%exx"), "{}", e.message);
    }

    #[test]
    fn bad_memory_operand_error_carries_line_and_text() {
        let e = parse("movq 8(%rsp, %rax\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.text, "movq 8(%rsp, %rax");
        assert!(e.message.contains("missing `)`"), "{}", e.message);
        let e = parse("nop\nmovl $1, 8(%rsp,%rax,3)\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("invalid scale 3"), "{}", e.message);
        assert_eq!(e.text, "movl $1, 8(%rsp,%rax,3)");
    }

    #[test]
    fn bad_directive_error_carries_line_and_text() {
        let e = parse(".text\n.type main\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.text, ".type main");
        assert!(e.message.contains(".type"), "{}", e.message);
        let e = parse(".ascii unquoted\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.text, ".ascii unquoted");
        assert!(e.message.contains("quoted"), "{}", e.message);
    }

    #[test]
    fn bad_immediate_and_branch_target_carry_line_and_text() {
        let e = parse("addl $banana, %eax\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.text, "addl $banana, %eax");
        assert!(e.message.contains("$banana"), "{}", e.message);
        let e = parse("nop\nnop\njmp foo(bar\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "jmp foo(bar");
    }

    #[test]
    fn error_text_is_per_statement_line_not_whole_input() {
        // Multi-statement lines still report the full source line, and the
        // error points at the right line of a longer file.
        let text = ".text\nmain:\n\tpush %rbp; frobnicate\n\tret\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.text, "push %rbp; frobnicate");
    }

    #[test]
    fn multiple_labels_one_line() {
        let entries = parse("a: b: nop").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].label(), Some("a"));
        assert_eq!(entries[1].label(), Some("b"));
    }

    #[test]
    fn setcc_and_cmov() {
        let i = parse("sete %al").unwrap();
        assert_eq!(
            i[0].insn().unwrap().mnemonic,
            Mnemonic::Setcc(mao_x86::Cond::E)
        );
        let i = parse("cmovge %eax, %ebx").unwrap();
        assert_eq!(
            i[0].insn().unwrap().mnemonic,
            Mnemonic::Cmovcc(mao_x86::Cond::Ge)
        );
    }
}

#[cfg(test)]
mod directive_roundtrip_tests {
    use super::*;
    use crate::emit::emit;

    /// Every modeled directive must survive parse -> emit -> parse.
    #[test]
    fn all_directive_kinds_roundtrip() {
        let text = "\t.text\n\t.globl sym\n\t.type sym, @object\n\t.size sym, 8\n\t.p2align 4,,7\n\t.align 8\n\t.balign 16\n\t.byte 1, 2, 3\n\t.word 256\n\t.value 257\n\t.long 70000\n\t.int 70001\n\t.quad sym\n\t.ascii \"ab\"\n\t.asciz \"cd\"\n\t.string \"ef\"\n\t.zero 4\n\t.skip 8\n\t.space 2\n\t.comm buf,64,32\n\t.section .data.rel,\"aw\"\n\t.ident \"whatever trailing text\"\n";
        let first = parse(text).expect("parses");
        let second = parse(&emit(&first)).expect("re-parses");
        assert_eq!(first, second);
    }

    #[test]
    fn comm_sizes() {
        let entries = parse("\t.comm buf,64,32\n").unwrap();
        assert_eq!(
            entries[0].directive(),
            Some(&Directive::Comm {
                symbol: "buf".into(),
                size: 64,
                align: Some(32),
            })
        );
        assert!(parse("\t.comm buf\n").is_err());
    }

    #[test]
    fn balign_is_byte_alignment() {
        let entries = parse("\t.balign 32\n").unwrap();
        match entries[0].directive() {
            Some(Directive::Align(a)) => {
                assert_eq!(a.alignment, 32);
                assert!(!a.p2_form);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn align_fill_and_skip_fields() {
        let entries = parse("\t.p2align 4,0x90,7\n").unwrap();
        match entries[0].directive() {
            Some(Directive::Align(a)) => {
                assert_eq!(a.alignment, 16);
                assert_eq!(a.fill, Some(0x90));
                assert_eq!(a.max_skip, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_directives_pass_through_verbatim() {
        let text = "\t.cfi_startproc\n\t.file \"x.c\"\n\t.cfi_def_cfa_offset 16\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 3);
        for e in &entries {
            assert!(matches!(e.directive(), Some(Directive::Other { .. })));
        }
        let second = parse(&emit(&entries)).unwrap();
        assert_eq!(entries, second);
    }

    #[test]
    fn empty_and_whitespace_lines_ignored() {
        assert!(parse("\n\n   \n\t\n").unwrap().is_empty());
        assert_eq!(parse(" ; ; nop ; \n").unwrap().len(), 1);
    }
}

#[cfg(test)]
mod zero_copy_tests {
    use super::*;
    use crate::parser_reference::parse_reference;

    #[test]
    fn agrees_with_reference_parser() {
        let text = "\t.text\n\t.globl main\nmain:\n\tpush %rbp; movq %rsp, %rbp\n\tmovl \
                    $0, -4(%rbp) # init\n\tlock addl $1, (%rdi)\n.L2:\n\tcmpl $9, -4(%rbp)\n\tjle \
                    .L3\n\tjmp *tab(,%rax,8)\n.L3:\n\t.quad .L2, 0x10\n\t.string \"hi;# there\"\n\t\
                    .comm buf,64,32\n\t.p2align 4,,15\n\tret\n";
        assert_eq!(parse(text).unwrap(), parse_reference(text).unwrap());
    }

    #[test]
    fn error_offsets_point_at_the_statement() {
        let text = "nop\nfrobnicate %eax\n";
        let e = parse(text).unwrap_err();
        assert_eq!(&text[e.offset.clone()], "frobnicate %eax");
        assert_eq!(e.line, 2);

        // Offsets survive statement splitting and leading whitespace.
        let text = ".text\nmain:\n\tpush %rbp; frobnicate\n";
        let e = parse(text).unwrap_err();
        assert_eq!(&text[e.offset.clone()], "frobnicate");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn parallel_parse_is_byte_identical() {
        // Build an input comfortably above the parallel threshold.
        let block = ".text\nf:\n\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl $1, %eax # c\n\
                     \tcmpl %eax, %ebx; jne .Lx\n.Lx:\n\tleave\n\tret\n\t.quad .Lx\n";
        let text = block.repeat(2000);
        assert!(text.len() >= super::PARALLEL_MIN_BYTES);
        let seq = parse(&text).unwrap();
        for jobs in [2, 3, 4, 7] {
            let par = parse_with_jobs(&text, jobs).unwrap();
            assert_eq!(seq, par, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn parallel_parse_reports_first_error_like_sequential() {
        let good = "nop\n".repeat(40_000);
        let text = format!("{good}frobnicate %eax\n{}", "nop\n".repeat(40_000));
        let seq = parse(&text).unwrap_err();
        for jobs in [2, 4] {
            let par = parse_with_jobs(&text, jobs).unwrap_err();
            assert_eq!(seq, par, "jobs={jobs} error diverged");
        }
        assert_eq!(seq.line, 40_001);
        assert_eq!(&text[seq.offset.clone()], "frobnicate %eax");
    }

    /// Both parsers take up to `MAX_OPERANDS` operands and refuse one more
    /// with the same error.
    #[test]
    fn operand_lists_are_capped() {
        let statement = |n: usize| format!("addl {}\n", vec!["%eax"; n].join(", "));
        let ok = statement(MAX_OPERANDS);
        assert_eq!(parse(&ok).unwrap(), parse_reference(&ok).unwrap());
        let long = statement(MAX_OPERANDS + 1);
        let e = parse(&long).unwrap_err();
        let r = parse_reference(&long).unwrap_err();
        assert_eq!((e.line, &e.message), (r.line, &r.message));
        assert_eq!(e.message, "more than 8 operands");
        // A malformed operand past the cap still reports itself first.
        let bad = format!("addl {}, %bogus\n", ["%eax"; MAX_OPERANDS].join(", "));
        let (e, r) = (parse(&bad).unwrap_err(), parse_reference(&bad).unwrap_err());
        assert_eq!((e.line, &e.message), (r.line, &r.message));
        assert!(e.message.contains("bogus"), "{}", e.message);
    }

    #[test]
    fn small_inputs_skip_threading() {
        let text = "nop\nnop\n";
        assert_eq!(parse_with_jobs(text, 8).unwrap(), parse(text).unwrap());
    }

    #[test]
    fn crlf_line_endings_parse() {
        let entries = parse(".text\r\nf:\r\n\tret\r\n").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[1].label(), Some("f"));
    }
}

#[cfg(test)]
mod aarch64_tests {
    use super::*;
    use crate::emit::emit;
    use mao_isa::Insn;

    const A64_SAMPLE: &str = "\t.text\n\t.globl f // comment\nf:\n\tsub\tsp, sp, #16\n\tstr\t\
                              x19, [sp, #8]\n\tcmp\tx0, #0\n\tb.eq\t.L2\n\tbl\tg; mov\tx1, \
                              x0\n.L2:\n\tldr\tx19, [sp, #8]\n\tadd\tsp, sp, #16\n\tret\n";

    #[test]
    fn a64_statements_parse_through_the_shared_front_end() {
        let entries = parse_isa(A64_SAMPLE, IsaId::Aarch64).unwrap();
        let insns: Vec<_> = entries.iter().filter_map(|e| e.insn_any()).collect();
        assert_eq!(insns.len(), 9);
        assert!(insns.iter().all(|i| i.isa() == IsaId::Aarch64));
        assert_eq!(insns[3].target_label(), Some(".L2"));
        // Labels and directives flow through the generic layer.
        assert_eq!(entries.iter().filter_map(Entry::label).count(), 2);
        // The x86-only view sees no instructions at all.
        assert_eq!(entries.iter().filter_map(Entry::insn).count(), 0);
    }

    #[test]
    fn hash_is_not_a_comment_on_aarch64() {
        let entries = parse_isa("\tmov\tx0, #42 // set answer\n", IsaId::Aarch64).unwrap();
        let Some(Insn::A64(i)) = entries[0].insn_any() else {
            panic!("expected an A64 insn");
        };
        assert_eq!(i.to_string(), "mov\tx0, #42");
    }

    #[test]
    fn a64_parse_emit_parse_is_identity() {
        let first = parse_isa(A64_SAMPLE, IsaId::Aarch64).unwrap();
        let second = parse_isa(&emit(&first), IsaId::Aarch64).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn a64_errors_carry_line_numbers() {
        let e = parse_isa("\tnop\n\tfrobnicate x0\n", IsaId::Aarch64).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{}", e.message);
        let e = parse_isa("\tmov\tx0\n", IsaId::Aarch64).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn x86_dialect_still_owns_hash_comments() {
        let entries = parse(".text\r\nf:\r\n\tret\r\n").unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[1].label(), Some("f"));
    }
}
