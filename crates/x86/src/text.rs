//! Allocation-free text output shared by every emitter.
//!
//! Emission writes each entry straight into one reserved `String` with
//! `push`/`push_str` only: no `fmt` machinery and no temporary strings.
//! This module holds the pieces every ISA's writer needs — the integer
//! writer — plus [`display_via`], the adapter that lets a `Display` impl
//! reuse the byte writer, so each node has exactly one spelling.

use std::fmt;

/// Append the decimal digits of `v`.
pub fn push_u64(out: &mut String, mut v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v > 0 {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Append `v` in decimal, as `{v}` would print it (`i64::MIN` included).
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append `v` with an explicit sign, as `{v:+}` would print it (`+8`, `-8`,
/// `+0`): the form of a symbol's addend.
pub fn push_signed(out: &mut String, v: i64) {
    if v >= 0 {
        out.push('+');
    }
    push_i64(out, v);
}

/// Implement `Display` through a byte writer: `write` fills a scratch
/// string that is handed to the formatter whole. Diagnostics and tests use
/// this; emission calls the writers directly.
pub fn display_via(f: &mut fmt::Formatter<'_>, write: impl FnOnce(&mut String)) -> fmt::Result {
    let mut text = String::new();
    write(&mut text);
    f.write_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_match_the_formatter() {
        let values = [
            0,
            1,
            9,
            10,
            -1,
            -10,
            99,
            100,
            4096,
            -4096,
            i64::from(i32::MIN),
            i64::from(u32::MAX),
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        for v in values {
            let mut out = String::new();
            push_i64(&mut out, v);
            assert_eq!(out, format!("{v}"));
            out.clear();
            push_signed(&mut out, v);
            assert_eq!(out, format!("{v:+}"));
        }
        let mut out = String::new();
        push_u64(&mut out, u64::MAX);
        assert_eq!(out, u64::MAX.to_string());
    }
}
