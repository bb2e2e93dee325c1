//! Prometheus text exposition: a line builder and a grammar validator.
//!
//! The builder keeps label values escaped and families grouped under one
//! `# TYPE` line; the validator is the test- and CI-side check that what the
//! daemon's `metrics` endpoint serves actually parses as exposition format.

use std::fmt::Display;
use std::fmt::Write as _;

/// Incremental Prometheus text builder.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl PromText {
    /// Empty builder.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emit a `# TYPE family kind` header.
    pub fn type_line(&mut self, family: &str, kind: &str) {
        let _ = writeln!(self.buf, "# TYPE {family} {kind}");
    }

    /// Emit one `name{labels} value` sample line.
    pub fn sample(&mut self, name: &str, labels: &[(String, String)], value: impl Display) {
        if labels.is_empty() {
            let _ = writeln!(self.buf, "{name} {value}");
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = writeln!(self.buf, "{name}{{{}}} {value}", rendered.join(","));
        }
    }

    /// Emit a gauge family with a single unlabeled sample — the shape every
    /// scrape-time value (uptime, in-flight, cache length) uses.
    pub fn gauge(&mut self, family: &str, value: impl Display) {
        self.type_line(family, "gauge");
        self.sample(family, &[], value);
    }

    /// The accumulated text.
    pub fn finish(self) -> String {
        self.buf
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse one `{k="v",...}` label block; returns the remainder after `}`.
fn validate_labels(s: &str) -> Result<&str, String> {
    let mut rest = s.strip_prefix('{').expect("caller checked");
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{rest}`"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("bad label name `{name}`"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label value must be quoted after `{name}`"))?;
        // Scan the quoted value honoring backslash escapes.
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next() {
                Some((_, '\\')) => {
                    chars.next();
                }
                Some((i, '"')) => break i,
                Some(_) => {}
                None => return Err("unterminated label value".to_string()),
            }
        };
        rest = &rest[end + 1..];
        match rest.chars().next() {
            Some(',') => rest = &rest[1..],
            Some('}') => return Ok(&rest[1..]),
            other => return Err(format!("expected `,` or `}}` after label, got {other:?}")),
        }
    }
}

/// Check `text` against the Prometheus text exposition grammar: every line
/// is a comment (`# TYPE` / `# HELP`), blank, or `name[{labels}] value`,
/// and every sample's family was declared by a preceding `# TYPE` line.
pub fn validate(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let family = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without a family"))?;
                    if !valid_metric_name(family) {
                        return Err(format!("line {lineno}: bad family name `{family}`"));
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        other => {
                            return Err(format!("line {lineno}: bad TYPE kind {other:?}"));
                        }
                    }
                    if typed.contains(&family.to_string()) {
                        return Err(format!("line {lineno}: family `{family}` typed twice"));
                    }
                    typed.push(family.to_string());
                }
                Some("HELP") => {}
                other => return Err(format!("line {lineno}: unknown comment {other:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c == ' ')
            .ok_or_else(|| format!("line {lineno}: no value on sample line"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad metric name `{name}`"));
        }
        let rest = if line[name_end..].starts_with('{') {
            validate_labels(&line[name_end..]).map_err(|e| format!("line {lineno}: {e}"))?
        } else {
            &line[name_end..]
        };
        let value = rest.trim();
        let numeric = value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !numeric {
            return Err(format!("line {lineno}: bad sample value `{value}`"));
        }
        // The family is the name minus a histogram sample suffix.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(&f.to_string()))
            .unwrap_or(name);
        if !typed.contains(&family.to_string()) {
            return Err(format!(
                "line {lineno}: sample `{name}` before its # TYPE line"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_validates() {
        let mut out = PromText::new();
        out.type_line("mao_requests_total", "counter");
        out.sample("mao_requests_total", &[], 3u64);
        out.gauge("mao_uptime_seconds", 1.5);
        out.type_line("mao_relax_layouts_total", "counter");
        out.sample(
            "mao_relax_layouts_total",
            &[("kind".to_string(), "full".to_string())],
            9u64,
        );
        let text = out.finish();
        validate(&text).expect("valid");
        assert!(text.contains("mao_relax_layouts_total{kind=\"full\"} 9"));
    }

    #[test]
    fn escaping_survives_validation() {
        let mut out = PromText::new();
        out.type_line("m", "counter");
        out.sample("m", &[("k".to_string(), "a\"b\\c\nd".to_string())], 1u64);
        validate(&out.finish()).expect("escaped value is valid");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate("garbage here\n").is_err());
        assert!(validate("# TYPE m frobnitz\nm 1\n").is_err());
        assert!(validate("m 1\n").is_err(), "sample before TYPE");
        assert!(validate("# TYPE m counter\nm notanumber\n").is_err());
        assert!(validate("# TYPE m counter\nm{k=unquoted} 1\n").is_err());
        assert!(validate("# TYPE m counter\n# TYPE m counter\n").is_err());
    }

    #[test]
    fn accepts_histogram_shape() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"10\"} 1\n\
                    h_bucket{le=\"+Inf\"} 2\n\
                    h_sum 12\n\
                    h_count 2\n";
        validate(text).expect("histogram sample lines belong to the family");
    }
}
