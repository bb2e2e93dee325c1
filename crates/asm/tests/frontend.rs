//! Differential and round-trip properties of the zero-copy front end.
//!
//! The zero-copy parser ([`mao_asm::parse`]) must agree entry-for-entry
//! with the retired seed parser ([`mao_asm::parse_reference`]) on every
//! input, and the binary IR snapshot must round-trip the parse exactly:
//! `parse(text) == load(snapshot(parse(text)))` along both the eager and
//! the streaming decode paths. Inputs are drawn from a deterministic
//! pseudo-random assembly generator (no external proptest dependency), so
//! failures reproduce from the printed seed.
//!
//! On the synthetic compiler corpus, every front end must also equal the
//! seed parser, and optimized builds gate two speedups over it: parse at
//! least 2x, and snapshot load at least 10x the seed parser's text parse.

use std::time::Instant;

use mao_asm::snapshot::{content_key, decode, encode, Snapshot};
use mao_asm::{parse, parse_reference, parse_with_jobs, Entry};
use mao_corpus::{generate, GeneratorConfig};

/// Deterministic xorshift64* generator: property inputs reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// One pseudo-random statement line, drawn from the grammar the corpus
/// generator exercises plus edge cases it does not (comments mid-line,
/// `;` statement separators, odd spacing, string escapes).
fn random_line(rng: &mut Rng, out: &mut String) {
    const REGS: &[&str] = &[
        "%rax", "%rbx", "%rcx", "%rdi", "%rsi", "%r8", "%r13", "%eax", "%ebx",
    ];
    const MNEMS: &[&str] = &[
        "movq", "addq", "subl", "xorl", "testl", "cmpq", "imulq", "leaq",
    ];
    match rng.below(12) {
        0 => {
            out.push_str(".L");
            out.push_str(&rng.below(500).to_string());
            out.push(':');
        }
        1 => {
            out.push('\t');
            out.push_str(rng.pick(MNEMS));
            out.push(' ');
            out.push_str(rng.pick(REGS));
            out.push_str(", ");
            out.push_str(rng.pick(REGS));
        }
        2 => {
            out.push('\t');
            out.push_str(rng.pick(&["movq", "movl", "addq"]));
            out.push_str(" $");
            out.push_str(&(rng.next() as i32).to_string());
            out.push_str(", ");
            out.push_str(rng.pick(REGS));
        }
        3 => {
            out.push('\t');
            out.push_str(rng.pick(MNEMS));
            out.push(' ');
            out.push_str(&(rng.below(256) as i64 - 128).to_string());
            out.push_str("(%rbp), ");
            out.push_str(rng.pick(REGS));
        }
        4 => {
            out.push('\t');
            out.push_str(rng.pick(&["je", "jne", "jg", "jmp"]));
            out.push_str(" .L");
            out.push_str(&rng.below(500).to_string());
        }
        5 => {
            out.push('\t');
            out.push_str(rng.pick(&[".text", ".data", ".globl foo", ".align 8", ".p2align 4,,15"]));
        }
        6 => {
            out.push('\t');
            out.push_str(".quad ");
            out.push_str(&rng.below(1 << 30).to_string());
            out.push_str(", .L");
            out.push_str(&rng.below(500).to_string());
        }
        7 => {
            out.push('\t');
            out.push_str(".string \"s");
            out.push_str(&rng.below(100).to_string());
            out.push_str("\\n\"");
        }
        8 => {
            // Comment tail after a statement.
            out.push_str("\tmovq %rax, %rbx # trailing ");
            out.push_str(&rng.below(100).to_string());
        }
        9 => {
            // Multiple statements on one line.
            out.push_str("nop; nop;\tincq %rax");
        }
        10 => {
            out.push_str("\tmovq tbl");
            if rng.below(2) == 0 {
                out.push('+');
                out.push_str(&rng.below(64).to_string());
            }
            out.push_str("(%rip), ");
            out.push_str(rng.pick(REGS));
        }
        _ => {
            // Blank-ish line with stray whitespace.
            out.push_str("   \t  ");
        }
    }
    out.push('\n');
}

fn random_unit(seed: u64, lines: usize) -> String {
    let mut rng = Rng(seed | 1);
    let mut text = String::with_capacity(lines * 24);
    text.push_str("\t.text\nf:\n");
    for _ in 0..lines {
        random_line(&mut rng, &mut text);
    }
    text.push_str("\tret\n");
    text
}

#[test]
fn zero_copy_parse_matches_reference_on_random_units() {
    for seed in 1..=40u64 {
        let text = random_unit(seed, 120);
        let fast = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        let slow =
            parse_reference(&text).unwrap_or_else(|e| panic!("seed {seed}: reference failed: {e}"));
        assert_eq!(fast, slow, "seed {seed}: parsers disagree");
    }
}

#[test]
fn snapshot_roundtrips_random_units_eagerly_and_streaming() {
    for seed in 1..=40u64 {
        let text = random_unit(seed, 120);
        let entries = parse(&text).unwrap();
        let key = content_key(&text);
        let bytes = encode(&entries, key);

        // parse(text) == load(snapshot(parse(text))), eager path.
        let eager = decode(&bytes, Some(key)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(entries, eager, "seed {seed}: eager round-trip diverged");

        // Streaming path: the lazy iterator yields the same entries.
        let snap = Snapshot::load(&bytes, Some(key)).unwrap();
        assert_eq!(snap.len(), entries.len(), "seed {seed}: entry count");
        let streamed: Result<Vec<Entry>, _> = snap.iter().collect();
        assert_eq!(
            streamed.as_deref(),
            Ok(&entries[..]),
            "seed {seed}: streaming round-trip diverged"
        );
    }
}

#[test]
fn parallel_parse_is_byte_identical_on_random_units() {
    for seed in [3u64, 17, 29] {
        // Large enough to clear the parallel threshold (64 KiB).
        let text = random_unit(seed, 4000);
        assert!(text.len() >= 64 * 1024);
        let sequential = parse(&text).unwrap();
        for jobs in [2, 3, 8] {
            let parallel = parse_with_jobs(&text, jobs).unwrap();
            assert_eq!(sequential, parallel, "seed {seed}: jobs={jobs} diverged");
        }
    }
}

#[test]
fn parser_errors_agree_with_reference() {
    // Both parsers must reject the same junk, on the same line.
    for junk in [
        "\tnotamnemonic %rax\n",
        "f:\n\tmovq %nosuchreg, %rax\n",
        "\tmovq $x, %rax\n",
        "\tjmp 1+2\n",
        "\t.string \"unterminated\n",
        "\tmovq 4(%rbp, %rax, 3), %rdx\n",
    ] {
        let fast = parse(junk);
        let slow = parse_reference(junk);
        match (&fast, &slow) {
            (Err(a), Err(b)) => assert_eq!(a.line, b.line, "line differs for {junk:?}"),
            _ => panic!("acceptance differs for {junk:?}: fast={fast:?} slow={slow:?}"),
        }
    }
}

#[test]
fn parse_errors_carry_byte_offsets() {
    let text = "\tnop\n\tbogusinsn %rax\n";
    let e = parse(text).unwrap_err();
    assert_eq!(e.line, 2);
    let r = e.offset.clone();
    assert_eq!(&text[r.start..r.end], "bogusinsn %rax");
}

/// The gate corpus: synthetic compiler output at scale 0.2.
fn corpus_text() -> String {
    generate(&GeneratorConfig::core_library(0.2)).asm
}

/// Every front end over `text` — zero-copy parse, the chunked parser at 4
/// jobs, eager snapshot decode and the streamed snapshot load — must equal
/// the seed parser's entry list. Returns the snapshot bytes and their key.
fn check_front_ends(text: &str) -> (Vec<u8>, u128) {
    let reference = parse_reference(text).expect("reference parse");
    assert!(!reference.is_empty());
    let parsed = parse(text).expect("zero-copy parse");
    assert!(
        parsed == reference,
        "zero-copy parser disagrees with the reference"
    );
    let parallel = parse_with_jobs(text, 4).expect("parallel parse");
    assert!(
        parallel == reference,
        "parallel parser disagrees with the reference"
    );
    let key = content_key(text);
    let bytes = encode(&parsed, key);
    let decoded = decode(&bytes, Some(key)).expect("snapshot decode");
    assert!(
        decoded == reference,
        "snapshot decode disagrees with the reference"
    );
    let streamed: Result<Vec<Entry>, _> = Snapshot::load(&bytes, Some(key))
        .expect("snapshot load")
        .iter()
        .collect();
    assert!(
        streamed.as_deref() == Ok(&reference[..]),
        "streamed snapshot entries disagree with the reference"
    );
    (bytes, key)
}

#[test]
fn corpus_front_ends_match_reference() {
    check_front_ends(&corpus_text());
}

/// Median wall-clock microseconds of five runs of `f`.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut us: Vec<u64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            drop(f());
            t.elapsed().as_micros() as u64
        })
        .collect();
    us.sort_unstable();
    us[2] as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "speed gates need an optimized build")]
fn corpus_front_end_speed_gates() {
    let text = corpus_text();
    // A fast wrong front end must fail here, not pass the gates.
    let (bytes, key) = check_front_ends(&text);
    let reference_us = median_us(|| parse_reference(&text).unwrap());
    let parse_us = median_us(|| parse(&text).unwrap());
    let snapshot_us = median_us(|| Snapshot::load(&bytes, Some(key)).unwrap());
    let parse_speedup = reference_us / parse_us.max(1.0);
    let snapshot_speedup = reference_us / snapshot_us.max(1.0);
    eprintln!(
        "front end: reference {reference_us:.0}us, parse {parse_us:.0}us \
         ({parse_speedup:.1}x), snapshot load {snapshot_us:.0}us ({snapshot_speedup:.1}x)"
    );
    assert!(
        parse_speedup >= 2.0,
        "parse speedup {parse_speedup:.2}x is below the 2x gate"
    );
    assert!(
        snapshot_speedup >= 10.0,
        "snapshot-load speedup {snapshot_speedup:.2}x is below the 10x gate"
    );
}
