//! The function-result memo against memo-less runs.
//!
//! One memo is shared by every step of seeded unit lineages, the way `maod`
//! shares one across requests and shards. Each step edits the current unit
//! — an instruction changed in one function, a length-changing edit in an
//! earlier function that shifts the later ones, a `.rodata` jump-table
//! change, a switch to another unit whose functions have the same names, or
//! nothing — and runs the benchmark pipeline (tracing at level 2) twice:
//! through the memo, alternating `--jobs 1` and `--jobs 2`, and without
//! one. Emitted text, per-pass stats and trace lines must be identical.
//!
//! Separate tests pin what the key covers (cost model, pass options, ISA,
//! context) and the cases the isolation rule exists for. The generator is
//! a xorshift64 loop, so a failure reproduces from the printed seed and
//! step.

use std::sync::{Arc, Mutex, MutexGuard};

use mao::pass::{parse_invocations, run_pipeline_shared, PipelineConfig, PipelineReport};
use mao::{AnalysisCache, FunctionMemo, FunctionMemoStats, MaoUnit};

/// The memo keys on the process-global cost model; tests that swap it, and
/// the ones that must not see it swapped, run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const PIPELINE: &str = "REDZEXT=trace[2]:REDTEST=trace[2]:REDMOV=trace[2]:ADDADD=trace[2]:\
                        CONSTFOLD=trace[2]:DCE=trace[2]:SCHED=trace[2]:BRALIGN:LOOP16:LSDFIT";

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One function: blocks of lines, block `b` starting at label `.L{k}_{b}`,
/// and optionally a jump table, either in a `.rodata`
/// section that splits the function's text (two spans) or after all text.
#[derive(Clone)]
struct Func {
    k: usize,
    blocks: Vec<Vec<String>>,
    table: Option<Vec<usize>>,
    split: bool,
}

#[derive(Clone)]
struct Unit {
    funcs: Vec<Func>,
}

/// A chunk of straight-line code that one of the prefix passes fires on
/// (or, for the last arms, that only SCHED reorders).
fn chunk(rng: &mut XorShift, k: usize, blocks: usize) -> String {
    let target = rng.below(blocks);
    match rng.below(9) {
        0 => "\tandl\t$255, %eax\n\tmovl\t%eax, %eax\n".to_string(),
        1 => format!("\tsubl\t$16, %r15d\n\ttestl\t%r15d, %r15d\n\tjne\t.L{k}_{target}\n"),
        2 => "\tmovl\t8(%rsp), %ecx\n\tmovl\t8(%rsp), %edx\n".to_string(),
        3 => format!("\taddl\t${}, %eax\n\taddl\t$4, %eax\n", rng.below(9)),
        4 => format!("\tmovl\t${}, %ecx\n\taddl\t$5, %ecx\n", rng.below(9)),
        5 => format!("\tret\n.L{k}_dead{}:\n\taddl\t$1, %edx\n", rng.below(1000)),
        6 => format!("\tsubl\t$1, %edi\n\tjne\t.L{k}_{target}\n"),
        7 => format!(
            "\timull\t%esi, %edi\n\taddl\t%edi, %ebx\n\tmovl\t%eax, %edx\n\tleaq\t{}(%rsp), %rcx\n",
            rng.below(100)
        ),
        _ => format!("\tleaq\t{}(%rsp), %rsi\n", rng.below(100)),
    }
}

fn random_func(rng: &mut XorShift, k: usize) -> Func {
    let nblocks = 1 + rng.below(4);
    let blocks = (0..nblocks)
        .map(|_| {
            (0..1 + rng.below(4))
                .map(|_| chunk(rng, k, nblocks))
                .collect()
        })
        .collect();
    let table =
        (rng.below(3) == 0).then(|| (0..1 + rng.below(3)).map(|_| rng.below(nblocks)).collect());
    Func {
        k,
        blocks,
        table,
        split: rng.below(2) == 0,
    }
}

fn random_unit(rng: &mut XorShift) -> Unit {
    Unit {
        funcs: (0..2 + rng.below(4)).map(|k| random_func(rng, k)).collect(),
    }
}

fn table_text(f: &Func, table: &[usize]) -> String {
    let mut out = format!(".LT{}:\n", f.k);
    for b in table {
        out.push_str(&format!("\t.quad\t.L{}_{b}\n", f.k));
    }
    out
}

fn render(unit: &Unit) -> String {
    let mut text = String::from("\t.text\n");
    let mut trailing = String::new();
    for f in &unit.funcs {
        let k = f.k;
        text.push_str(&format!(
            "\t.globl\tf{k}\n\t.type\tf{k}, @function\nf{k}:\n"
        ));
        if let Some(table) = &f.table {
            text.push_str(&format!("\tjmp\t*.LT{k}(,%rax,8)\n"));
            if f.split {
                text.push_str(&format!(
                    "\t.section\t.rodata\n{}\t.text\n",
                    table_text(f, table)
                ));
            } else {
                trailing.push_str(&table_text(f, table));
            }
        }
        for (b, block) in f.blocks.iter().enumerate() {
            text.push_str(&format!(".L{k}_{b}:\n"));
            for line in block {
                text.push_str(line);
            }
        }
        text.push_str("\tret\n");
    }
    if !trailing.is_empty() {
        text.push_str("\t.section\t.rodata\n");
        text.push_str(&trailing);
    }
    text
}

/// One random edit of `unit`; returns what it did.
fn mutate(rng: &mut XorShift, unit: &mut Unit) -> String {
    let n = unit.funcs.len();
    match rng.below(5) {
        // An instruction changed in one function.
        0 | 1 => {
            let f = &mut unit.funcs[rng.below(n)];
            let nblocks = f.blocks.len();
            let b = rng.below(nblocks);
            let block = &mut f.blocks[b];
            let i = rng.below(block.len());
            block[i] = chunk(rng, f.k, nblocks);
            format!("changed a chunk of f{}", f.k)
        }
        // A length-changing edit in the first function: every later
        // function shifts.
        2 => {
            let f = &mut unit.funcs[0];
            let nblocks = f.blocks.len();
            let block = &mut f.blocks[0];
            if block.len() > 1 && rng.below(2) == 0 {
                block.pop();
                "shortened f0".to_string()
            } else {
                block.push(chunk(rng, 0, nblocks));
                "lengthened f0".to_string()
            }
        }
        // A jump-table change (the context every key covers).
        3 => match unit.funcs.iter_mut().find(|f| f.table.is_some()) {
            Some(f) => {
                let nblocks = f.blocks.len();
                let table = f.table.as_mut().unwrap();
                table.push(rng.below(nblocks));
                format!("grew the jump table of f{}", f.k)
            }
            None => "no jump table".to_string(),
        },
        _ => "unchanged".to_string(),
    }
}

/// What a run reports: text, per-pass stats, trace lines.
fn observe(unit: &MaoUnit, report: &PipelineReport) -> (String, String, Vec<String>) {
    (
        unit.emit(),
        format!("{:?}", report.passes),
        report.trace.clone(),
    )
}

fn run(
    text: &str,
    passes: &str,
    cache: &Arc<AnalysisCache>,
    jobs: usize,
) -> (String, String, Vec<String>) {
    let mut unit = MaoUnit::parse(text).unwrap();
    let invs = parse_invocations(passes).unwrap();
    let report =
        run_pipeline_shared(&mut unit, &invs, None, &PipelineConfig { jobs }, cache).unwrap();
    observe(&unit, &report)
}

fn memo_cache(memo: &Arc<FunctionMemo>) -> Arc<AnalysisCache> {
    let cache = Arc::new(AnalysisCache::new());
    cache.set_function_memo(memo.clone());
    cache
}

/// A fresh, memo-less run: what one-shot `mao` does.
fn oneshot(text: &str, passes: &str) -> (String, String, Vec<String>) {
    run(text, passes, &Arc::new(AnalysisCache::new()), 1)
}

#[test]
fn memo_matches_memo_less_runs_on_random_edit_sequences() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    // Like a daemon shard: one analysis cache across every request.
    let shared = memo_cache(&memo);
    for seed in 1..=12u64 {
        let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut lineages: Vec<Unit> = (0..3).map(|_| random_unit(&mut rng)).collect();
        let mut current = 0;
        for step in 0..40 {
            let what = if rng.below(6) == 0 {
                current = rng.below(lineages.len());
                format!("switched to unit {current}")
            } else {
                mutate(&mut rng, &mut lineages[current])
            };
            let text = render(&lineages[current]);
            let jobs = 1 + step % 2;
            let through_memo = run(&text, PIPELINE, &shared, jobs);
            let expected = oneshot(&text, PIPELINE);
            assert_eq!(
                through_memo, expected,
                "seed {seed} step {step} ({what}, jobs {jobs}):\n{text}"
            );
        }
    }
    let stats = memo.stats();
    assert!(stats.hits > 100, "the sequences must hit: {stats:?}");
    assert!(stats.admissions > 0 && stats.misses > 0, "{stats:?}");
}

/// Prime `memo` with `text` under `passes` until its functions are stored
/// (the second miss admits), then run once more and return what that last
/// run added to the counters.
fn prime_then_run(memo: &Arc<FunctionMemo>, text: &str, passes: &str) -> FunctionMemoStats {
    for _ in 0..2 {
        run(text, passes, &memo_cache(memo), 1);
    }
    let before = memo.stats();
    let out = run(text, passes, &memo_cache(memo), 1);
    assert_eq!(out, oneshot(text, passes), "{text}");
    let after = memo.stats();
    FunctionMemoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        admissions: after.admissions - before.admissions,
        ..after
    }
}

const TWO_SPANS: &str = "\t.text\n\t.type\tf, @function\nf:\n\tandl\t$255, %eax\n\tmovl\t%eax, %eax\n\
    \tjmp\t*.Ltab(,%rax,8)\n\t.section\t.rodata\n.Ltab:\n\t.quad\t.L1\n\t.quad\t.L2\n\t.text\n\
    .L1:\n\taddl\t$3, %eax\n\taddl\t$4, %eax\n\tret\n.L2:\n\tsubl\t$16, %r15d\n\ttestl\t%r15d, %r15d\n\
    \tjne\t.L1\n\tret\n\t.type\tg, @function\ng:\n\tmovl\t$2, %ecx\n\taddl\t$5, %ecx\n\tret\n";

#[test]
fn second_sighting_admits_and_the_third_run_hits_every_function() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    let text = TWO_SPANS;
    let unit = MaoUnit::parse(text).unwrap();
    assert_eq!(
        unit.find_function("f").unwrap().spans.len(),
        2,
        "f has two spans"
    );
    run(text, PIPELINE, &memo_cache(&memo), 1);
    assert_eq!(
        memo.stats().admissions,
        0,
        "a first sighting stores nothing"
    );
    let third = prime_then_run(&memo, text, PIPELINE);
    assert_eq!((third.hits, third.misses), (2, 0), "{third:?}");
    assert_eq!(memo.stats().admissions, 2);
    assert!(memo.stats().bytes > 0);
}

#[test]
fn a_shifted_function_and_a_same_named_function_elsewhere_still_hit() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    let g = "\t.type\tg, @function\ng:\n\tmovl\t$2, %ecx\n\taddl\t$5, %ecx\n\tret\n";
    let f = |extra: &str| {
        format!("\t.text\n\t.type\tf, @function\nf:\n\taddl\t$3, %eax\n{extra}\taddl\t$4, %eax\n\tret\n{g}")
    };
    prime_then_run(&memo, &f(""), PIPELINE);
    // f grows, so g sits at other entry ids: g still hits.
    let shifted = f("\tnop\n\tnop\n");
    let before = memo.stats();
    assert_eq!(
        run(&shifted, PIPELINE, &memo_cache(&memo), 2),
        oneshot(&shifted, PIPELINE)
    );
    assert_eq!(memo.stats().hits - before.hits, 1, "g hits after the shift");
    // Another unit with a function also named g, with another body: miss.
    let other = "\t.text\n\t.type\tg, @function\ng:\n\tmovl\t$7, %ecx\n\taddl\t$5, %ecx\n\tret\n";
    let before = memo.stats();
    assert_eq!(
        run(other, PIPELINE, &memo_cache(&memo), 1),
        oneshot(other, PIPELINE)
    );
    assert_eq!(memo.stats().hits, before.hits, "same name, other body");
}

/// Once a unit's functions are stored, an edit of one of them is stored at
/// once: the next request with the same edit hits every function.
#[test]
fn an_edit_of_a_known_unit_is_stored_at_once() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    prime_then_run(&memo, TWO_SPANS, PIPELINE);
    let edited = TWO_SPANS.replace("\tmovl\t$2, %ecx\n", "\tmovl\t$3, %ecx\n");
    let before = memo.stats();
    assert_eq!(
        run(&edited, PIPELINE, &memo_cache(&memo), 1),
        oneshot(&edited, PIPELINE)
    );
    let after = memo.stats();
    assert_eq!(after.hits - before.hits, 1, "f hits, the edited g runs");
    assert_eq!(
        after.admissions - before.admissions,
        1,
        "g is stored at once"
    );
    run(&edited, PIPELINE, &memo_cache(&memo), 1);
    assert_eq!(memo.stats().hits - after.hits, 2, "both hit next time");
}

/// Everything outside the body that the key covers: each change misses.
#[test]
fn key_covers_cost_model_options_isa_and_context() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    prime_then_run(&memo, TWO_SPANS, PIPELINE);
    let hits_for = |text: &str, passes: &str| {
        let before = memo.stats().hits;
        run(text, passes, &memo_cache(&memo), 1);
        memo.stats().hits - before
    };
    assert_eq!(hits_for(TWO_SPANS, PIPELINE), 2, "unchanged: both hit");

    // Pass options.
    let source_order = PIPELINE.replace("SCHED=trace[2]", "SCHED=trace[2],policy[source-order]");
    assert_eq!(
        hits_for(TWO_SPANS, &source_order),
        0,
        "SCHED policy changed"
    );
    assert_eq!(hits_for(TWO_SPANS, "REDZEXT"), 0, "another prefix");

    // Context: the jump table outside every function span.
    let retabled = TWO_SPANS.replace("\t.quad\t.L2\n", "\t.quad\t.L1\n");
    assert_eq!(hits_for(&retabled, PIPELINE), 0, "jump table changed");

    // The cost model every SCHED decision is made under.
    let original = mao::isa::x86::cost::current();
    let mut model = (*original).clone();
    let mut add = model.get(mao::isa::x86::Mnemonic::Add);
    add.latency += 3;
    model.set(mao::isa::x86::Mnemonic::Add, add);
    assert_ne!(model.fingerprint(), original.fingerprint());
    mao::isa::x86::cost::install(Arc::new(model));
    let with_other_model = hits_for(TWO_SPANS, PIPELINE);
    mao::isa::x86::cost::install(original);
    assert_eq!(with_other_model, 0, "cost model changed");
    assert_eq!(hits_for(TWO_SPANS, PIPELINE), 2, "original model back");

    // The ISA: identical entries parsed for another target.
    let data_only = "\t.text\n\t.type\tf, @function\nf:\n\t.long\t1\n\t.long\t2\n";
    let memo_isa = Arc::new(FunctionMemo::new());
    let run_isa = |isa| {
        let mut unit = MaoUnit::parse_isa(data_only, isa).unwrap();
        let cache = memo_cache(&memo_isa);
        run_pipeline_shared(
            &mut unit,
            &parse_invocations("DCE").unwrap(),
            None,
            &PipelineConfig::default(),
            &cache,
        )
        .unwrap();
    };
    for _ in 0..3 {
        run_isa(mao::isa::IsaId::X86_64);
    }
    let before = memo_isa.stats().hits;
    assert!(before > 0, "x86-64 runs hit");
    run_isa(mao::isa::IsaId::Aarch64);
    assert_eq!(memo_isa.stats().hits, before, "another ISA must miss");
}

/// `g`'s dead block jumps to a label in `f`'s dead block. DCE keeps that
/// label while anything in the unit names it, so `f`'s result depends on
/// `g`: neither may be memoized, and the output must not change however
/// often the unit is seen.
#[test]
fn cross_function_label_references_are_not_memoized() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    let text = "\t.text\n\t.type\tf, @function\nf:\n\tret\n.Lshared:\n\taddl\t$1, %eax\n\tret\n\
        \t.type\tg, @function\ng:\n\tret\n.Lgdead:\n\tjmp\t.Lshared\n\
        \t.type\th, @function\nh:\n\taddl\t$3, %eax\n\taddl\t$4, %eax\n\tret\n";
    let third = prime_then_run(&memo, text, PIPELINE);
    assert_eq!(third.hits, 1, "only h is isolated: {third:?}");
    assert!(run(text, PIPELINE, &memo_cache(&memo), 1)
        .0
        .contains(".Lshared:"));
}

/// A pass carrying a dump option ends the prefix; passes before it still
/// use the memo and the dumps are unchanged.
#[test]
fn dump_options_end_the_prefix() {
    let _serial = serial();
    let memo = Arc::new(FunctionMemo::new());
    let passes = "REDZEXT:ADDADD=dump-before:DCE";
    let third = prime_then_run(&memo, TWO_SPANS, passes);
    assert_eq!(third.hits, 2, "{third:?}");
    let dumped = run(TWO_SPANS, passes, &memo_cache(&memo), 1).2;
    assert!(dumped.iter().any(|l| l.starts_with("=== IR before ADDADD")));
}
