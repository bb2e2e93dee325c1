//! Experiment: §V.A compile-time performance.
//!
//! The paper: *"for a typical set of passes, MAO is about five times slower
//! than gas"* — gas makes one pass over the instructions (here: parse +
//! emit), MAO makes one per optimization pass plus relaxation. Both arms
//! run over the scale-0.02 synthetic core-library corpus; the ratio is of
//! the medians of ten timed runs per arm.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mao::pass::{parse_invocations, run_pipeline};
use mao::MaoUnit;
use mao_corpus::{generate, GeneratorConfig};

const RUNS: usize = 10;

/// gas-equivalent: parse the file and write it back out (one pass).
fn gas_like(text: &str) -> usize {
    let unit = MaoUnit::parse(text).expect("corpus parses");
    unit.emit().len()
}

/// MAO: parse, run a typical pass set (the Fig. 7 set), relax, emit.
fn mao_like(text: &str) -> usize {
    let mut unit = MaoUnit::parse(text).expect("corpus parses");
    let invs = parse_invocations("REDMOV:REDTEST:LOOP16:SCHED").expect("valid pass string");
    run_pipeline(&mut unit, &invs, None).expect("passes run");
    mao::relax(&unit).expect("relaxes");
    unit.emit().len()
}

/// Median wall-clock time of `RUNS` runs of `f`.
fn median(f: impl Fn(&str) -> usize, text: &str) -> Duration {
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(f(black_box(text)));
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[RUNS / 2]
}

fn main() {
    let text = generate(&GeneratorConfig::core_library(0.02)).asm;
    println!(
        "== §V.A compile time (scale-0.02 corpus, {} bytes) ==",
        text.len()
    );
    let gas = median(gas_like, &text);
    let mao = median(mao_like, &text);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!("  gas-like {:7.2} ms  (parse, emit)", ms(gas));
    println!(
        "  MAO      {:7.2} ms  (parse, REDMOV:REDTEST:LOOP16:SCHED, relax, emit)",
        ms(mao)
    );
    println!(
        "  MAO is {:.1}x slower (medians of {RUNS} runs; paper: ~5x)",
        mao.as_secs_f64() / gas.as_secs_f64()
    );
}
