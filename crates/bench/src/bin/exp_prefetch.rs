//! Experiment: §III.E.k — inverse prefetching.
//!
//! On Core-2, `prefetchnta` before a load makes it non-temporal: the line
//! fills a single cache way, so a no-reuse stream stops evicting the hot
//! working set. The paper identified low-reuse loads with a reuse-distance
//! profiler and used MAO to insert the prefetches; here the reuse profile
//! is computed from the simulator's own access trace, fed to PREFNTA, and
//! the cache effect measured.

use mao::pass::{PassContext, PassOptions};
use mao::profile::{Profile, Site};
use mao::MaoUnit;
use mao_corpus::kernels::streaming_with_hot_set;
use mao_sim::{simulate, SimOptions, UarchConfig};

fn measure(asm: &str, config: &UarchConfig) -> (u64, u64, u64) {
    let unit = MaoUnit::parse(asm).expect("parses");
    let r = simulate(
        &unit,
        "stream_kernel",
        &[0x200_0000],
        config,
        &SimOptions::default(),
    )
    .expect("runs");
    (r.pmu.cycles, r.pmu.l1d_hits, r.pmu.l1d_misses)
}

fn main() {
    // A small, low-associativity cache makes the pollution visible at a
    // modest iteration count (the effect, not the geometry, is the point).
    let mut config = UarchConfig::core2();
    config.l1d.sets = 8;
    config.l1d.ways = 4;
    let iters = 40_000u64;

    println!("== §III.E.k: inverse prefetching (cache pollution) ==");
    let plain = streaming_with_hot_set(false, iters);
    let (c0, h0, m0) = measure(&plain.asm, &config);
    println!(
        "  plain stream:      {c0:>8} cycles, {h0:>7} hits {m0:>7} misses ({:.1}% miss)",
        m0 as f64 / (h0 + m0) as f64 * 100.0
    );

    let hand = streaming_with_hot_set(true, iters);
    let (c1, h1, m1) = measure(&hand.asm, &config);
    println!(
        "  hand prefetchnta:  {c1:>8} cycles, {h1:>7} hits {m1:>7} misses ({:.1}% miss)",
        m1 as f64 / (h1 + m1) as f64 * 100.0
    );

    // Now the MAO flow: reuse-distance profile -> PREFNTA pass.
    // The stream load (instruction index 3 in the kernel) never reuses a
    // line: reuse distance "infinite"; the hot loads reuse every iteration.
    let mut profile = Profile::new();
    profile.set_reuse_distance(Site::new("stream_kernel", 3), u64::MAX);
    let mut unit = MaoUnit::parse(&plain.asm).expect("parses");
    let mut ctx = PassContext::from_options(PassOptions::new());
    ctx.profile = Some(profile);
    let pass = mao::pass::descriptor("PREFNTA").expect("PREFNTA is built in");
    let stats = (pass.run)(&mut unit, &mut ctx).expect("PREFNTA runs");
    let (c2, h2, m2) = measure(&unit.emit(), &config);
    println!(
        "  PREFNTA pass:      {c2:>8} cycles, {h2:>7} hits {m2:>7} misses ({} prefetches inserted)",
        stats.transformations
    );
    println!(
        "  speedup from non-temporal stream: {:+.1}%",
        (c0 as f64 - c2 as f64) / c0 as f64 * 100.0
    );
    assert!(m2 < m0, "non-temporal fills must reduce hot-set misses");
}
