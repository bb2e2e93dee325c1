//! The one-shot path: what `mao --mao=PIPELINE in.s` does per unit, called
//! through the same public entry points, with fresh caches per unit.

use std::sync::Arc;
use std::time::Instant;

use mao::isa::IsaId;
use mao::pass::{parse_invocations, run_pipeline_shared, PipelineConfig, PipelineReport};
use mao::{AnalysisCache, MaoUnit};

/// Result of optimizing one unit, with the layer times the benchmark took
/// from outside.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// Emitted assembly.
    pub asm: String,
    /// The pipeline's own report (per-pass stats and wall times).
    pub report: PipelineReport,
    /// `MaoUnit::parse_with_jobs_isa`.
    pub parse_us: f64,
    /// `MaoUnit::emit`.
    pub emit_us: f64,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Parse, optimize with `passes` and emit one unit, exactly as the CLI's
/// one-shot mode does at its defaults (`--jobs 1`, x86-64).
pub fn optimize(text: &str, passes: &str) -> Result<Optimized, String> {
    let t0 = Instant::now();
    let mut unit =
        MaoUnit::parse_with_jobs_isa(text, 1, IsaId::X86_64).map_err(|e| format!("parse: {e}"))?;
    let parse_us = micros(t0);
    let invocations = parse_invocations(passes).map_err(|e| e.to_string())?;
    let analyses = Arc::new(AnalysisCache::new());
    let report = run_pipeline_shared(
        &mut unit,
        &invocations,
        None,
        &PipelineConfig { jobs: 1 },
        &analyses,
    )
    .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let asm = unit.emit();
    let emit_us = micros(t2);
    Ok(Optimized {
        asm,
        report,
        parse_us,
        emit_us,
    })
}

/// `oneshot_build`: the corpus goes unit by unit through [`optimize`],
/// corpus pass after corpus pass, until the time budget is spent.
pub mod workload {
    use std::time::Instant;

    use super::optimize;
    use mao_corpus::kernels::Workload;

    use crate::inputs::{build_corpus, kernels, Unit, PASSES, PIPELINE};
    use crate::oracle::{check_planted, kernel_cycles_geomean, reemit_and_size};
    use crate::report::{median, peak_rss_mb, push_window_medians, Report, Window};
    use crate::{Layers, Options};

    /// What the untimed or the timed passes saw.
    #[derive(Default)]
    struct Passes {
        /// Per unit, its latency in each counted pass.
        unit_ms: Vec<Vec<f64>>,
        bytes: u64,
        wall_us: f64,
        /// Layer self times and counters (timed passes only).
        layers: Layers,
    }

    /// Run corpus passes for `seconds`; returns the untimed and the timed
    /// passes. A traced run alternates untimed and timed passes, so both
    /// see the same machine and allocator state; its first pass is a
    /// warm-up that neither side counts, and it runs at least three. The
    /// first pass keeps its outputs for the oracles; later passes must
    /// reproduce them. `between` runs before every pass after the first,
    /// outside any unit's timing, with the number of passes done.
    fn measure(
        corpus: &[Unit],
        seconds: f64,
        trace: bool,
        first: &mut Vec<String>,
        report: &mut Report,
        mut between: impl FnMut(usize),
    ) -> [Passes; 2] {
        let mut sides = [Passes::default(), Passes::default()];
        let start = Instant::now();
        let min_passes = if trace { 3 } else { 1 };
        let mut pass = 0;
        while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
            if pass > 0 {
                between(pass);
            }
            let timed = trace && pass % 2 == 1;
            let counted = !trace || pass > 0;
            let p = &mut sides[usize::from(timed)];
            let relax_before = mao::relax_totals();
            p.unit_ms.resize_with(corpus.len(), Vec::new);
            for (i, unit) in corpus.iter().enumerate() {
                let t = Instant::now();
                let result = optimize(&unit.asm, PIPELINE);
                let wall_us = t.elapsed().as_secs_f64() * 1e6;
                report.attempted += 1;
                let out = match result {
                    Ok(out) => out,
                    Err(e) => {
                        report.fail(format!("unit {i}: {e}"));
                        continue;
                    }
                };
                if counted {
                    p.unit_ms[i].push(wall_us / 1e3);
                    p.wall_us += wall_us;
                    p.bytes += unit.asm.len() as u64;
                }
                if timed {
                    let l = &mut p.layers;
                    l.add("asm.parse.ms", out.parse_us / 1e3);
                    l.add("asm.emit.ms", out.emit_us / 1e3);
                    for (name, us) in &out.report.timings_us {
                        l.add(&format!("core.pass.{name}.ms"), *us as f64 / 1e3);
                    }
                    l.add("core.analysis_cache.hits", out.report.cache.hits as f64);
                    l.add("core.analysis_cache.misses", out.report.cache.misses as f64);
                    if pass == 1 {
                        for (name, stats) in &out.report.passes {
                            l.add(
                                &format!("core.pass.{name}.transformations"),
                                stats.transformations as f64,
                            );
                        }
                    }
                }
                if first.len() == i {
                    let counts = out
                        .report
                        .passes
                        .iter()
                        .map(|(n, s)| (n.as_str(), s.transformations));
                    if let Err(e) = check_planted(counts, &unit.planted) {
                        report.fail(format!("unit {i}: {e}"));
                    }
                    first.push(out.asm);
                } else if first[i] != out.asm {
                    report.fail(format!("unit {i}: output differs between corpus passes"));
                }
            }
            if timed && pass == 1 {
                let relax = mao::relax_totals();
                let l = &mut p.layers;
                let delta = [
                    ("layouts", relax.layouts - relax_before.layouts),
                    ("patches", relax.patches - relax_before.patches),
                    ("iterations", relax.iterations - relax_before.iterations),
                    ("rechecks", relax.rechecks - relax_before.rechecks),
                ];
                for (name, n) in delta {
                    l.add(&format!("core.relax.{name}"), n as f64);
                }
            }
            pass += 1;
        }
        sides
    }

    /// Generate the inputs, adding the time it took to `times`.
    fn setup(seed: u64, times: &mut Vec<f64>) -> (Vec<Unit>, Vec<Workload>) {
        let t = Instant::now();
        let inputs = (build_corpus(seed), kernels(seed));
        times.push(t.elapsed().as_secs_f64());
        inputs
    }

    /// Run the workload.
    pub fn run(opts: &Options) -> Report {
        let mut report = Report::default();
        // The set-up (input generation, tens of milliseconds) is timed again
        // between corpus passes, and `setup_s` is the median over the whole
        // run: the host's speed changes over seconds, so set-ups timed in
        // one burst follow whichever spell the burst fell in.
        let mut setup_times = Vec::new();
        let (corpus, kernels) = setup(opts.seed, &mut setup_times);
        report.input_bytes = corpus
            .iter()
            .map(|u| u.asm.len() as u64)
            .chain(kernels.iter().map(|k| k.asm.len() as u64))
            .sum();

        let relax_before = mao::relax_totals();
        let mut first: Vec<String> = Vec::with_capacity(corpus.len());
        // Peak memory of one corpus pass, set-up included. Later passes
        // repeat the same work in the same process, which the one-shot path
        // (a fresh process per unit) never does; what they add is allocator
        // fragmentation that varies from run to run.
        let mut rss = None;
        let [plain, timed] = measure(
            &corpus,
            opts.seconds,
            opts.trace,
            &mut first,
            &mut report,
            |pass| {
                if pass == 1 {
                    rss = peak_rss_mb(None);
                }
                if !opts.trace {
                    drop(setup(opts.seed, &mut setup_times));
                }
            },
        );
        let rss = rss.or_else(|| peak_rss_mb(None)).unwrap_or(0.0);
        let rechecks = mao::relax_totals().rechecks - relax_before.rechecks;

        // Oracles, outside the measured window.
        let mut code_bytes = 0u64;
        for (i, out) in first.iter().enumerate() {
            match reemit_and_size(out) {
                Ok(bytes) => code_bytes += bytes,
                Err(e) => report.fail(format!("unit {i}: {e}")),
            }
        }
        report.attempted += kernels.len() as u64;
        let cycles = kernel_cycles_geomean(&kernels, |w| optimize(&w.asm, PIPELINE).map(|o| o.asm))
            .unwrap_or_else(|e| {
                report.fail(format!("kernel: {e}"));
                0.0
            });
        if rechecks == 0 {
            report.fail("self-check: relaxation made no branch fit rechecks");
        }

        if opts.trace {
            let per_mb = |p: &Passes| p.wall_us / p.bytes.max(1) as f64;
            let overhead = 100.0 * (per_mb(&timed) / per_mb(&plain) - 1.0);
            let wall_ms = timed.wall_us / 1e3;
            let mut l = timed.layers;
            let parse_ms = l.get("asm.parse.ms");
            l.set(
                "asm.parse.mb_s",
                timed.bytes as f64 / 1e6 / (parse_ms / 1e3).max(1e-9),
            );
            let lookups = l.get("core.analysis_cache.hits") + l.get("core.analysis_cache.misses");
            l.set(
                "core.analysis_cache.hit_ratio",
                l.get("core.analysis_cache.hits") / lookups.max(1.0),
            );
            let attributed = parse_ms
                + l.get("asm.emit.ms")
                + PASSES
                    .iter()
                    .map(|p| l.get(&format!("core.pass.{p}.ms")))
                    .sum::<f64>();
            l.set(
                "trace.unattributed_pct",
                100.0 * (wall_ms - attributed) / wall_ms,
            );
            l.set("trace.overhead_pct", overhead);
            crate::push_layers(&mut report, &l);
        } else {
            report.push("setup_s", median(&setup_times), "s");
            // An undisturbed corpus pass: each unit at its fastest pass.
            // The work is the same in every pass, and contention from other
            // tenants of the host only adds time.
            let unit_ms: Vec<f64> = plain
                .unit_ms
                .iter()
                .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
                .collect();
            let bytes: usize = corpus.iter().map(|u| u.asm.len()).sum();
            let fastest = Window::new(&unit_ms, bytes as f64, unit_ms.iter().sum::<f64>() / 1e3);
            push_window_medians(&mut report, &[fastest]);
            report.push("peak_rss_mb", rss, "MB");
            report.push("sim_cycles_geomean", cycles, "cycles");
            report.push("code_bytes", code_bytes as f64, "bytes");
        }
        report
    }
}
