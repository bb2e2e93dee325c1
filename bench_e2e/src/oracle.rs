//! Correctness oracles. Ground truth comes from outside the optimizer: the
//! generator's planted counts, a reparse of the output, the one-shot path
//! (for `maod` responses), and the simulator (for the paper kernels).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use mao::MaoUnit;
use mao_corpus::kernels::Workload;
use mao_corpus::PlantedCounts;
use mao_sim::{simulate, SimOptions, UarchConfig};

/// Stable 64-bit digest of a text (used to compare outputs without keeping
/// them all in memory).
pub fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Check the pattern passes' transformation counts, given as (pass name,
/// count) pairs, against what the generator planted.
pub fn check_planted<'a>(
    transformations: impl IntoIterator<Item = (&'a str, usize)>,
    planted: &PlantedCounts,
) -> Result<(), String> {
    let counts: Vec<(&str, usize)> = transformations.into_iter().collect();
    let expected = [
        ("REDZEXT", planted.redundant_zext),
        ("REDTEST", planted.redundant_tests),
        ("REDMOV", planted.redundant_loads),
        ("ADDADD", planted.addadd_pairs),
    ];
    for (pass, want) in expected {
        let got = counts
            .iter()
            .find(|(name, _)| *name == pass)
            .map(|(_, n)| *n);
        if got != Some(want) {
            return Err(format!(
                "{pass} made {got:?} transformations, {want} planted"
            ));
        }
    }
    Ok(())
}

/// Reparse an optimized output, require that it re-emits to the same bytes,
/// and return its encoded size in bytes.
pub fn reemit_and_size(output: &str) -> Result<u64, String> {
    let unit = MaoUnit::parse(output).map_err(|e| format!("output does not reparse: {e}"))?;
    if unit.emit() != output {
        return Err("output does not re-emit to the same bytes".into());
    }
    let layout = mao::relax(&unit).map_err(|e| format!("output does not relax: {e}"))?;
    Ok(layout.size.iter().map(|&s| u64::from(s)).sum())
}

/// Simulate every kernel before and after `optimize`, require an unchanged
/// return value (the `mao_bench::pass_effect` rule), and return the
/// geometric mean of the optimized kernels' core2 cycles.
pub fn kernel_cycles_geomean(
    kernels: &[Workload],
    mut optimize: impl FnMut(&Workload) -> Result<String, String>,
) -> Result<f64, String> {
    let config = UarchConfig::core2();
    let run = |asm: &str, w: &Workload| -> Result<(u64, u64), String> {
        let unit = MaoUnit::parse(asm).map_err(|e| format!("{}: {e}", w.name))?;
        let r = simulate(&unit, &w.entry, &w.args, &config, &SimOptions::default())
            .map_err(|e| format!("{}: {e}", w.name))?;
        Ok((r.ret, r.pmu.cycles))
    };
    let mut log_sum = 0.0;
    for w in kernels {
        let (ret_before, _) = run(&w.asm, w)?;
        let optimized = optimize(w)?;
        let (ret_after, cycles) = run(&optimized, w)?;
        if ret_before != ret_after {
            return Err(format!(
                "{}: optimization changed the result {ret_before} -> {ret_after}",
                w.name
            ));
        }
        log_sum += (cycles.max(1) as f64).ln();
    }
    Ok((log_sum / kernels.len().max(1) as f64).exp())
}
