//! Seeded inputs for every workload.
//!
//! Everything here is a pure function of the `--seed`: the same seed gives
//! byte-identical units, edit streams and request streams. Unit *sizes*
//! come from fixed quantile ladders of one size distribution, in a fixed
//! order (only the content depends on the seed), so latency percentiles
//! and peak memory compare across seeds instead of following whichever
//! sizes one seed drew.

use mao_corpus::kernels::{paper_suite, Workload};
use mao_corpus::{generate, GeneratorConfig, PlantedCounts};

/// The pass string every workload's main traffic runs: the `mao` CLI's
/// function-level set plus the three alignment passes that drive
/// relaxation.
pub const PIPELINE: &str =
    "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT";

/// The passes of [`PIPELINE`], in order.
pub const PASSES: [&str; 10] = [
    "REDZEXT",
    "REDTEST",
    "REDMOV",
    "ADDADD",
    "CONSTFOLD",
    "DCE",
    "SCHED",
    "BRALIGN",
    "LOOP16",
    "LSDFIT",
];

/// Pattern slots per function at size 1.0 (the generator's core-library
/// calibration, about 13.5 KB of text per function).
const SLOTS_PER_UNIT_SIZE: f64 = 400.0;

/// Most slots one generated function holds; larger units split into
/// several functions.
const MAX_SLOTS_PER_FUNCTION: usize = 400;

/// SplitMix64: a tiny deterministic generator for stream decisions (the
/// corpus generator keeps its own seeded RNG).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in stream `stream` (streams never overlap in
    /// practice: each mixes a different constant into the state).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated translation unit and its ground truth.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Assembly text.
    pub asm: String,
    /// Patterns the generator planted (independent of the optimizer).
    pub planted: PlantedCounts,
}

/// Units in the `oneshot_build` corpus.
pub const BUILD_UNITS: usize = 100;

/// Smallest `oneshot_build` unit, in calibrated functions: one function of
/// the generator's core-library calibration (400 slots).
pub const SMALLEST_UNIT: f64 = 1.0;

/// Largest `oneshot_build` unit: the 1.08 MB request of `BENCH_serve.json`
/// (`core_library(0.1)`, 80 functions), the unit size on which the
/// repository records its per-pass time split.
pub const LARGEST_UNIT: f64 = 80.0;

/// Size, in calibrated functions, at quantile `q` (in `0..1`) of the one
/// unit-size distribution every workload draws from. It is a Pareto
/// distribution (heavy-tailed); its shape is not chosen but follows from
/// pinning the corpus's smallest and largest mid-quantile units to
/// [`SMALLEST_UNIT`] and [`LARGEST_UNIT`] (shape about 1.21).
pub fn unit_size(q: f64) -> f64 {
    let first = 1.0 - 0.5 / BUILD_UNITS as f64;
    let last = 0.5 / BUILD_UNITS as f64;
    let exponent = (LARGEST_UNIT / SMALLEST_UNIT).ln() / (first / last).ln();
    SMALLEST_UNIT * (first / (1.0 - q)).powf(exponent)
}

/// Sizes at the mid-quantiles of `n` equal slices of the quantile range
/// `lo..hi` of [`unit_size`].
pub fn size_ladder(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|i| unit_size(lo + (hi - lo) * (i as f64 + 0.5) / n as f64))
        .collect()
}

/// Generate one unit of `size` calibrated functions' worth of slots.
pub fn unit(seed: u64, size: f64) -> Unit {
    let slots = (size * SLOTS_PER_UNIT_SIZE).round().max(1.0) as usize;
    let functions = slots.div_ceil(MAX_SLOTS_PER_FUNCTION);
    let corpus = generate(&GeneratorConfig {
        seed,
        functions,
        slots_per_function: slots.div_ceil(functions),
        ..GeneratorConfig::core_library(1.0)
    });
    Unit {
        asm: corpus.asm,
        planted: corpus.planted,
    }
}

/// Units at the given sizes, each with its own seeded content. The size
/// order is a fixed shuffle, the same for every seed, so that where the
/// large units fall (and with it peak memory and the warm workload's hot
/// set) does not move with the seed.
pub fn units(seed: u64, stream: u64, sizes: &[f64]) -> Vec<Unit> {
    let mut sizes = sizes.to_vec();
    Rng::new(0, stream).shuffle(&mut sizes);
    let mut rng = Rng::new(seed, stream);
    sizes
        .iter()
        .map(|&size| unit(rng.next_u64(), size))
        .collect()
}

/// The `oneshot_build` corpus: [`BUILD_UNITS`] units over the whole size
/// distribution (median about 1.8 functions, largest 80; about 5.3 MB).
pub fn build_corpus(seed: u64) -> Vec<Unit> {
    units(seed, 1, &size_ladder(BUILD_UNITS, 0.0, 1.0))
}

/// Base units of `maod_edit`.
pub const EDIT_UNITS: usize = 25;

/// The `maod_edit` base units: [`EDIT_UNITS`] units over the whole size
/// distribution (largest about 25 functions, about 1.2 MB in all). With
/// 25 units and every fifth request a fast repeat, each unit's edits are
/// 3.2% of the requests, so p50 and p90 fall inside one unit's band of
/// latencies instead of on the step between two unit sizes.
pub fn edit_units(seed: u64) -> Vec<Unit> {
    units(seed, 2, &size_ladder(EDIT_UNITS, 0.0, 1.0))
}

/// The `maod_warm` working set: `count` units from the middle half of the
/// size distribution (1.3 to 3.1 functions), so that latency follows the
/// cache tier that served a request rather than which unit the Zipf draw
/// made hot.
pub fn warm_units(seed: u64, count: usize) -> Vec<Unit> {
    units(seed, 3, &size_ladder(count, 0.25, 0.75))
}

/// The paper kernels, with loop trip counts drawn from the seed in a
/// narrow band so a seed changes their inputs but barely their cost.
pub fn kernels(seed: u64) -> Vec<Workload> {
    paper_suite(200 + seed % 4)
}

/// A stream of length-preserving edits over a set of units: each call
/// rewrites the displacement of one filler `leaq` in one function of the
/// next unit (round-robin over a seeded order), so the edited instruction
/// keeps its encoded length and the planted patterns stay intact.
#[derive(Debug, Clone)]
pub struct Editor {
    /// Current text of each unit, one line per element.
    lines: Vec<Vec<String>>,
    /// Per unit: indices of editable `leaq` lines.
    sites: Vec<Vec<usize>>,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Editor {
    /// Track `units` for editing.
    pub fn new(seed: u64, units: &[Unit]) -> Editor {
        let mut rng = Rng::new(seed, 4);
        let lines: Vec<Vec<String>> = units
            .iter()
            .map(|u| u.asm.lines().map(str::to_string).collect())
            .collect();
        let sites = lines
            .iter()
            .map(|unit| {
                unit.iter()
                    .enumerate()
                    .filter(|(_, l)| l.starts_with("\tleaq "))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..units.len()).collect();
        rng.shuffle(&mut order);
        Editor {
            lines,
            sites,
            order,
            next: 0,
            rng,
        }
    }

    /// Edit the next unit once; returns its index and new text.
    pub fn edit(&mut self) -> (usize, String) {
        let u = self.order[self.next % self.order.len()];
        self.next += 1;
        let site = self.sites[u][self.rng.below(self.sites[u].len())];
        let line = &mut self.lines[u][site];
        // `\tleaq D(%rX), %rX`: pick a new disp8 that differs from D.
        let open = line.find('(').expect("leaq filler has a memory operand");
        let old: i64 = line[6..open]
            .parse()
            .expect("leaq filler has a numeric displacement");
        let mut disp = 1 + self.rng.below(120) as i64;
        if disp == old {
            disp = disp % 120 + 1;
        }
        *line = format!("\tleaq {disp}{}", &line[open..]);
        let mut text = self.lines[u].join("\n");
        text.push('\n');
        (u, text)
    }
}

/// Zipf(s = 1) sampler over `n` ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n`, rank `r` weighted `1 / (r + 1)`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Cheap pass strings for `maod_warm`'s variant requests: every single
/// pass, ordered pair and ordered triple of the scalar peepholes (no
/// scheduling or alignment), so no variant repeats within a run.
pub fn cheap_pass_strings() -> Vec<String> {
    const CHEAP: [&str; 7] = [
        "REDZEXT",
        "REDTEST",
        "REDMOV",
        "ADDADD",
        "CONSTFOLD",
        "DCE",
        "NOPKILL",
    ];
    let mut out: Vec<String> = CHEAP.iter().map(|p| p.to_string()).collect();
    for a in CHEAP {
        for b in CHEAP.iter().filter(|&&b| b != a) {
            out.push(format!("{a}:{b}"));
        }
    }
    for a in CHEAP {
        for b in CHEAP.iter().filter(|&&b| b != a) {
            for c in CHEAP.iter().filter(|&&c| c != a && c != *b) {
                out.push(format!("{a}:{b}:{c}"));
            }
        }
    }
    out
}
