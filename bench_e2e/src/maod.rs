//! The two `maod` workloads: one client connection in a closed loop
//! against a real daemon process (see [`crate::daemon`]).
//!
//! Layer times come from outside the daemon: the client's own clock around
//! encode, socket round trip and decode; each response's `timings`; the
//! `stats` and `metrics` requests scraped before and after the measured
//! loop; and, for the two codec and store calls the daemon does not time,
//! a replay of the same public calls (`Request::from_json_text`,
//! `Response::to_json_text`, `ResultCache::insert`, `SnapshotStore::put`)
//! on the same payloads after the loop.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use mao::isa::IsaId;
use mao_corpus::PlantedCounts;
use mao_serve::protocol::{
    CacheOutcome, OptimizeOutcome, OptimizeRequest, Request, Response, Timings,
};
use mao_serve::{
    request_key, DiskCache, DiskCacheConfig, EngineConfig, Json, ResultCache, SnapshotStore,
};

use crate::daemon::Daemon;
use crate::inputs::{
    cheap_pass_strings, edit_units, kernels, warm_units, Editor, Rng, Unit, Zipf, EDIT_UNITS,
    PASSES, PIPELINE,
};
use crate::oneshot::optimize;
use crate::oracle::{check_planted, digest, kernel_cycles_geomean, reemit_and_size};
use crate::report::{push_window_medians, Report, Window};
use crate::{push_layers, timed_setups, Layers, Options};

/// `maod_edit` cache capacities, below the `mao serve` defaults (1024
/// results, 4096 functions per shard). At the defaults neither cache fills
/// within a run, so the daemon's peak memory would grow with the number of
/// requests served and a faster daemon would read as a fatter one. At
/// these caps the result cache fills early in a run, and peak memory is
/// the plateau. The analysis cache still holds every base unit's current
/// functions (about 100) twice over, so cross-request reuse is measured,
/// and a repeat of an evicted result is a disk hit.
const EDIT_CACHE_CAP: usize = 256;
const EDIT_ANALYSIS_CACHE_CAP: usize = 256;
/// `maod_warm` memory-tier capacity; the working set is twice this, so
/// memory and disk hits stay mixed.
const WARM_CACHE_CAP: usize = 32;
/// Every fifth `maod_edit` request is an exact repeat (20%).
const EDIT_REPEAT_EVERY: usize = 5;
/// Every eighth `maod_warm` request is a pass-string variant (12.5%).
const WARM_VARIANT_EVERY: usize = 8;
/// Requests per measurement window (see [`crate::report::Window`]). A
/// `maod_edit` window holds four edits of every base unit and their 25
/// repeats; a `maod_warm` window is a whole number of variant schedules
/// and about a second long.
const EDIT_WINDOW: usize = 4 * EDIT_UNITS * EDIT_REPEAT_EVERY / (EDIT_REPEAT_EVERY - 1);
const WARM_WINDOW: usize = 125 * WARM_VARIANT_EVERY;

/// How the daemon served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    MemHit,
    DiskHit,
    Miss,
    Failed,
}

/// One measured request, as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    /// Request assembly bytes.
    bytes: usize,
    rtt_us: f64,
    /// Seconds from the loop's start to the response.
    done_s: f64,
    served: Served,
    /// The daemon's own `timings` (zero for failures).
    total_us: f64,
    parse_us: f64,
    optimize_us: f64,
    /// Client encode + decode (timed phases only).
    client_codec_us: f64,
    /// Request plus response payload bytes.
    wire_bytes: usize,
    /// Index into [`Log::distinct`].
    distinct: usize,
    /// This exact request was sent before.
    repeat: bool,
    /// A pass-string variant of stored text (a snapshot hit by design).
    variant: bool,
}

/// One distinct (text, pass string) a run sent.
#[derive(Debug)]
struct Distinct {
    asm: Rc<str>,
    passes: String,
    /// Ground truth, for main-pipeline requests.
    planted: Option<PlantedCounts>,
    /// A set-up input or kernel: its output counts towards `code_bytes`
    /// and the kernel simulation.
    base: bool,
    /// The first output, kept in full for base requests and in timed
    /// phases (for the replays); otherwise compared through its digest.
    output: Option<String>,
    digest: Option<u64>,
    /// The first response without its assembly (base requests and timed
    /// phases).
    meta: Option<(OptimizeOutcome, CacheOutcome, Timings)>,
}

/// Client-side record of one daemon session.
#[derive(Debug, Default)]
struct Log {
    distinct: Vec<Distinct>,
    index: HashMap<u128, usize>,
    samples: Vec<Sample>,
    /// Optimize requests sent, measured or not.
    sent: u64,
    failures: Vec<String>,
    layers: Layers,
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// The `name`d members of a JSON array.
fn named(arr: Option<&Json>) -> Vec<(String, &Json)> {
    arr.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            let name = p.get("name").and_then(Json::as_str).unwrap_or("");
            (name.to_string(), p)
        })
        .collect()
}

/// Rebuild a successful response's outcome (without its assembly).
fn outcome_meta(response: &Json) -> (OptimizeOutcome, CacheOutcome, Timings) {
    let stats = response.get("stats");
    let timings = response.get("timings");
    let outcome = OptimizeOutcome {
        asm: String::new(),
        passes: named(stats.and_then(|s| s.get("passes")))
            .into_iter()
            .map(|(n, p)| {
                let t = num(p.get("transformations")) as usize;
                (n, t, num(p.get("matches")) as usize)
            })
            .collect(),
        timings_us: named(timings.and_then(|t| t.get("per_pass_us")))
            .into_iter()
            .map(|(n, p)| (n, num(p.get("us")) as u64))
            .collect(),
        trace: response
            .get("trace")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|l| l.as_str().map(str::to_string))
            .collect(),
    };
    let cache = match response.get("cache").and_then(Json::as_str) {
        Some("hit") => CacheOutcome::Hit,
        Some("hit_disk") => CacheOutcome::DiskHit,
        _ => CacheOutcome::Miss,
    };
    let t = |k: &str| num(timings.and_then(|t| t.get(k))) as u64;
    let timings = Timings {
        parse_us: t("parse_us"),
        optimize_us: t("optimize_us"),
        total_us: t("total_us"),
    };
    (outcome, cache, timings)
}

impl Log {
    /// Send one optimize request and record it. `loop_start` is `Some` for
    /// requests of the measured loop; `base` keeps the full output (for
    /// `code_bytes` and the kernel simulation).
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        daemon: &mut Daemon,
        asm: &Rc<str>,
        passes: &str,
        planted: Option<PlantedCounts>,
        base: bool,
        variant: bool,
        timed: bool,
        loop_start: Option<Instant>,
    ) -> usize {
        let key = request_key(asm, passes, IsaId::X86_64).raw();
        let (idx, repeat) = match self.index.get(&key) {
            Some(&i) => (i, true),
            None => {
                self.distinct.push(Distinct {
                    asm: asm.clone(),
                    passes: passes.to_string(),
                    planted,
                    base,
                    output: None,
                    digest: None,
                    meta: None,
                });
                self.index.insert(key, self.distinct.len() - 1);
                (self.distinct.len() - 1, false)
            }
        };

        self.sent += 1;
        let t0 = Instant::now();
        let payload = Request::Optimize(OptimizeRequest {
            asm: asm.to_string(),
            passes: passes.to_string(),
            jobs: None,
            timeout_ms: None,
            use_cache: true,
            isa: IsaId::X86_64,
        })
        .to_json()
        .to_string();
        let t1 = timed.then(Instant::now);
        let reply = daemon.call(payload.as_bytes());
        let t2 = timed.then(Instant::now);
        let (wire, parsed) = match reply {
            Ok(bytes) => (
                bytes.len(),
                String::from_utf8(bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(&text).map_err(|e| e.to_string())),
            ),
            Err(e) => (0, Err(e.to_string())),
        };
        let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
        let client_codec_us = match (t1, t2) {
            (Some(t1), Some(t2)) => {
                rtt_us - (t2.duration_since(t0).as_secs_f64() * 1e6)
                    + t1.duration_since(t0).as_secs_f64() * 1e6
            }
            _ => 0.0,
        };

        let mut sample = Sample {
            bytes: asm.len(),
            rtt_us,
            done_s: loop_start.map_or(0.0, |s| s.elapsed().as_secs_f64()),
            served: Served::Failed,
            total_us: 0.0,
            parse_us: 0.0,
            optimize_us: 0.0,
            client_codec_us,
            wire_bytes: payload.len() + wire,
            distinct: idx,
            repeat,
            variant,
        };
        match parsed {
            Ok(response) => self.record(&response, &mut sample, timed, loop_start.is_some()),
            Err(e) => self.failures.push(format!("request failed: {e}")),
        }
        if loop_start.is_some() {
            self.samples.push(sample);
        }
        idx
    }

    /// Check one parsed response against earlier ones and record it.
    fn record(&mut self, response: &Json, sample: &mut Sample, timed: bool, measured: bool) {
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            let error = response.get("error");
            let field = |k: &str| {
                error
                    .and_then(|e| e.get(k))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            self.failures.push(format!(
                "daemon error [{}]: {}",
                field("kind"),
                field("message")
            ));
            return;
        }
        let asm = response.get("asm").and_then(Json::as_str).unwrap_or("");
        let meta = outcome_meta(response);
        let d = &mut self.distinct[sample.distinct];
        let same = match (&d.output, d.digest) {
            (Some(first), _) => first == asm,
            (None, Some(first)) => first == digest(asm),
            (None, None) => {
                if d.base || timed {
                    d.output = Some(asm.to_string());
                } else {
                    d.digest = Some(digest(asm));
                }
                if let Some(planted) = &d.planted {
                    let counts = meta.0.passes.iter().map(|(n, t, _)| (n.as_str(), *t));
                    if let Err(e) = check_planted(counts, planted) {
                        self.failures.push(format!("maod response: {e}"));
                    }
                }
                true
            }
        };
        if !same {
            self.failures
                .push("a repeated request got a different response".to_string());
        }
        let (outcome, cache, timings) = &meta;
        sample.total_us = timings.total_us as f64;
        sample.parse_us = timings.parse_us as f64;
        sample.optimize_us = timings.optimize_us as f64;
        sample.served = match cache {
            CacheOutcome::Hit => Served::MemHit,
            CacheOutcome::DiskHit => Served::DiskHit,
            _ => Served::Miss,
        };
        if timed && measured && sample.served == Served::Miss {
            for (name, us) in &outcome.timings_us {
                self.layers
                    .add(&format!("core.pass.{name}.ms"), *us as f64 / 1e3);
            }
        }
        if d.meta.is_none() && (d.base || timed) {
            d.meta = Some(meta);
        }
    }
}

impl Distinct {
    /// Digest of the first response (`None` when the request failed).
    fn response_digest(&self) -> Option<u64> {
        self.output.as_deref().map(digest).or(self.digest)
    }
}

/// What the set-ups that [`timed_setups`] replaced sent and saw. Their
/// failures and requests still count, and their responses must equal those
/// of the set-up that is kept (which is checked against the one-shot path).
#[derive(Debug, Default)]
struct Retired {
    sent: u64,
    failures: Vec<String>,
    /// Request key → digest of the first response to it.
    digests: HashMap<u128, u64>,
}

impl Retired {
    fn absorb(&mut self, log: Log) {
        self.compare(&log);
        self.sent += log.sent;
        self.failures.extend(log.failures);
    }

    fn compare(&mut self, log: &Log) {
        for (key, &i) in &log.index {
            let d = &log.distinct[i];
            let Some(got) = d.response_digest() else {
                continue;
            };
            if *self.digests.entry(*key).or_insert(got) != got {
                self.failures.push(format!(
                    "two set-ups got different responses for `{}`",
                    d.passes
                ));
            }
        }
    }

    /// Check the kept set-up against the retired ones and count everything
    /// into `report`.
    fn settle(mut self, kept: &Log, report: &mut Report) {
        self.compare(kept);
        report.attempted += self.sent;
        report.failures.extend(self.failures);
    }
}

/// Daemon-side counters, scraped through `stats` and `metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    mem_hits: f64,
    mem_misses: f64,
    insertions: f64,
    evictions: f64,
    disk_hits: f64,
    store_bytes: f64,
    parse_us: f64,
    snapshot_hits: f64,
    snapshot_misses: f64,
    analysis_hits: f64,
    analysis_misses: f64,
    relax: [f64; 4],
    queue_wait_us: f64,
    service_us: f64,
}

fn scrape(daemon: &mut Daemon) -> Result<Counters, String> {
    let stats = daemon.admin(&Request::Stats)?;
    let stats = stats.get("stats").ok_or("stats response without stats")?;
    let at = |path: &[&str]| {
        let mut v = Some(stats);
        for k in path {
            v = v.and_then(|j| j.get(k));
        }
        num(v)
    };
    let metrics = daemon.admin(&Request::Metrics)?;
    let text = metrics.get("metrics").and_then(Json::as_str).unwrap_or("");
    let family = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(Counters {
        mem_hits: at(&["result_cache", "hits"]),
        mem_misses: at(&["result_cache", "misses"]),
        insertions: at(&["result_cache", "insertions"]),
        evictions: at(&["result_cache", "evictions"]),
        disk_hits: at(&["result_cache", "disk", "hits"]),
        store_bytes: at(&["result_cache", "disk", "bytes"]) + at(&["frontend", "snapshot_bytes"]),
        parse_us: at(&["frontend", "parse_us"]),
        snapshot_hits: at(&["frontend", "snapshot_hits"]),
        snapshot_misses: at(&["frontend", "snapshot_misses"]),
        analysis_hits: at(&["analysis_cache", "hits"]),
        analysis_misses: at(&["analysis_cache", "misses"]),
        relax: [
            at(&["relax", "layouts"]),
            at(&["relax", "patches"]),
            at(&["relax", "iterations"]),
            at(&["relax", "rechecks"]),
        ],
        queue_wait_us: family("mao_request_queue_wait_us_sum"),
        service_us: family("mao_request_service_us_sum"),
    })
}

/// A daemon with the client's record of it.
struct Session {
    daemon: Daemon,
    log: Log,
    /// Base units (for ground truth and the edit stream).
    units: Vec<Unit>,
    /// The base units' texts, shared with the log.
    texts: Vec<Rc<str>>,
}

/// What one measured loop saw.
struct Phase {
    /// Range of `log.samples` the loop produced.
    first_sample: usize,
    before: Counters,
    after: Counters,
}

/// Run `next` in a closed loop for `seconds`, then on to the end of the
/// current window of `window` requests, and scrape counters around it.
fn measure(
    s: &mut Session,
    seconds: f64,
    window: usize,
    mut next: impl FnMut(&mut Session, usize, Instant),
) -> Result<Phase, String> {
    let before = scrape(&mut s.daemon)?;
    let first_sample = s.log.samples.len();
    let start = Instant::now();
    let mut i = 0;
    while i % window != 0 || i == 0 || start.elapsed().as_secs_f64() < seconds {
        next(s, i, start);
        i += 1;
    }
    let after = scrape(&mut s.daemon)?;
    Ok(Phase {
        first_sample,
        before,
        after,
    })
}

/// Which workload a session serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Edit,
    Warm,
}

/// The daemon's result-cache and per-shard analysis-cache capacities.
fn caps(kind: Kind) -> [usize; 2] {
    match kind {
        Kind::Edit => [EDIT_CACHE_CAP, EDIT_ANALYSIS_CACHE_CAP],
        Kind::Warm => [
            WARM_CACHE_CAP,
            EngineConfig::default().analysis_cache_capacity,
        ],
    }
}

/// Requests per measurement window.
fn window(kind: Kind) -> usize {
    match kind {
        Kind::Edit => EDIT_WINDOW,
        Kind::Warm => WARM_WINDOW,
    }
}

/// Start a fresh daemon in its own directories and load it: `maod_edit`
/// sends every base unit once; `maod_warm` fills both stores through a
/// first daemon and restarts onto them.
fn setup(opts: &Options, kind: Kind, n: usize) -> Result<Session, String> {
    let (units, tag) = match kind {
        Kind::Edit => (edit_units(opts.seed), "edit"),
        Kind::Warm => (warm_units(opts.seed, 2 * WARM_CACHE_CAP), "warm"),
    };
    let caps = caps(kind);
    let dir = opts.run_dir.join(format!("{tag}-{n}"));
    let mut daemon = Daemon::start(&opts.daemon_exe, &dir, caps)?;
    let mut log = Log::default();
    let texts: Vec<Rc<str>> = units.iter().map(|u| Rc::from(u.asm.as_str())).collect();
    for (u, text) in units.iter().zip(&texts) {
        log.send(
            &mut daemon,
            text,
            PIPELINE,
            Some(u.planted),
            true,
            false,
            false,
            None,
        );
    }
    if kind == Kind::Warm {
        daemon.stop()?;
        daemon = Daemon::start(&opts.daemon_exe, &dir, caps)?;
    }
    Ok(Session {
        daemon,
        log,
        units,
        texts,
    })
}

/// One `maod_edit` loop step: an edited unit, or every fifth request an
/// exact repeat of an earlier version of the unit edited last. Edits go
/// round-robin over the units and a repeat follows every fourth edit, so
/// each window of [`EDIT_WINDOW`] requests repeats every unit once, and
/// the bytes a window serves do not depend on the seed's draws.
fn edit_loop(seed: u64, timed: bool) -> impl FnMut(&mut Session, usize, Instant) {
    let mut editor: Option<Editor> = None;
    let mut rng = Rng::new(seed, 5);
    // Per unit, every version sent so far.
    let mut versions: Vec<Vec<Rc<str>>> = Vec::new();
    let mut last = 0;
    move |s, i, start| {
        let editor = editor.get_or_insert_with(|| {
            versions = s.texts.iter().map(|t| vec![t.clone()]).collect();
            Editor::new(seed, &s.units)
        });
        let (text, u) = if i % EDIT_REPEAT_EVERY == EDIT_REPEAT_EVERY - 1 {
            let sent = &versions[last];
            (sent[rng.below(sent.len())].clone(), last)
        } else {
            let (u, text) = editor.edit();
            let text: Rc<str> = text.into();
            versions[u].push(text.clone());
            last = u;
            (text, u)
        };
        let planted = s.units[u].planted;
        s.log.send(
            &mut s.daemon,
            &text,
            PIPELINE,
            Some(planted),
            false,
            false,
            timed,
            Some(start),
        );
    }
}

/// One `maod_warm` loop step: a Zipf-skewed repeat of a working-set unit,
/// or every eighth request a never-sent cheap pass string over stored
/// text.
fn warm_loop(seed: u64, timed: bool) -> impl FnMut(&mut Session, usize, Instant) {
    let mut rng = Rng::new(seed, 6);
    let cheap = cheap_pass_strings();
    // Every (unit, pass string) pair once, in a seeded order: the mix of
    // variants is then the same early and late in a run, whatever its
    // length.
    let mut pairs: Vec<usize> = Vec::new();
    let mut zipf: Option<Zipf> = None;
    move |s, i, start| {
        // Rank r is unit r: the units' size order is already a fixed
        // shuffle, so the hot set's sizes are the same for every seed.
        let n = s.units.len();
        let zipf = zipf.get_or_insert_with(|| {
            pairs = (0..n * cheap.len()).collect();
            rng.shuffle(&mut pairs);
            Zipf::new(n)
        });
        if i % WARM_VARIANT_EVERY == WARM_VARIANT_EVERY - 1 {
            let pair = pairs[(i / WARM_VARIANT_EVERY) % pairs.len()];
            let (u, passes) = (pair % n, &cheap[pair / n]);
            s.log.send(
                &mut s.daemon,
                &s.texts[u],
                passes,
                None,
                false,
                true,
                timed,
                Some(start),
            );
        } else {
            let u = zipf.sample(&mut rng);
            s.log.send(
                &mut s.daemon,
                &s.texts[u],
                PIPELINE,
                Some(s.units[u].planted),
                true,
                false,
                timed,
                Some(start),
            );
        }
    }
}

/// Run `maod_edit`.
pub fn run_edit(opts: &Options) -> Report {
    run(opts, Kind::Edit)
}

/// Run `maod_warm`.
pub fn run_warm(opts: &Options) -> Report {
    run(opts, Kind::Warm)
}

/// One request of a measured loop: the session, the request's index in
/// the loop, and the loop's start.
type Step = Box<dyn FnMut(&mut Session, usize, Instant)>;

fn step(opts: &Options, kind: Kind, timed: bool) -> Step {
    match kind {
        Kind::Edit => Box::new(edit_loop(opts.seed, timed)),
        Kind::Warm => Box::new(warm_loop(opts.seed, timed)),
    }
}

fn run(opts: &Options, kind: Kind) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(opts, kind, &mut report) {
        report.fail(e);
    }
    report
}

fn run_into(opts: &Options, kind: Kind, report: &mut Report) -> Result<(), String> {
    let mut retired = Retired::default();
    let (setup_s, mut session) = timed_setups(
        opts,
        |n| setup(opts, kind, n),
        |earlier: Session| retired.absorb(earlier.log),
    )?;
    let kernels = kernels(opts.seed);
    report.input_bytes = session
        .units
        .iter()
        .map(|u| u.asm.len() as u64)
        .chain(kernels.iter().map(|k| k.asm.len() as u64))
        .sum();

    // A traced run measures an untimed phase first, on its own fresh
    // set-up, so that the two phases see identical daemon state.
    let mut untimed = None;
    if opts.trace {
        let phase = measure(
            &mut session,
            opts.seconds / 2.0,
            window(kind),
            step(opts, kind, false),
        )?;
        let Session { daemon, log, .. } = session;
        daemon.stop()?;
        untimed = Some((phase, log));
        session = setup(opts, kind, 1)?;
    }
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let phase = measure(
        &mut session,
        seconds,
        window(kind),
        step(opts, kind, opts.trace),
    )?;
    let rss = session.daemon.peak_rss_mb().unwrap_or(0.0);

    // Oracles, outside the measured window: the paper kernels through the
    // daemon, then every distinct request against the one-shot path.
    let mut kernel_failures = Vec::new();
    let cycles = {
        let Session { daemon, log, .. } = &mut session;
        kernel_cycles_geomean(&kernels, |w| {
            let text: Rc<str> = w.asm.as_str().into();
            let idx = log.send(daemon, &text, PIPELINE, None, true, false, false, None);
            log.distinct[idx]
                .output
                .clone()
                .ok_or_else(|| format!("{}: no response", w.name))
        })
        .unwrap_or_else(|e| {
            kernel_failures.push(format!("kernel: {e}"));
            0.0
        })
    };
    let Session {
        daemon, mut log, ..
    } = session;
    daemon.stop()?;
    log.failures.extend(kernel_failures);

    let measured = &log.samples[phase.first_sample..];
    self_check(kind, measured, &phase, &mut log.failures);
    let mut code_bytes = 0u64;
    let mut logs = vec![&log];
    if let Some((_, untimed_log)) = &untimed {
        logs.push(untimed_log);
    }
    for l in &logs {
        check_against_oneshot(l, &mut report.failures, &mut code_bytes);
        report.failures.extend(l.failures.iter().cloned());
        report.attempted += l.sent;
    }
    retired.settle(&log, report);

    if opts.trace {
        let (u_phase, u_log) = untimed
            .as_ref()
            .expect("traced runs measure an untimed phase");
        let layers = attribute(
            opts,
            kind,
            &log,
            &phase,
            &u_log.samples[u_phase.first_sample..],
        )?;
        push_layers(report, &layers);
        return Ok(());
    }
    let mut windows = Vec::new();
    let mut window_start_s = 0.0;
    for samples in measured.chunks(window(kind)) {
        let latencies: Vec<f64> = samples
            .iter()
            .filter(|s| s.served != Served::Failed)
            .map(|s| s.rtt_us / 1e3)
            .collect();
        let bytes: usize = samples.iter().map(|s| s.bytes).sum();
        let end_s = samples.last().map_or(window_start_s, |s| s.done_s);
        windows.push(Window::new(
            &latencies,
            bytes as f64,
            end_s - window_start_s,
        ));
        window_start_s = end_s;
    }
    report.push("setup_s", setup_s, "s");
    push_window_medians(report, &windows);
    report.push("peak_rss_mb", rss, "MB");
    report.push("sim_cycles_geomean", cycles, "cycles");
    report.push("code_bytes", code_bytes as f64, "bytes");
    Ok(())
}

/// A workload that stops doing its job fails loudly.
fn self_check(kind: Kind, samples: &[Sample], phase: &Phase, failures: &mut Vec<String>) {
    let (b, a) = (&phase.before, &phase.after);
    match kind {
        Kind::Edit => {
            let lookups = (a.mem_hits - b.mem_hits) + (a.mem_misses - b.mem_misses);
            let hits = (a.mem_hits - b.mem_hits) + (a.disk_hits - b.disk_hits);
            let hit_ratio = hits / lookups.max(1.0);
            let repeats = samples.iter().filter(|s| s.repeat).count();
            let repeat_share = repeats as f64 / samples.len().max(1) as f64;
            if (hit_ratio - repeat_share).abs() > 0.05 {
                failures.push(format!(
                    "self-check: result-cache hit ratio {hit_ratio:.3} is not the repeat \
                     share {repeat_share:.3}"
                ));
            }
        }
        Kind::Warm => {
            if samples.first().map(|s| s.served) != Some(Served::DiskHit) {
                failures
                    .push("self-check: the first request after restart was not a disk hit".into());
            }
            let variants = samples.iter().filter(|s| s.variant).count();
            let variant_misses = samples
                .iter()
                .filter(|s| s.variant && s.served == Served::Miss)
                .count();
            let snapshot_hits = a.snapshot_hits - b.snapshot_hits;
            if variant_misses != variants || snapshot_hits != variants as f64 {
                failures.push(format!(
                    "self-check: {variants} pass-string variants gave {variant_misses} \
                     result-cache misses and {snapshot_hits} snapshot hits"
                ));
            }
        }
    }
}

/// Every distinct request's response must equal the one-shot output for
/// the same text and pass string. Set-up inputs also count towards
/// `code_bytes`.
fn check_against_oneshot(log: &Log, failures: &mut Vec<String>, code_bytes: &mut u64) {
    for d in &log.distinct {
        if d.output.is_none() && d.digest.is_none() {
            continue; // the request failed, and that failure is recorded
        }
        match optimize(&d.asm, &d.passes) {
            Ok(o) => {
                let same = match (&d.output, d.digest) {
                    (Some(out), _) => *out == o.asm,
                    (None, digest_of) => digest_of == Some(digest(&o.asm)),
                };
                if !same {
                    failures.push(format!(
                        "maod response for `{}` differs from the one-shot output",
                        d.passes
                    ));
                }
            }
            Err(e) => failures.push(format!("one-shot reference failed: {e}")),
        }
        if let (true, Some(out), Some(_)) = (d.base, &d.output, &d.planted) {
            match reemit_and_size(out) {
                Ok(bytes) => *code_bytes += bytes,
                Err(e) => failures.push(e),
            }
        }
    }
}

/// Per-layer self times and counters for the timed phase; `untimed` are
/// the untimed phase's samples.
fn attribute(
    opts: &Options,
    kind: Kind,
    log: &Log,
    phase: &Phase,
    untimed: &[Sample],
) -> Result<Layers, String> {
    let timed = &log.samples[phase.first_sample..];
    let (b, a) = (&phase.before, &phase.after);
    let mut l = log.layers.clone();
    let sum = |f: &dyn Fn(&Sample) -> Option<f64>| -> f64 { timed.iter().filter_map(f).sum() };
    let ms = 1e-3;
    let wall_ms = sum(&|s| Some(s.rtt_us)) * ms;
    let total_ms = sum(&|s| Some(s.total_us)) * ms;
    let server_codec_ms = replay_codec(log, timed);
    let codec_ms = sum(&|s| Some(s.client_codec_us)) * ms + server_codec_ms;
    l.set("serve.codec.ms", codec_ms);
    l.set("serve.codec.mb", sum(&|s| Some(s.wire_bytes as f64)) / 1e6);
    l.set("serve.transport.ms", wall_ms - total_ms - codec_ms);
    let by = |served: Served, f: &dyn Fn(&Sample) -> f64| -> f64 {
        sum(&|s| (s.served == served).then(|| f(s))) * ms
    };
    l.set("serve.result_cache.ms", by(Served::MemHit, &|s| s.total_us));
    l.set("serve.store.read_ms", by(Served::DiskHit, &|s| s.total_us));
    l.set(
        "serve.store.write_ms",
        replay_writes(opts, kind, log, timed)?,
    );
    let queue_ms = (a.queue_wait_us - b.queue_wait_us) * ms;
    let service_ms = (a.service_us - b.service_us) * ms;
    l.set("serve.engine.queue_wait_ms", queue_ms);
    l.set("serve.engine.service_ms", service_ms);
    let parse_ms = (a.parse_us - b.parse_us) * ms;
    let parsed_bytes = sum(&|s| (s.served == Served::Miss && !s.variant).then_some(s.bytes as f64));
    l.set("asm.parse.ms", parse_ms);
    l.set(
        "asm.parse.mb_s",
        parsed_bytes / 1e6 / (parse_ms / 1e3).max(1e-9),
    );
    let load_ms = sum(&|s| (s.served == Served::Miss && s.variant).then_some(s.parse_us)) * ms;
    l.set("asm.snapshot.load_ms", load_ms);
    l.set("asm.snapshot.hits", a.snapshot_hits - b.snapshot_hits);
    l.set("asm.snapshot.misses", a.snapshot_misses - b.snapshot_misses);
    let compute_ms = by(Served::Miss, &|s| s.parse_us + s.optimize_us);
    l.set("asm.emit.ms", (service_ms - compute_ms).max(0.0));
    l.set("serve.result_cache.mem_hits", a.mem_hits - b.mem_hits);
    l.set("serve.result_cache.disk_hits", a.disk_hits - b.disk_hits);
    l.set(
        "serve.result_cache.misses",
        (a.mem_misses - b.mem_misses) - (a.disk_hits - b.disk_hits),
    );
    l.set("serve.result_cache.insertions", a.insertions - b.insertions);
    l.set("serve.result_cache.evictions", a.evictions - b.evictions);
    l.set("serve.store.bytes", a.store_bytes - b.store_bytes);
    l.set(
        "core.analysis_cache.hits",
        a.analysis_hits - b.analysis_hits,
    );
    l.set(
        "core.analysis_cache.misses",
        a.analysis_misses - b.analysis_misses,
    );
    let lookups = l.get("core.analysis_cache.hits") + l.get("core.analysis_cache.misses");
    l.set(
        "core.analysis_cache.hit_ratio",
        l.get("core.analysis_cache.hits") / lookups.max(1.0),
    );
    for (i, name) in ["layouts", "patches", "iterations", "rechecks"]
        .iter()
        .enumerate()
    {
        l.set(&format!("core.relax.{name}"), a.relax[i] - b.relax[i]);
    }
    // Deterministic work counts: transformations over the set-up inputs.
    for d in log
        .distinct
        .iter()
        .filter(|d| d.base && d.planted.is_some())
    {
        if let Some((outcome, _, _)) = &d.meta {
            for (name, t, _) in &outcome.passes {
                l.add(&format!("core.pass.{name}.transformations"), *t as f64);
            }
        }
    }

    let passes_ms: f64 = PASSES
        .iter()
        .map(|p| l.get(&format!("core.pass.{p}.ms")))
        .sum();
    let attributed = codec_ms
        + l.get("serve.transport.ms")
        + l.get("serve.result_cache.ms")
        + l.get("serve.store.read_ms")
        + l.get("serve.store.write_ms")
        + queue_ms
        + parse_ms
        + load_ms
        + passes_ms
        + l.get("asm.emit.ms");
    l.set(
        "trace.unattributed_pct",
        100.0 * (wall_ms - attributed) / wall_ms.max(1e-9),
    );
    let per_mb = |samples: &[Sample]| {
        let rtt: f64 = samples.iter().map(|s| s.rtt_us).sum();
        let bytes: usize = samples.iter().map(|s| s.bytes).sum();
        rtt / bytes.max(1) as f64
    };
    l.set(
        "trace.overhead_pct",
        100.0 * (per_mb(timed) / per_mb(untimed) - 1.0),
    );
    Ok(l)
}

/// The daemon's request decode and response encode, replayed on the same
/// payloads: one timed call per distinct request, weighted by how often
/// the timed phase sent it. Returns milliseconds.
fn replay_codec(log: &Log, timed: &[Sample]) -> f64 {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for s in timed {
        *counts.entry(s.distinct).or_default() += 1;
    }
    let mut total_us = 0.0;
    for (&idx, &n) in &counts {
        let d = &log.distinct[idx];
        let Some((outcome, cache, timings)) = &d.meta else {
            continue;
        };
        let Some(asm) = d.output.clone() else {
            continue;
        };
        let payload = Request::Optimize(OptimizeRequest {
            asm: d.asm.to_string(),
            passes: d.passes.clone(),
            jobs: None,
            timeout_ms: None,
            use_cache: true,
            isa: IsaId::X86_64,
        })
        .to_json()
        .to_string();
        let response = Response::Optimized {
            outcome: OptimizeOutcome {
                asm,
                ..outcome.clone()
            },
            cache: *cache,
            timings: *timings,
        };
        let t = Instant::now();
        let _decoded = std::hint::black_box(Request::from_json_text(&payload));
        let _encoded = std::hint::black_box(response.to_json_text());
        total_us += t.elapsed().as_secs_f64() * 1e6 * n as f64;
    }
    total_us / 1e3
}

/// The daemon's store writes on the timed phase's misses, replayed into a
/// scratch store: `ResultCache::insert` (write-through to the disk tier)
/// and, for text the snapshot tier had not seen, `SnapshotStore::put`.
/// Returns milliseconds.
fn replay_writes(opts: &Options, kind: Kind, log: &Log, timed: &[Sample]) -> Result<f64, String> {
    let dir = opts.run_dir.join("replay");
    let disk = DiskCache::open(DiskCacheConfig::new(dir.join("results")))
        .map_err(|e| format!("replay store: {e}"))?;
    let results = ResultCache::with_disk(caps(kind)[0], Some(disk));
    let snapshots =
        SnapshotStore::open(dir.join("snapshots"), 0).map_err(|e| format!("replay store: {e}"))?;
    let mut total_us = 0.0;
    for s in timed.iter().filter(|s| s.served == Served::Miss) {
        let d = &log.distinct[s.distinct];
        let (Some((outcome, _, _)), Some(asm)) = (&d.meta, &d.output) else {
            continue;
        };
        let key = request_key(&d.asm, &d.passes, IsaId::X86_64);
        let outcome = Arc::new(OptimizeOutcome {
            asm: asm.clone(),
            ..outcome.clone()
        });
        let t = Instant::now();
        results.insert(key, outcome);
        total_us += t.elapsed().as_secs_f64() * 1e6;
        if !s.variant {
            let entries = mao_asm::parse(&d.asm).map_err(|e| format!("replay parse: {e}"))?;
            let key = SnapshotStore::key_of(&d.asm) ^ (u128::from(IsaId::X86_64.tag()) << 120);
            let t = Instant::now();
            snapshots.put(key, &entries);
            total_us += t.elapsed().as_secs_f64() * 1e6;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(total_us / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log that sent `sent` requests, answered `responses` (pass string,
    /// output), and saw `failures`.
    fn log(sent: u64, responses: &[(&str, &str)], failures: &[&str]) -> Log {
        let mut log = Log {
            sent,
            failures: failures.iter().map(|f| f.to_string()).collect(),
            ..Log::default()
        };
        for &(passes, output) in responses {
            let asm: Rc<str> = "\tnop\n".into();
            let key = request_key(&asm, passes, IsaId::X86_64).raw();
            log.index.insert(key, log.distinct.len());
            log.distinct.push(Distinct {
                asm,
                passes: passes.to_string(),
                planted: None,
                base: true,
                output: Some(output.to_string()),
                digest: None,
                meta: None,
            });
        }
        log
    }

    #[test]
    fn a_failure_in_a_replaced_setup_fails_the_run() {
        let mut retired = Retired::default();
        retired.absorb(log(3, &[("DCE", "a")], &["daemon error [internal]: boom"]));
        retired.absorb(log(3, &[("DCE", "a")], &[]));
        let mut report = Report::default();
        retired.settle(&log(5, &[("DCE", "a")], &[]), &mut report);
        assert_eq!(report.attempted, 6);
        assert_eq!(report.failures, ["daemon error [internal]: boom"]);
    }

    #[test]
    fn replaced_setups_must_answer_like_the_kept_one() {
        let mut retired = Retired::default();
        retired.absorb(log(1, &[("DCE", "a"), ("NOPKILL", "b")], &[]));
        let mut report = Report::default();
        retired.settle(&log(2, &[("DCE", "a"), ("NOPKILL", "c")], &[]), &mut report);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("NOPKILL"));
    }
}
