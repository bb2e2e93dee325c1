//! Server-side observability counters and the `stats` snapshot.
//!
//! [`ServerStats`] registers its request counters directly in the engine's
//! `mao_obs::Metrics` registry, so the same cells feed both the JSON
//! `stats` response and the Prometheus `metrics` export — there is no
//! second set of numbers to drift. A point-in-time [`StatsSnapshot`]
//! consolidates what used to be three separate accessors (service
//! counters, result-cache stats, analysis-cache stats) and renders through
//! the single [`StatsSnapshot::to_json`] path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mao::obs::{Counter, Metrics, SpanTotal};
use mao::{CacheStats, FunctionMemoStats, RelaxTotals};

use crate::json::Json;
use crate::result_cache::ResultCacheStats;

/// Version of the `stats`/`metrics` response schema. Bumped when members
/// are added, renamed, or restructured; clients should check it before
/// digging into the object. Version 1 was the unversioned pre-telemetry
/// shape; version 2 added `schema_version` itself, the `spans` array, and
/// the `metrics` request; version 3 added the `admission` object, the
/// per-shard `shards` array (the flat `analysis_cache` object becomes the
/// cross-shard aggregate), and the optional `result_cache.disk` tier;
/// version 4 added the `superopt` object (window/search/rewrite counters
/// from SUPEROPT pass runs served by this daemon); version 5 added the
/// `frontend` object (parse time, snapshot-store hit/miss counters, symbol
/// interner size) and the `layout_cache.hit_disk`/`miss_disk` members
/// reporting the persistent layout tier; version 6 added the `cost_model`
/// object (name/source/generator/seed/mnemonic-count/fingerprint of the
/// process-global cost table every port/latency-sensitive pass plans
/// with — `hand-set` builtins or a `probe/<backend>` `.mpt` sweep);
/// version 7 added the `isa` object (optimize requests by instruction
/// set, one member per [`mao::isa::IsaId`] name) alongside per-request
/// ISA selection on the `optimize` request; version 8 added the
/// `function_memo` object (hits, misses, admissions, evictions, bytes and
/// entries of the engine's function-result memo); version 9 removed the
/// per-pass timings array, whose numbers the `spans` array's `pass` rows
/// already carry (count = invocations, `total_us` = cumulative time).
pub const STATS_SCHEMA_VERSION: u64 = 9;

/// Cumulative service counters. One instance lives for the daemon's whole
/// life and is shared by every connection and worker thread. The counters
/// are handles into the engine's metrics registry (families
/// `mao_requests_total`, `mao_requests_ok_total`, ...), so a Prometheus
/// scrape sees exactly what the `stats` snapshot reports.
pub struct ServerStats {
    started: Instant,
    requests_total: Counter,
    requests_ok: Counter,
    requests_error: Counter,
    panics: Counter,
    timeouts: Counter,
    offered: Counter,
    accepted: Counter,
    shed: Counter,
    in_flight: AtomicU64,
    /// Optimize requests per instruction set, indexed like
    /// [`mao::isa::IsaId::ALL`].
    isa_requests: Vec<Counter>,
    /// Handles into the `mao_superopt_*` counter families the SUPEROPT
    /// pass increments when it runs inside this engine's pipelines.
    /// Registered here (at zero) so the families exist — and render in
    /// both `stats` and the Prometheus export — before the first request.
    superopt: SuperoptCounters,
}

/// The SUPEROPT pass's counter handles (see `mao-superopt`'s `Counters`;
/// same family names, same cells).
struct SuperoptCounters {
    windows: Counter,
    searches: Counter,
    rewrites: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    diff_rejects: Counter,
    oracle_rejects: Counter,
}

impl SuperoptCounters {
    fn new(metrics: &Metrics) -> SuperoptCounters {
        SuperoptCounters {
            windows: metrics.counter("mao_superopt_windows_total"),
            searches: metrics.counter("mao_superopt_searches_total"),
            rewrites: metrics.counter("mao_superopt_rewrites_total"),
            cache_hits: metrics.counter("mao_superopt_cache_hits_total"),
            cache_misses: metrics.counter("mao_superopt_cache_misses_total"),
            diff_rejects: metrics.counter("mao_superopt_diff_rejects_total"),
            oracle_rejects: metrics.counter("mao_superopt_oracle_rejects_total"),
        }
    }

    fn snapshot(&self) -> SuperoptStats {
        SuperoptStats {
            windows: self.windows.get(),
            searches: self.searches.get(),
            rewrites: self.rewrites.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            diff_rejects: self.diff_rejects.get(),
            oracle_rejects: self.oracle_rejects.get(),
        }
    }
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new(&Metrics::new())
    }
}

impl ServerStats {
    /// Fresh counters registered in `metrics`; uptime starts now.
    pub fn new(metrics: &Metrics) -> ServerStats {
        ServerStats {
            started: Instant::now(),
            requests_total: metrics.counter("mao_requests_total"),
            requests_ok: metrics.counter("mao_requests_ok_total"),
            requests_error: metrics.counter("mao_requests_error_total"),
            panics: metrics.counter("mao_request_panics_total"),
            timeouts: metrics.counter("mao_request_timeouts_total"),
            offered: metrics.counter("mao_requests_offered_total"),
            accepted: metrics.counter("mao_requests_accepted_total"),
            shed: metrics.counter("mao_requests_shed_total"),
            in_flight: AtomicU64::new(0),
            isa_requests: mao::isa::IsaId::ALL
                .iter()
                .map(|isa| metrics.counter_with("mao_requests_isa_total", &[("isa", isa.name())]))
                .collect(),
            superopt: SuperoptCounters::new(metrics),
        }
    }

    /// An optimize request declared its target instruction set.
    pub fn record_isa(&self, isa: mao::isa::IsaId) {
        if let Some(i) = mao::isa::IsaId::ALL.iter().position(|x| *x == isa) {
            self.isa_requests[i].inc();
        }
    }

    /// A request entered service.
    pub fn begin_request(&self) {
        self.requests_total.inc();
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left service (any outcome).
    pub fn end_request(&self, ok: bool) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.requests_ok.inc();
        } else {
            self.requests_error.inc();
        }
    }

    /// An administrative request (stats/ping/shutdown) was served. Counted
    /// in the total but not in ok/error/in-flight, which track optimize
    /// work.
    pub fn record_admin(&self) {
        self.requests_total.inc();
    }

    /// A request was isolated after a pass panic.
    pub fn record_panic(&self) {
        self.panics.inc();
    }

    /// A request hit its wall-clock budget.
    pub fn record_timeout(&self) {
        self.timeouts.inc();
    }

    /// A compute request reached the admission gate.
    pub fn record_offered(&self) {
        self.offered.inc();
    }

    /// The admission gate let a compute request through.
    pub fn record_accepted(&self) {
        self.accepted.inc();
    }

    /// The admission gate shed a compute request (`BUSY`).
    pub fn record_shed(&self) {
        self.shed.inc();
    }

    /// Requests currently in service.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total requests accepted.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.get()
    }

    /// Seconds since the counters were created.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Consolidate everything into one point-in-time [`StatsSnapshot`].
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        result_cache: ResultCacheStats,
        analysis_cache: CacheStats,
        shards: Vec<ShardStats>,
        pending: u64,
        relax: RelaxTotals,
        span_totals: Vec<SpanTotal>,
        frontend: FrontendStats,
        function_memo: FunctionMemoStats,
    ) -> StatsSnapshot {
        StatsSnapshot {
            schema_version: STATS_SCHEMA_VERSION,
            uptime_s: self.uptime_s(),
            requests: RequestCounters {
                total: self.requests_total.get(),
                ok: self.requests_ok.get(),
                errors: self.requests_error.get(),
                panics: self.panics.get(),
                timeouts: self.timeouts.get(),
            },
            isa_requests: mao::isa::IsaId::ALL
                .iter()
                .zip(&self.isa_requests)
                .map(|(isa, counter)| (isa.name().to_string(), counter.get()))
                .collect(),
            in_flight: self.in_flight(),
            admission: AdmissionStats {
                offered: self.offered.get(),
                accepted: self.accepted.get(),
                shed: self.shed.get(),
                pending,
            },
            result_cache,
            analysis_cache,
            shards,
            relax,
            span_totals,
            superopt: self.superopt.snapshot(),
            frontend,
            function_memo,
            cost_model: CostModelStats::current(),
        }
    }
}

/// Provenance of the process-global cost model (schema v6). Answers "which
/// numbers did the scheduler and alignment passes plan with" — the builtin
/// hand-set tables or a measured `.mpt` sweep — without a daemon restart
/// ambiguity: the fingerprint is the `.mpt` payload checksum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostModelStats {
    /// Model name (`intel-core2-like`, `my-box`, ...).
    pub name: String,
    /// `hand-set` for builtins, `probe/<backend>` for sweeps.
    pub source: String,
    /// Generator identity, e.g. `mao-probe sweep v1`.
    pub generator: String,
    /// RNG seed the sweep ran with (0 for hand-set tables).
    pub seed: u64,
    /// Explicit per-mnemonic entries in the table.
    pub mnemonics: u64,
    /// `.mpt` payload checksum of the serialized table.
    pub fingerprint: u64,
}

impl CostModelStats {
    /// Snapshot the process-global provider.
    pub fn current() -> CostModelStats {
        let model = mao_x86::cost::current();
        CostModelStats {
            name: model.name.clone(),
            source: model.provenance.source.clone(),
            generator: model.provenance.generator.clone(),
            seed: model.provenance.seed,
            mnemonics: model.len() as u64,
            fingerprint: model.fingerprint(),
        }
    }
}

/// Point-in-time front-end totals: parse time, the snapshot tier, and the
/// process-wide symbol interner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Cumulative text-parse wall time across requests, microseconds
    /// (snapshot hits contribute nothing — that is the point).
    pub parse_us: u64,
    /// Requests whose unit loaded from a stored snapshot.
    pub snapshot_hits: u64,
    /// Requests that parsed text (and backfilled the snapshot store).
    pub snapshot_misses: u64,
    /// Bytes resident in the snapshot store (0 when not configured).
    pub snapshot_bytes: u64,
    /// Entries resident in the snapshot store (0 when not configured).
    pub snapshot_entries: u64,
    /// Distinct symbols interned process-wide.
    pub interner_symbols: u64,
    /// Bytes of interned symbol text.
    pub interner_bytes: u64,
}

/// Point-in-time SUPEROPT totals across every pipeline this engine ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperoptStats {
    /// Eligible windows considered.
    pub windows: u64,
    /// Windows that went to a fresh search (cache misses and failed
    /// re-verifications).
    pub searches: u64,
    /// Verified rewrites applied.
    pub rewrites: u64,
    /// Rewrite-cache lookups answered.
    pub cache_hits: u64,
    /// Rewrite-cache lookups that found nothing.
    pub cache_misses: u64,
    /// Candidates killed by the random-state differential filter.
    pub diff_rejects: u64,
    /// Candidates (or stale cache entries) killed by the full oracle.
    pub oracle_rejects: u64,
}

/// Request outcome counters within a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounters {
    /// Requests accepted (optimize + admin).
    pub total: u64,
    /// Optimize requests that succeeded.
    pub ok: u64,
    /// Optimize requests that failed (any error kind).
    pub errors: u64,
    /// Requests isolated after a pass panic.
    pub panics: u64,
    /// Requests that hit their wall-clock budget.
    pub timeouts: u64,
}

/// Admission-control counters: `offered == accepted + shed` always, and
/// `pending` is the point-in-time gauge the high-water mark bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Compute requests that reached the admission gate.
    pub offered: u64,
    /// Requests the gate let through to a shard queue.
    pub accepted: u64,
    /// Requests shed with `BUSY` at the high-water mark.
    pub shed: u64,
    /// Requests admitted but not yet finished right now.
    pub pending: u64,
}

/// One worker shard's view: requests it served and its private analysis
/// cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Compute requests this shard served.
    pub requests: u64,
    /// The shard's private analysis/layout cache counters.
    pub analysis_cache: CacheStats,
}

/// Point-in-time view of the whole service: request counters, admission
/// control, every cache tier, per-shard breakdowns, relaxation totals,
/// and aggregated span totals (per-pass time is the `pass` rows). The `stats` response is
/// exactly [`StatsSnapshot::to_json`]; tests and benchmarks read the typed
/// fields directly.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// [`STATS_SCHEMA_VERSION`] at render time.
    pub schema_version: u64,
    /// Seconds the service has been up.
    pub uptime_s: f64,
    /// Request outcome counters.
    pub requests: RequestCounters,
    /// Optimize requests per instruction set: (canonical ISA name, count),
    /// one entry per supported ISA (schema v7).
    pub isa_requests: Vec<(String, u64)>,
    /// Optimize requests currently in service.
    pub in_flight: u64,
    /// Admission-control counters and the pending gauge.
    pub admission: AdmissionStats,
    /// Whole-request result cache counters (memory tier, plus the disk
    /// tier when a cache dir is configured).
    pub result_cache: ResultCacheStats,
    /// Cross-shard aggregate of the per-function analysis caches
    /// (includes the layout slots).
    pub analysis_cache: CacheStats,
    /// Per-shard breakdown: served requests and private cache counters.
    pub shards: Vec<ShardStats>,
    /// Process-wide relaxation-solver totals.
    pub relax: RelaxTotals,
    /// Aggregated span totals from the engine's recorder, one per
    /// (category, name); the `pass` rows are the per-pass clock.
    pub span_totals: Vec<SpanTotal>,
    /// SUPEROPT pass totals (zero until a request runs the pass).
    pub superopt: SuperoptStats,
    /// Front-end totals: parse time, snapshot tier, symbol interner.
    pub frontend: FrontendStats,
    /// The function-result memo: the `mao_function_memo_*` counters plus
    /// its current size (schema v8).
    pub function_memo: FunctionMemoStats,
    /// Provenance of the cost model the passes planned with.
    pub cost_model: CostModelStats,
}

fn analysis_cache_json(stats: &CacheStats) -> Json {
    let total = stats.hits + stats.misses;
    Json::obj(vec![
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("evictions", Json::from(stats.evictions)),
        (
            "hit_rate",
            Json::from(if total > 0 {
                stats.hits as f64 / total as f64
            } else {
                0.0
            }),
        ),
    ])
}

impl StatsSnapshot {
    /// The one rendering path for the `stats` response body.
    pub fn to_json(&self) -> Json {
        let analyses = &self.analysis_cache;
        let spans: Vec<Json> = self
            .span_totals
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("cat", Json::from(t.cat.clone())),
                    ("name", Json::from(t.name.clone())),
                    ("count", Json::from(t.count)),
                    ("total_us", Json::from(t.total_us)),
                ])
            })
            .collect();
        let shards: Vec<Json> = self
            .shards
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("shard", Json::from(s.shard as u64)),
                    ("requests", Json::from(s.requests)),
                    ("analysis_cache", analysis_cache_json(&s.analysis_cache)),
                ])
            })
            .collect();
        let mut result_cache = vec![
            ("hits", Json::from(self.result_cache.hits)),
            ("misses", Json::from(self.result_cache.misses)),
            ("evictions", Json::from(self.result_cache.evictions)),
            ("insertions", Json::from(self.result_cache.insertions)),
            ("len", Json::from(self.result_cache.len)),
            ("capacity", Json::from(self.result_cache.capacity)),
            ("hit_rate", Json::from(self.result_cache.hit_rate())),
        ];
        if let Some(disk) = &self.result_cache.disk {
            result_cache.push((
                "disk",
                Json::obj(vec![
                    ("hits", Json::from(disk.hits)),
                    ("misses", Json::from(disk.misses)),
                    ("insertions", Json::from(disk.insertions)),
                    ("evictions", Json::from(disk.evictions)),
                    ("corrupt", Json::from(disk.corrupt)),
                    ("bytes", Json::from(disk.bytes)),
                    ("entries", Json::from(disk.entries)),
                    ("max_bytes", Json::from(disk.max_bytes)),
                ]),
            ));
        }
        Json::obj(vec![
            ("schema_version", Json::from(self.schema_version)),
            ("uptime_s", Json::from(self.uptime_s)),
            (
                "requests",
                Json::obj(vec![
                    ("total", Json::from(self.requests.total)),
                    ("ok", Json::from(self.requests.ok)),
                    ("errors", Json::from(self.requests.errors)),
                    ("panics", Json::from(self.requests.panics)),
                    ("timeouts", Json::from(self.requests.timeouts)),
                ]),
            ),
            (
                "isa",
                Json::Obj(
                    self.isa_requests
                        .iter()
                        .map(|(name, count)| (name.clone(), Json::from(*count)))
                        .collect(),
                ),
            ),
            ("in_flight", Json::from(self.in_flight)),
            (
                "admission",
                Json::obj(vec![
                    ("offered", Json::from(self.admission.offered)),
                    ("accepted", Json::from(self.admission.accepted)),
                    ("shed", Json::from(self.admission.shed)),
                    ("pending", Json::from(self.admission.pending)),
                ]),
            ),
            ("result_cache", Json::obj(result_cache)),
            ("analysis_cache", analysis_cache_json(analyses)),
            (
                "layout_cache",
                Json::obj(vec![
                    ("hits", Json::from(analyses.layout_hits)),
                    ("misses", Json::from(analyses.layout_misses)),
                    ("hit_rate", Json::from(analyses.layout_hit_rate())),
                    ("hit_disk", Json::from(analyses.layout_disk_hits)),
                    ("miss_disk", Json::from(analyses.layout_disk_misses)),
                ]),
            ),
            (
                "frontend",
                Json::obj(vec![
                    ("parse_us", Json::from(self.frontend.parse_us)),
                    ("snapshot_hits", Json::from(self.frontend.snapshot_hits)),
                    ("snapshot_misses", Json::from(self.frontend.snapshot_misses)),
                    ("snapshot_bytes", Json::from(self.frontend.snapshot_bytes)),
                    (
                        "snapshot_entries",
                        Json::from(self.frontend.snapshot_entries),
                    ),
                    (
                        "interner_symbols",
                        Json::from(self.frontend.interner_symbols),
                    ),
                    ("interner_bytes", Json::from(self.frontend.interner_bytes)),
                ]),
            ),
            (
                "function_memo",
                Json::obj(vec![
                    ("hits", Json::from(self.function_memo.hits)),
                    ("misses", Json::from(self.function_memo.misses)),
                    ("admissions", Json::from(self.function_memo.admissions)),
                    ("evictions", Json::from(self.function_memo.evictions)),
                    ("bytes", Json::from(self.function_memo.bytes)),
                    ("entries", Json::from(self.function_memo.entries)),
                ]),
            ),
            ("shards", Json::Arr(shards)),
            (
                "relax",
                Json::obj(vec![
                    ("layouts", Json::from(self.relax.layouts)),
                    ("patches", Json::from(self.relax.patches)),
                    ("iterations", Json::from(self.relax.iterations)),
                    ("rechecks", Json::from(self.relax.rechecks)),
                    ("fragments", Json::from(self.relax.fragments)),
                ]),
            ),
            ("spans", Json::Arr(spans)),
            (
                "superopt",
                Json::obj(vec![
                    ("windows", Json::from(self.superopt.windows)),
                    ("searches", Json::from(self.superopt.searches)),
                    ("rewrites", Json::from(self.superopt.rewrites)),
                    ("cache_hits", Json::from(self.superopt.cache_hits)),
                    ("cache_misses", Json::from(self.superopt.cache_misses)),
                    ("diff_rejects", Json::from(self.superopt.diff_rejects)),
                    ("oracle_rejects", Json::from(self.superopt.oracle_rejects)),
                ]),
            ),
            (
                "cost_model",
                Json::obj(vec![
                    ("name", Json::from(self.cost_model.name.clone())),
                    ("source", Json::from(self.cost_model.source.clone())),
                    ("generator", Json::from(self.cost_model.generator.clone())),
                    ("seed", Json::from(self.cost_model.seed)),
                    ("mnemonics", Json::from(self.cost_model.mnemonics)),
                    (
                        "fingerprint",
                        Json::from(format!("{:016x}", self.cost_model.fingerprint)),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao::obs::Recorder;

    fn snapshot_with_spans(stats: &ServerStats, span_totals: Vec<SpanTotal>) -> Json {
        stats
            .snapshot(
                ResultCacheStats::default(),
                CacheStats::default(),
                Vec::new(),
                0,
                RelaxTotals::default(),
                span_totals,
                FrontendStats::default(),
                FunctionMemoStats::default(),
            )
            .to_json()
    }

    fn snapshot_of(stats: &ServerStats) -> Json {
        snapshot_with_spans(stats, Vec::new())
    }

    #[test]
    fn snapshot_counts() {
        let metrics = Metrics::new();
        let stats = ServerStats::new(&metrics);
        let recorder = Recorder::aggregating();
        stats.begin_request();
        for pass in ["DCE", "SCHED", "DCE"] {
            drop(recorder.span("pass", pass));
        }
        stats.end_request(true);
        stats.begin_request();
        stats.record_panic();
        stats.end_request(false);
        let snap = snapshot_with_spans(&stats, recorder.totals());
        assert_eq!(
            snap.get("schema_version").unwrap().as_u64(),
            Some(STATS_SCHEMA_VERSION)
        );
        let requests = snap.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(requests.get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("panics").unwrap().as_u64(), Some(1));
        assert_eq!(snap.get("in_flight").unwrap().as_u64(), Some(0));
        // Per-pass time is the `pass` rows of the span totals.
        let spans = snap.get("spans").unwrap().as_arr().unwrap();
        let passes: Vec<&Json> = spans
            .iter()
            .filter(|row| row.get("cat").unwrap().as_str() == Some("pass"))
            .collect();
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].get("name").unwrap().as_str(), Some("DCE"));
        assert_eq!(passes[0].get("count").unwrap().as_u64(), Some(2));
        assert!(passes[0].get("total_us").unwrap().as_u64().is_some());
        assert_eq!(passes[1].get("name").unwrap().as_str(), Some("SCHED"));
        assert_eq!(passes[1].get("count").unwrap().as_u64(), Some(1));
        // The same counters are visible to a Prometheus scrape.
        assert_eq!(metrics.counter_value("mao_requests_total"), 2);
        assert_eq!(metrics.counter_value("mao_request_panics_total"), 1);
    }

    #[test]
    fn superopt_counters_flow_from_the_metrics_registry() {
        let metrics = Metrics::new();
        let stats = ServerStats::new(&metrics);
        // Zero until the pass runs, but the object (and the Prometheus
        // families) must exist from the first snapshot.
        let snap = snapshot_of(&stats);
        let so = snap.get("superopt").unwrap();
        assert_eq!(so.get("rewrites").unwrap().as_u64(), Some(0));
        // The pass writes through the shared registry by family name; the
        // stats handles must read the same cells.
        metrics.counter("mao_superopt_windows_total").add(3);
        metrics.counter("mao_superopt_searches_total").add(2);
        metrics.counter("mao_superopt_rewrites_total").inc();
        metrics.counter("mao_superopt_cache_hits_total").inc();
        metrics.counter("mao_superopt_diff_rejects_total").add(40);
        let snap = snapshot_of(&stats);
        let so = snap.get("superopt").unwrap();
        assert_eq!(so.get("windows").unwrap().as_u64(), Some(3));
        assert_eq!(so.get("searches").unwrap().as_u64(), Some(2));
        assert_eq!(so.get("rewrites").unwrap().as_u64(), Some(1));
        assert_eq!(so.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(so.get("cache_misses").unwrap().as_u64(), Some(0));
        assert_eq!(so.get("diff_rejects").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn admission_counters_reconcile_and_render() {
        let metrics = Metrics::new();
        let stats = ServerStats::new(&metrics);
        for _ in 0..5 {
            stats.record_offered();
        }
        for _ in 0..3 {
            stats.record_accepted();
        }
        for _ in 0..2 {
            stats.record_shed();
        }
        let snap = snapshot_of(&stats);
        let admission = snap.get("admission").unwrap();
        let offered = admission.get("offered").unwrap().as_u64().unwrap();
        let accepted = admission.get("accepted").unwrap().as_u64().unwrap();
        let shed = admission.get("shed").unwrap().as_u64().unwrap();
        assert_eq!(offered, 5);
        assert_eq!(accepted + shed, offered, "admission always reconciles");
        assert_eq!(metrics.counter_value("mao_requests_shed_total"), 2);
    }

    #[test]
    fn disk_tier_and_shards_render_when_present() {
        let stats = ServerStats::default();
        let mut result_cache = ResultCacheStats::default();
        result_cache.disk = Some(mao::StoreStats {
            hits: 7,
            misses: 2,
            insertions: 9,
            evictions: 1,
            corrupt: 0,
            bytes: 4096,
            entries: 8,
            max_bytes: 1 << 20,
            ..mao::StoreStats::default()
        });
        let shard = ShardStats {
            shard: 0,
            requests: 11,
            analysis_cache: CacheStats {
                hits: 4,
                ..CacheStats::default()
            },
        };
        let snap = stats
            .snapshot(
                result_cache,
                CacheStats::default(),
                vec![shard],
                3,
                RelaxTotals::default(),
                Vec::new(),
                FrontendStats::default(),
                FunctionMemoStats::default(),
            )
            .to_json();
        let disk = snap.get("result_cache").unwrap().get("disk").unwrap();
        assert_eq!(disk.get("hits").unwrap().as_u64(), Some(7));
        assert_eq!(disk.get("bytes").unwrap().as_u64(), Some(4096));
        let shards = snap.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("requests").unwrap().as_u64(), Some(11));
        assert_eq!(
            shards[0]
                .get("analysis_cache")
                .unwrap()
                .get("hits")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        assert_eq!(
            snap.get("admission")
                .unwrap()
                .get("pending")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }

    #[test]
    fn cost_model_provenance_renders_in_the_snapshot() {
        let stats = ServerStats::default();
        let snap = snapshot_of(&stats);
        let cm = snap.get("cost_model").unwrap();
        // Whatever provider is installed (builtin here; tests elsewhere in
        // this process may install sweeps), the provenance must be present
        // and well-formed.
        assert!(!cm.get("name").unwrap().as_str().unwrap().is_empty());
        assert!(!cm.get("source").unwrap().as_str().unwrap().is_empty());
        assert!(cm.get("mnemonics").unwrap().as_u64().unwrap() > 0);
        assert_eq!(cm.get("fingerprint").unwrap().as_str().unwrap().len(), 16);
        assert!(cm.get("seed").unwrap().as_u64().is_some());
    }

    #[test]
    fn span_totals_render() {
        let stats = ServerStats::default();
        let snap = snapshot_with_spans(
            &stats,
            vec![SpanTotal {
                cat: "pass".into(),
                name: "DCE".into(),
                count: 3,
                total_us: 42,
            }],
        );
        let spans = snap.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("cat").unwrap().as_str(), Some("pass"));
        assert_eq!(spans[0].get("count").unwrap().as_u64(), Some(3));
    }
}
