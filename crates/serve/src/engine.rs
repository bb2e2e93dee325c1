//! The request engine: caching, admission, sharded dispatch, isolation.
//!
//! [`Engine`] is the transport-independent core of `maod`. The event-driven
//! socket server, the stdin/stdout batch mode, and the tests all feed it
//! [`Request`]s and receive [`Response`]s. Four layers wrap every optimize
//! request:
//!
//! 1. **Caching** — a content-addressed tiered [`ResultCache`] keyed by
//!    `hash(asm, canonical passes)` ([`mao::pass::canonical`]): memory hits
//!    skip everything, disk hits re-read a verified entry from the
//!    persistent store (so restarts begin warm) and promote it to memory.
//!    Below it, each *shard* owns a private [`mao::AnalysisCache`] — the
//!    analysis and layout counters the passes of one request share without
//!    any cross-shard lock contention. The analyses and layout themselves
//!    live in the request's unit and go with it. One [`FunctionMemo`]
//!    shared by all shards holds functions after the pipeline's
//!    function-level prefix, so an edit re-runs those passes only on the
//!    functions it touched: the memo carries work across requests.
//! 2. **Admission control** — compute work enters a bounded pending set.
//!    Past the configured high-water mark the engine sheds load with an
//!    explicit [`ErrorKind::Busy`] response instead of queueing without
//!    bound; `offered = accepted + shed` always reconciles, so nothing is
//!    dropped silently.
//! 3. **Robustness** — requests run on the shard pool under
//!    `catch_unwind`; a panicking pass yields a structured `panic` error
//!    (its unit, analyses and all, is dropped) while the daemon keeps
//!    serving. Each request has a wall-clock budget; on expiry the
//!    caller gets a `timeout` error and the abandoned computation finishes
//!    in the background — if it succeeds, its result still lands in the
//!    cache for next time. Oversized inputs, and pass strings the registry
//!    refuses (`bad_request`), are rejected up front: they count as failed
//!    requests but never reach admission.
//! 4. **Observability** — the engine owns an aggregating [`Obs`] bundle:
//!    every request is a span, queue-wait and service time feed
//!    histograms, every cache registers its counter cells in the registry
//!    (per-shard analysis caches as `{shard="N"}` series), and the
//!    pipeline runs under [`run_pipeline_observed`]. The `stats` request
//!    renders a consolidated [`StatsSnapshot`]; the `metrics` request
//!    renders the registry as Prometheus text.
//!
//! Dispatch is asynchronous at the core: [`Engine::handle_async`] answers
//! inline where it can (admin, cache hits, rejections) and otherwise
//! enqueues the request on its content-hash shard, returning a [`Ticket`]
//! the transport uses to enforce the deadline. The synchronous
//! [`Engine::handle`] used by batch mode and tests is a thin wrapper that
//! parks on a channel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mao::isa::IsaId;
use mao::obs::{Histogram, Obs, PromText, Span, US_BUCKETS};
use mao::pass::{parse_invocations, run_pipeline_observed, PassInvocation, PipelineConfig};
use mao::{CacheStats, FunctionMemo, MaoUnit};

use crate::disk_cache::DiskCache;
use crate::pool::{ShardCtx, ShardPool};
use crate::protocol::{
    CacheOutcome, ErrorKind, OptimizeOutcome, OptimizeRequest, Request, Response, Timings,
    DEFAULT_MAX_REQUEST_BYTES, DEFAULT_TIMEOUT_MS,
};
use crate::result_cache::{request_key, CacheTier, ResultCache};
use crate::snapshot_store::SnapshotStore;
use crate::stats::{FrontendStats, ServerStats, ShardStats, StatsSnapshot};

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker shards, each owning its own analysis counters (0 = one per
    /// available core). Requests are partitioned by content hash.
    pub shards: usize,
    /// Default `--jobs` for function-level passes inside one request
    /// (0 = auto). The per-request `options.jobs` overrides it; either is
    /// capped at the host's available parallelism, by the parser and the
    /// pass driver alike ([`mao::isa::effective_jobs`]).
    pub jobs: usize,
    /// Default per-request wall-clock budget in milliseconds (0 = none).
    pub timeout_ms: u64,
    /// Result-cache memory-tier capacity in entries (0 = unbounded).
    pub result_cache_capacity: usize,
    /// Ignored. It bounded each shard's analysis cache, which now holds no
    /// analyses (they live in each request's unit); the field stays so
    /// existing configurations still build.
    pub analysis_cache_capacity: usize,
    /// Maximum request size in bytes (frames and batch lines).
    pub max_request_bytes: usize,
    /// Admission-control high-water mark: compute requests pending (queued
    /// or in service) beyond which new arrivals are shed with `BUSY`
    /// (0 = unbounded).
    pub max_pending: usize,
    /// Persistent result-cache directory (None = memory tier only).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Persistent-tier byte budget (0 = unbounded).
    pub cache_max_bytes: u64,
    /// fsync persistent-tier writes.
    pub cache_fsync: bool,
    /// Close connections idle longer than this, in milliseconds
    /// (0 = never; used by the socket transport, carried here so every
    /// front end shares one config).
    pub idle_timeout_ms: u64,
    /// Persistent front-end snapshot directory: parsed units are stored as
    /// binary IR snapshots keyed by input content hash, so repeated inputs
    /// skip text parsing entirely (None = parse every request).
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Snapshot-store byte budget (0 = unbounded).
    pub snapshot_max_bytes: u64,
    /// `.mpt` cost table to install as the process-global cost model before
    /// any pipeline runs (None = keep the builtin hand-set table). A table
    /// that fails to load — corrupt, truncated, version-skewed — is a
    /// startup error: the daemon refuses to serve rather than silently
    /// planning with different numbers than the operator asked for.
    pub cost_model: Option<std::path::PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: 0,
            jobs: 1,
            timeout_ms: DEFAULT_TIMEOUT_MS,
            result_cache_capacity: 1024,
            analysis_cache_capacity: 4096,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            max_pending: 256,
            cache_dir: None,
            cache_max_bytes: 0,
            cache_fsync: false,
            idle_timeout_ms: 300_000,
            snapshot_dir: None,
            snapshot_max_bytes: 0,
            cost_model: None,
        }
    }
}

/// A dispatched request's deadline handle. The transport that owns the
/// response path calls [`Engine::expire`] with it when the deadline
/// passes; whichever side (worker completion or expiry) flips the
/// `answered` flag first wins, so the requester sees exactly one response.
pub struct Ticket {
    answered: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Ticket {
    /// When this request times out (None = no budget).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// The exactly-once response path for one dispatched request. Delivery
/// closes the request's accounting; if the responder is dropped without
/// delivering (a job discarded during pool shutdown), it reports the
/// failure instead of leaving the requester hanging.
struct Responder {
    answered: Arc<AtomicBool>,
    stats_ok_closed: bool,
    engine: Engine,
    respond: Option<Box<dyn FnOnce(Response) + Send>>,
}

impl Responder {
    fn deliver(mut self, response: Response) {
        if self.answered.swap(true, Ordering::SeqCst) {
            // Expired (or otherwise answered) first; the computation's
            // side effects (cache population) are still valuable, but the
            // requester has already been told.
            self.respond = None;
            return;
        }
        self.close_stats(matches!(response, Response::Optimized { .. }));
        if let Some(respond) = self.respond.take() {
            respond(response);
        }
    }

    fn close_stats(&mut self, ok: bool) {
        if !self.stats_ok_closed {
            self.stats_ok_closed = true;
            self.engine.inner.stats.end_request(ok);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(respond) = self.respond.take() {
            if !self.answered.swap(true, Ordering::SeqCst) {
                self.close_stats(false);
                respond(Response::error(
                    ErrorKind::ShuttingDown,
                    "request dropped during shutdown",
                ));
            }
        }
    }
}

struct EngineInner {
    config: EngineConfig,
    shards: usize,
    pool: ShardPool,
    results: ResultCache,
    /// Front-end snapshot tier (None = parse every request).
    snapshots: Option<SnapshotStore>,
    /// The function-result memo every shard's analysis cache carries.
    function_memo: Arc<FunctionMemo>,
    /// `mao_frontend_snapshot_{hits,misses}_total`.
    snapshot_hits: mao::obs::Counter,
    snapshot_misses: mao::obs::Counter,
    stats: ServerStats,
    obs: Obs,
    queue_wait_us: Histogram,
    service_us: Histogram,
    /// Compute requests admitted but not yet finished (admission gauge).
    pending: AtomicU64,
    /// Per-shard served-request counters (`mao_shard_requests_total`).
    shard_requests: Vec<mao::obs::Counter>,
    shutting_down: AtomicBool,
}

/// The shared request engine (cheaply cloneable handle).
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Build an engine and spawn its shard pool. Panics if the persistent
    /// cache directory cannot be opened — use [`Engine::build`] for a
    /// recoverable error.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::build(config).expect("engine construction failed")
    }

    /// Build an engine, reporting persistent-cache setup failures.
    pub fn build(config: EngineConfig) -> Result<Engine, String> {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shards = if config.shards == 0 {
            parallelism
        } else {
            config.shards
        };
        let obs = Obs::aggregating();
        mao::register_relax_totals(&obs.metrics);
        // Install the measured cost table before any shard can run a pass:
        // a table the loader rejects must never reach the provider.
        if let Some(path) = &config.cost_model {
            let model = mao_x86::cost::CostModel::load_mpt(path)
                .map_err(|e| format!("cannot load cost model {}: {e}", path.display()))?;
            mao_x86::cost::install(Arc::new(model));
        }
        // Info-style series: value 1, provenance in the labels, so a scrape
        // can alert when a daemon is not planning with the expected table.
        let model = mao_x86::cost::current();
        let fingerprint = format!("{:016x}", model.fingerprint());
        obs.metrics
            .counter_with(
                "mao_cost_model_info",
                &[
                    ("name", model.name.as_str()),
                    ("source", model.provenance.source.as_str()),
                    ("fingerprint", fingerprint.as_str()),
                ],
            )
            .inc();
        let disk = match &config.cache_dir {
            Some(dir) => Some(
                DiskCache::open(mao::StoreConfig {
                    dir: dir.clone(),
                    max_bytes: config.cache_max_bytes,
                    fsync: config.cache_fsync,
                })
                .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let results = ResultCache::with_disk(config.result_cache_capacity, disk);
        results.attach_metrics(&obs.metrics);
        let snapshots = match &config.snapshot_dir {
            Some(dir) => {
                let store = SnapshotStore::open(dir, config.snapshot_max_bytes)
                    .map_err(|e| format!("cannot open snapshot dir {}: {e}", dir.display()))?;
                store
                    .store
                    .attach_metrics(&obs.metrics, "mao_frontend_snapshot_store");
                Some(store)
            }
            None => None,
        };
        let pool = ShardPool::new(shards);
        // One function-result memo for the whole engine: a function answered
        // on one shard hits on every other, so routing does not matter.
        let function_memo = Arc::new(FunctionMemo::registered(&obs.metrics));
        let mut shard_requests = Vec::with_capacity(shards);
        for shard in 0..shards {
            let label = shard.to_string();
            pool.ctx(shard)
                .analyses
                .attach_metrics_labeled(&obs.metrics, &[("shard", &label)]);
            pool.ctx(shard)
                .analyses
                .set_function_memo(function_memo.clone());
            shard_requests.push(
                obs.metrics
                    .counter_with("mao_shard_requests_total", &[("shard", &label)]),
            );
        }
        Ok(Engine {
            inner: Arc::new(EngineInner {
                shards,
                pool,
                results,
                snapshots,
                function_memo,
                snapshot_hits: obs.metrics.counter("mao_frontend_snapshot_hits_total"),
                snapshot_misses: obs.metrics.counter("mao_frontend_snapshot_misses_total"),
                stats: ServerStats::new(&obs.metrics),
                queue_wait_us: obs
                    .metrics
                    .histogram("mao_request_queue_wait_us", US_BUCKETS),
                service_us: obs.metrics.histogram("mao_request_service_us", US_BUCKETS),
                obs,
                pending: AtomicU64::new(0),
                shard_requests,
                shutting_down: AtomicBool::new(false),
                config,
            }),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// Service counters (shared with the transport layer).
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Compute requests currently admitted (queued or in service) — the
    /// admission-control gauge.
    pub fn pending(&self) -> u64 {
        self.inner.pending.load(Ordering::SeqCst)
    }

    /// Consolidated point-in-time view of the whole service: request and
    /// admission counters, result-cache tiers, per-shard analysis caches,
    /// relaxation totals, pass timings, and span totals — the one source
    /// for the `stats` response, benchmarks, and tests.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut aggregate = CacheStats::default();
        let mut per_shard = Vec::with_capacity(self.inner.shards);
        for shard in 0..self.inner.shards {
            let analyses = self.inner.pool.ctx(shard).analyses.stats();
            aggregate.hits += analyses.hits;
            aggregate.misses += analyses.misses;
            aggregate.layout_hits += analyses.layout_hits;
            aggregate.layout_misses += analyses.layout_misses;
            per_shard.push(ShardStats {
                shard,
                requests: self.inner.shard_requests[shard].get(),
                analysis_cache: analyses,
            });
        }
        let (interner_symbols, interner_bytes) = mao_asm::Sym::stats();
        let (snapshot_bytes, snapshot_entries) = self
            .inner
            .snapshots
            .as_ref()
            .map(|s| {
                let stats = s.stats();
                (stats.bytes, stats.entries)
            })
            .unwrap_or((0, 0));
        let span_totals = self.inner.obs.recorder.totals();
        let parse_us = span_totals
            .iter()
            .find(|t| t.cat == "frontend" && t.name == "parse")
            .map_or(0, |t| t.total_us);
        let frontend = FrontendStats {
            parse_us,
            snapshot_hits: self.inner.snapshot_hits.get(),
            snapshot_misses: self.inner.snapshot_misses.get(),
            snapshot_bytes,
            snapshot_entries,
            interner_symbols: interner_symbols as u64,
            interner_bytes: interner_bytes as u64,
        };
        self.inner.stats.snapshot(
            self.inner.results.stats(),
            aggregate,
            per_shard,
            self.pending(),
            mao::relax_totals(),
            span_totals,
            frontend,
            self.inner.function_memo.stats(),
        )
    }

    /// Render the metrics registry plus scrape-time gauges as Prometheus
    /// text exposition.
    pub fn metrics_text(&self) -> String {
        let mut out = PromText::new();
        self.inner.obs.metrics.render_into(&mut out);
        out.gauge("mao_uptime_seconds", self.inner.stats.uptime_s());
        out.gauge("mao_requests_in_flight", self.inner.stats.in_flight());
        out.gauge("mao_requests_pending", self.pending());
        out.gauge("mao_result_cache_len", self.inner.results.len());
        out.gauge(
            "mao_function_memo_bytes",
            self.inner.function_memo.stats().bytes,
        );
        if let Some(disk) = self.inner.results.disk() {
            let d = disk.stats();
            out.gauge("mao_result_cache_disk_bytes", d.bytes);
            out.gauge("mao_result_cache_disk_entries", d.entries);
        }
        if let Some(snapshots) = &self.inner.snapshots {
            let s = snapshots.stats();
            out.gauge("mao_frontend_snapshot_store_bytes", s.bytes);
            out.gauge("mao_frontend_snapshot_store_entries", s.entries);
        }
        let (symbols, bytes) = mao_asm::Sym::stats();
        out.gauge("mao_frontend_interner_symbols", symbols as u64);
        out.gauge("mao_frontend_interner_bytes", bytes as u64);
        out.finish()
    }

    /// Has a shutdown been requested (SIGTERM or `shutdown` request)?
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Begin draining: refuse new optimize work.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Close the worker pool after queued jobs finish.
    pub fn join_workers(&self) {
        self.inner.pool.shutdown();
    }

    /// Serve one request synchronously. Batch mode and tests use this; the
    /// socket transport uses [`Engine::handle_async`] so the event loop
    /// never blocks on compute.
    pub fn handle(&self, request: Request) -> Response {
        let (tx, rx) = sync_channel::<Response>(1);
        let ticket = self.handle_async(request, move |response| {
            let _ = tx.send(response);
        });
        match ticket {
            None => rx
                .recv()
                .expect("inline responses are delivered before handle_async returns"),
            Some(ticket) => {
                let result = match ticket.deadline() {
                    None => rx.recv().map_err(|_| ()),
                    Some(deadline) => {
                        let budget = deadline.saturating_duration_since(Instant::now());
                        rx.recv_timeout(budget).map_err(|_| ())
                    }
                };
                match result {
                    Ok(response) => response,
                    Err(()) => match self.expire(&ticket) {
                        Some(timeout_response) => timeout_response,
                        // The worker answered in the race window (or the
                        // job was dropped at shutdown and the Responder
                        // reported it); the channel has the response.
                        None => rx.recv().unwrap_or_else(|_| {
                            Response::error(ErrorKind::Panic, "worker disappeared mid-request")
                        }),
                    },
                }
            }
        }
    }

    /// Serve one request, delivering the response through `respond`
    /// exactly once — inline (admin, cache hits, rejections, sheds) or
    /// later from a shard worker. Returns a [`Ticket`] when the request
    /// was dispatched to a shard; the caller owns deadline enforcement via
    /// [`Engine::expire`].
    pub fn handle_async(
        &self,
        request: Request,
        respond: impl FnOnce(Response) + Send + 'static,
    ) -> Option<Ticket> {
        match request {
            Request::Optimize(req) => self.optimize_async(req, Box::new(respond)),
            Request::Stats => {
                self.inner.stats.record_admin();
                respond(Response::Stats(self.snapshot().to_json()));
                None
            }
            Request::Metrics => {
                self.inner.stats.record_admin();
                respond(Response::Metrics(self.metrics_text()));
                None
            }
            Request::Ping => {
                self.inner.stats.record_admin();
                respond(Response::Pong);
                None
            }
            Request::Shutdown => {
                self.inner.stats.record_admin();
                self.begin_shutdown();
                respond(Response::ShutdownAck);
                None
            }
        }
    }

    /// A dispatched request's deadline passed: claim the response slot. On
    /// a win, returns the timeout error (recorded in the counters) for the
    /// caller to deliver; `None` means the worker answered first and there
    /// is nothing to do.
    pub fn expire(&self, ticket: &Ticket) -> Option<Response> {
        if ticket.answered.swap(true, Ordering::SeqCst) {
            return None;
        }
        self.inner.stats.record_timeout();
        self.inner.stats.end_request(false);
        Some(Response::error(
            ErrorKind::Timeout,
            "request exceeded its wall-clock budget",
        ))
    }

    /// Serve one optimize request (cache → admission → shard → respond).
    fn optimize_async(
        &self,
        req: OptimizeRequest,
        respond: Box<dyn FnOnce(Response) + Send>,
    ) -> Option<Ticket> {
        // Refusals are answered inline and counted as failed requests, but
        // never reach admission: `offered == accepted + shed` stays exact.
        let refuse = |respond: Box<dyn FnOnce(Response) + Send>, response| {
            self.inner.stats.record_refused();
            respond(response);
            None
        };
        if self.is_shutting_down() {
            return refuse(
                respond,
                Response::error(ErrorKind::ShuttingDown, "server is draining"),
            );
        }
        if req.asm.len() > self.inner.config.max_request_bytes {
            let message = format!(
                "request of {} bytes exceeds the {}-byte limit",
                req.asm.len(),
                self.inner.config.max_request_bytes
            );
            return refuse(respond, Response::error(ErrorKind::TooLarge, message));
        }
        // A pass string the registry refuses (unknown pass, unknown key,
        // malformed or out-of-range value) is answered here: it never
        // queues, parses, counts as offered, or reaches a cache.
        let (invocations, passes) = match parse_invocations(&req.passes).and_then(|invs| {
            let passes = mao::pass::resolve(&invs)?;
            Ok((invs, passes))
        }) {
            Ok(resolved) => resolved,
            Err(e) => {
                return refuse(
                    respond,
                    Response::error(ErrorKind::BadRequest, e.to_string()),
                )
            }
        };

        self.inner.stats.begin_request();
        let started = Instant::now();
        let answered = Arc::new(AtomicBool::new(false));
        let responder = Responder {
            answered: answered.clone(),
            stats_ok_closed: false,
            engine: self.clone(),
            respond: Some(respond),
        };

        self.inner.stats.record_isa(req.isa);
        // Keyed by what the passes mean, not how they were spelt.
        let canonical = mao::pass::canonical(&invocations, &passes);
        let key = request_key(&req.asm, &canonical, req.isa);
        if req.use_cache {
            if let Some((cached, tier)) = self.inner.results.get(key) {
                // Serve the stored result verbatim except for the trace:
                // an empty trace is the visible proof that nothing re-ran.
                let mut outcome = (*cached).clone();
                outcome.trace.clear();
                responder.deliver(Response::Optimized {
                    outcome,
                    cache: match tier {
                        CacheTier::Memory => CacheOutcome::Hit,
                        CacheTier::Disk => CacheOutcome::DiskHit,
                    },
                    timings: Timings {
                        parse_us: 0,
                        optimize_us: 0,
                        total_us: started.elapsed().as_micros() as u64,
                    },
                });
                return None;
            }
        }

        // Admission control: a bounded pending set. `offered` counts every
        // compute attempt; `accepted + shed == offered` reconciles exactly,
        // so shed load is visible, never silent.
        self.inner.stats.record_offered();
        let max_pending = self.inner.config.max_pending;
        let pending_now = self.inner.pending.fetch_add(1, Ordering::SeqCst) + 1;
        if max_pending > 0 && pending_now as usize > max_pending {
            self.inner.pending.fetch_sub(1, Ordering::SeqCst);
            self.inner.stats.record_shed();
            responder.deliver(Response::error(
                ErrorKind::Busy,
                format!(
                    "{} requests already pending (high-water mark {max_pending}); \
                     retry after a backoff",
                    pending_now - 1
                ),
            ));
            return None;
        }
        self.inner.stats.record_accepted();

        let timeout_ms = req.timeout_ms.unwrap_or(self.inner.config.timeout_ms);
        let deadline = if timeout_ms == 0 {
            None
        } else {
            Some(Instant::now() + Duration::from_millis(timeout_ms))
        };
        let ticket = Ticket { answered, deadline };

        let engine = self.clone();
        let use_cache = req.use_cache;
        let submitted_at = Instant::now();
        let shard = key.shard(self.inner.shards);
        let job = Box::new(move |ctx: &ShardCtx| {
            let inner = &engine.inner;
            inner.pending.fetch_sub(1, Ordering::SeqCst);
            inner.shard_requests[ctx.index].inc();
            inner
                .queue_wait_us
                .observe(submitted_at.elapsed().as_micros() as u64);
            let serviced_at = Instant::now();
            let result = engine.compute(&req, &invocations, ctx);
            inner
                .service_us
                .observe(serviced_at.elapsed().as_micros() as u64);
            if let Ok((outcome, _)) = &result {
                // Even if the requester has timed out and gone, the work is
                // done — cache it so the retry is free.
                if use_cache {
                    inner.results.insert(key, Arc::new(outcome.clone()));
                }
            }
            let response = match result {
                Ok((outcome, mut timings)) => {
                    timings.total_us = started.elapsed().as_micros() as u64;
                    Response::Optimized {
                        outcome,
                        cache: if use_cache {
                            CacheOutcome::Miss
                        } else {
                            CacheOutcome::Bypass
                        },
                        timings,
                    }
                }
                Err(error_response) => error_response,
            };
            responder.deliver(response);
        });
        if self.inner.pool.submit(shard, job).is_err() {
            // Shutdown raced us: the job (and its Responder) was dropped,
            // which already delivered a shutting-down error and settled the
            // pending counter is ours to fix.
            self.inner.pending.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ticket)
    }

    /// The request front end: produce a [`MaoUnit`] from request text,
    /// preferring a stored binary IR snapshot (keyed by input content hash)
    /// over text parsing when a snapshot store is configured. Misses parse
    /// — in parallel when `jobs > 1` — and backfill the store, so the next
    /// request carrying the same bytes skips the parser entirely.
    fn front_end(&self, asm: &str, jobs: usize, isa: IsaId) -> Result<MaoUnit, Response> {
        let inner = &self.inner;
        let key = match &inner.snapshots {
            Some(snapshots) => {
                // The ISA folds into the store key: the same text parsed
                // under different dialects yields different entry lists.
                let key = SnapshotStore::key_of(asm) ^ (u128::from(isa.tag()) << 120);
                let mut span = Span::enter(&inner.obs.recorder, "frontend", "snapshot_load");
                if let Some(entries) = snapshots.load_key(key) {
                    span.arg("entries", entries.len());
                    inner.snapshot_hits.inc();
                    return Ok(MaoUnit::from_entries_isa(entries, isa));
                }
                inner.snapshot_misses.inc();
                Some(key)
            }
            None => None,
        };
        let unit = {
            let mut span = Span::enter(&inner.obs.recorder, "frontend", "parse");
            span.arg("bytes", asm.len());
            MaoUnit::parse_with_jobs_isa(asm, jobs, isa)
                .map_err(|e| Response::error(ErrorKind::Parse, e.to_string()))?
        };
        if let (Some(snapshots), Some(key)) = (&inner.snapshots, key) {
            snapshots.put(key, unit.entries());
        }
        Ok(unit)
    }

    /// Parse + optimize one unit with the request's resolved `invocations`
    /// on the current (shard) thread, with panic isolation. Returns the
    /// outcome or a ready-made error response.
    fn compute(
        &self,
        req: &OptimizeRequest,
        invocations: &[PassInvocation],
        ctx: &ShardCtx,
    ) -> Result<(OptimizeOutcome, Timings), Response> {
        let config = PipelineConfig {
            jobs: req.jobs.unwrap_or(self.inner.config.jobs),
        };
        let mut request_span = Span::enter(&self.inner.obs.recorder, "request", "optimize");
        request_span.arg("bytes", req.asm.len());
        let attempt = catch_unwind(AssertUnwindSafe(
            || -> Result<(OptimizeOutcome, Timings), Response> {
                let t0 = Instant::now();
                let mut unit = self.front_end(&req.asm, config.jobs, req.isa)?;
                let parse_us = t0.elapsed().as_micros() as u64;
                let t1 = Instant::now();
                let report = run_pipeline_observed(
                    &mut unit,
                    invocations,
                    None,
                    &config,
                    &ctx.analyses,
                    &self.inner.obs,
                )
                .map_err(|e| Response::error(ErrorKind::Pass, e.to_string()))?;
                let optimize_us = t1.elapsed().as_micros() as u64;
                Ok((
                    OptimizeOutcome {
                        asm: unit.emit(),
                        passes: report
                            .passes
                            .iter()
                            .map(|(name, stats)| {
                                (name.clone(), stats.transformations, stats.matches)
                            })
                            .collect(),
                        timings_us: report.timings_us,
                        trace: report.trace,
                    },
                    Timings {
                        parse_us,
                        optimize_us,
                        total_us: 0,
                    },
                ))
            },
        ));
        match attempt {
            Ok(inner) => inner,
            Err(panic) => {
                self.inner.stats.record_panic();
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(Response::error(
                    ErrorKind::Panic,
                    format!("pass panicked: {message}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

    /// The cost model is process-global, and its fingerprint is part of the
    /// function memo's key. Tests that install a model, and tests whose
    /// assertions depend on which model is installed (memo admissions and
    /// hits, provider reads, outputs compared across engines), hold this
    /// lock so they run one at a time.
    static COST_MODEL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn cost_model_lock() -> std::sync::MutexGuard<'static, ()> {
        COST_MODEL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        })
    }

    fn optimize(asm: &str, passes: &str) -> Request {
        Request::Optimize(OptimizeRequest {
            asm: asm.into(),
            passes: passes.into(),
            jobs: None,
            timeout_ms: None,
            use_cache: true,
            isa: mao::isa::IsaId::X86_64,
        })
    }

    #[test]
    fn optimize_matches_direct_pipeline() {
        let engine = engine();
        let response = engine.handle(optimize(INPUT, "REDTEST:ADDADD"));
        let Response::Optimized { outcome, cache, .. } = response else {
            panic!("expected success");
        };
        assert_eq!(cache, CacheOutcome::Miss);
        let mut unit = MaoUnit::parse(INPUT).unwrap();
        let invs = parse_invocations("REDTEST:ADDADD").unwrap();
        mao::pass::run_pipeline(&mut unit, &invs, None).unwrap();
        assert_eq!(
            outcome.asm,
            unit.emit(),
            "service output must be byte-identical"
        );
        assert!(outcome.total_transformations() > 0);
    }

    #[test]
    fn repeat_request_hits_cache() {
        let engine = engine();
        let first = engine.handle(optimize(INPUT, "REDTEST"));
        let second = engine.handle(optimize(INPUT, "REDTEST"));
        let (
            Response::Optimized { outcome: a, .. },
            Response::Optimized {
                outcome: b, cache, ..
            },
        ) = (first, second)
        else {
            panic!("both must succeed");
        };
        assert_eq!(cache, CacheOutcome::Hit);
        assert_eq!(a.asm, b.asm);
        assert!(b.trace.is_empty(), "cached responses carry no fresh trace");
    }

    /// Pass strings that differ only in how a value is spelt share one
    /// result-cache entry: the key hashes their canonical rendering.
    #[test]
    fn equivalent_option_spellings_share_a_cache_entry() {
        let engine = engine();
        let mut bytes = Vec::new();
        for (passes, expected) in [
            ("DCE=trace[0]", CacheOutcome::Miss),
            ("DCE=trace[00]", CacheOutcome::Hit),
        ] {
            let Response::Optimized { outcome, cache, .. } = engine.handle(optimize(INPUT, passes))
            else {
                panic!("{passes} must succeed");
            };
            assert_eq!(cache, expected, "{passes}");
            bytes.push(outcome.asm);
        }
        assert_eq!(bytes[0], bytes[1]);
        let stats = engine.inner.results.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    /// A unit served by the daemon pays no more analysis misses than the
    /// same unit run one-shot: its analyses live in the unit for the whole
    /// pipeline, however many functions it has (5,000 here, past what the
    /// shards' analysis caches once held). The function-level passes each
    /// look every function up; the layout passes are left out because
    /// debug builds check each of their per-function layout reads against
    /// the reference solver.
    #[test]
    fn daemon_pays_no_more_analysis_misses_than_one_shot() {
        let _model = cost_model_lock();
        let passes = "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED";
        let mut asm = String::from("\t.text\n");
        for k in 0..5000 {
            asm += &format!("\t.type\tf{k}, @function\nf{k}:\n\taddl\t$1, %eax\n\tret\n");
        }
        let mut unit = MaoUnit::parse(&asm).unwrap();
        let one_shot = Arc::new(mao::AnalysisCache::new());
        mao::pass::run_pipeline_shared(
            &mut unit,
            &parse_invocations(passes).unwrap(),
            None,
            &PipelineConfig { jobs: 1 },
            &one_shot,
        )
        .unwrap();
        let engine = Engine::new(EngineConfig::default());
        let Response::Optimized { outcome, .. } = engine.handle(optimize(&asm, passes)) else {
            panic!("the daemon must optimize");
        };
        assert_eq!(outcome.asm, unit.emit());
        let (daemon, one_shot) = (engine.snapshot().analysis_cache, one_shot.stats());
        assert!(one_shot.misses >= 5000, "{one_shot:?}");
        assert!(
            daemon.misses <= one_shot.misses,
            "daemon {daemon:?} against one-shot {one_shot:?}"
        );
    }

    #[test]
    fn panic_is_isolated_and_service_continues() {
        let engine = engine();
        let boom = engine.handle(optimize("nop\n", "PANIC"));
        match boom {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Panic);
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // The daemon (and its shards) keep serving.
        let next = engine.handle(optimize(INPUT, "REDTEST"));
        assert!(matches!(next, Response::Optimized { .. }));
    }

    #[test]
    fn timeout_returns_structured_error() {
        let engine = engine();
        let response = engine.handle(Request::Optimize(OptimizeRequest {
            asm: "nop\n".into(),
            passes: "PANIC=sleep_ms[2000],func[nosuch]".into(),
            jobs: None,
            timeout_ms: Some(50),
            use_cache: false,
            isa: mao::isa::IsaId::X86_64,
        }));
        match response {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn huge_request_jobs_answer_ok_with_the_bytes_of_one_job() {
        // Past the parser's 64 KiB parallel threshold, so `jobs` reaches
        // both the parser's chunk split and the function-level driver.
        let mut asm = String::new();
        let mut k = 0;
        while asm.len() < 80 * 1024 {
            asm.push_str(&format!(
                "\t.type\tf{k}, @function\nf{k}:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\
                 \tjne .L{k}\n\taddl $3, %eax\n\taddl $4, %eax\n.L{k}:\n\tret\n"
            ));
            k += 1;
        }
        let engine = engine();
        let run = |jobs: usize| {
            let response = engine.handle(Request::Optimize(OptimizeRequest {
                asm: asm.clone(),
                passes: "REDTEST:ADDADD".into(),
                jobs: Some(jobs),
                timeout_ms: Some(30_000),
                use_cache: false,
                isa: mao::isa::IsaId::X86_64,
            }));
            match response {
                Response::Optimized { outcome, .. } => outcome.asm,
                other => panic!("jobs = {jobs}: expected ok, got {other:?}"),
            }
        };
        let one = run(1);
        assert_eq!(
            one.matches("addl $7, %eax").count(),
            k,
            "ADDADD fired per function"
        );
        assert_eq!(
            run(1 << 63),
            one,
            "output is byte-identical at any job count"
        );
    }

    #[test]
    fn oversized_request_rejected() {
        let engine = Engine::new(EngineConfig {
            shards: 1,
            max_request_bytes: 16,
            ..EngineConfig::default()
        });
        let response = engine.handle(optimize("nop\n; this is way beyond sixteen bytes\n", ""));
        match response {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::TooLarge),
            other => panic!("expected too_large, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_drains() {
        let engine = engine();
        assert!(matches!(
            engine.handle(Request::Shutdown),
            Response::ShutdownAck
        ));
        let refused = engine.handle(optimize(INPUT, "REDTEST"));
        match refused {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
            other => panic!("expected shutting_down, got {other:?}"),
        }
    }

    #[test]
    fn same_key_same_shard_distinct_keys_spread() {
        let k1 = request_key(INPUT, "REDTEST", mao::isa::IsaId::X86_64);
        assert_eq!(k1.shard(4), k1.shard(4), "deterministic");
        // With enough distinct keys, more than one shard is used.
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| {
                request_key(
                    &format!("{INPUT}# {i}\n"),
                    "REDTEST",
                    mao::isa::IsaId::X86_64,
                )
                .shard(4)
            })
            .collect();
        assert!(hit.len() > 1, "content hashing spreads shards: {hit:?}");
    }

    #[test]
    fn per_request_isa_selects_the_aarch64_pipeline() {
        let engine = engine();
        let a64 = "\t.type\tf, @function\nf:\n\tnop\n\tadd x0, x0, #1\n\tret\n";
        let request = |passes: &str| {
            Request::Optimize(OptimizeRequest {
                asm: a64.to_string(),
                passes: passes.into(),
                jobs: None,
                timeout_ms: None,
                use_cache: true,
                isa: mao::isa::IsaId::Aarch64,
            })
        };
        // An ISA-neutral pass runs and the emitted text is aarch64 syntax.
        let Response::Optimized { outcome, .. } = engine.handle(request("NOPKILL")) else {
            panic!("expected aarch64 optimize to succeed");
        };
        assert!(
            !outcome.asm.contains("\tnop"),
            "nop removed: {}",
            outcome.asm
        );
        assert!(outcome.asm.contains("add\tx0, x0, #1"), "{}", outcome.asm);
        // An x86-only pass is a structured pass error, not a panic.
        match engine.handle(request("SCHED")) {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Pass);
                assert!(message.contains("aarch64"), "{message}");
            }
            other => panic!("expected pass error, got {other:?}"),
        }
        // The stats snapshot breaks requests down by ISA.
        let _ = engine.handle(optimize(INPUT, "REDTEST"));
        let Response::Stats(snap) = engine.handle(Request::Stats) else {
            panic!("expected stats");
        };
        let isa = snap.get("isa").unwrap();
        assert_eq!(isa.get("aarch64").unwrap().as_u64(), Some(2));
        assert_eq!(isa.get("x86-64").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn refused_pass_strings_never_reach_admission_or_the_caches() {
        let engine = engine();
        // Unparsable asm under a bad pass string: the pass string is
        // refused first, so the asm is never parsed.
        for (asm, passes) in [
            (INPUT, "SCHED=bogus"),
            (INPUT, "SCHED=bogus"),
            (INPUT, "REDTEST:NOSUCH"),
            ("\tfrobnicate %eax\n", "NOPIN=trace[256]"),
        ] {
            match engine.handle(optimize(asm, passes)) {
                Response::Error { kind, message } => {
                    assert_eq!(kind, ErrorKind::BadRequest, "{passes}: {message}")
                }
                other => panic!("{passes}: expected bad_request, got {other:?}"),
            }
        }
        let Response::Stats(snap) = engine.handle(Request::Stats) else {
            panic!("expected stats");
        };
        let admission = snap.get("admission").unwrap();
        assert_eq!(admission.get("offered").unwrap().as_u64(), Some(0));
        let cache = snap.get("result_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(0));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn refusals_count_as_failed_requests_outside_admission() {
        let engine = engine();
        let Response::Error { kind, .. } = engine.handle(optimize("nop\n", "SCHED=bogus")) else {
            panic!("expected bad_request");
        };
        assert_eq!(kind, ErrorKind::BadRequest);
        let Response::Stats(snap) = engine.handle(Request::Stats) else {
            panic!("expected stats");
        };
        // The refusal and the stats request itself.
        let requests = snap.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(requests.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("ok").unwrap().as_u64(), Some(0));
        let admission = snap.get("admission").unwrap();
        for counter in ["offered", "accepted", "shed"] {
            assert_eq!(
                admission.get(counter).unwrap().as_u64(),
                Some(0),
                "{counter}"
            );
        }

        // Too-large and draining refusals count the same way.
        let small = Engine::new(EngineConfig {
            max_request_bytes: 4,
            ..EngineConfig::default()
        });
        let _ = small.handle(optimize(INPUT, "REDTEST"));
        small.begin_shutdown();
        let _ = small.handle(optimize("nop\n", "REDTEST"));
        let snap = small.snapshot().to_json();
        let requests = snap.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(requests.get("errors").unwrap().as_u64(), Some(2));
        let admission = snap.get("admission").unwrap();
        assert_eq!(admission.get("offered").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn stats_snapshot_tracks_requests() {
        let engine = engine();
        let _ = engine.handle(optimize(INPUT, "REDTEST"));
        let _ = engine.handle(optimize(INPUT, "REDTEST")); // cache hit
        let Response::Stats(snap) = engine.handle(Request::Stats) else {
            panic!("expected stats");
        };
        let requests = snap.get("requests").unwrap();
        assert_eq!(requests.get("ok").unwrap().as_u64(), Some(2));
        let cache = snap.get("result_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(
            snap.get("schema_version").unwrap().as_u64(),
            Some(crate::stats::STATS_SCHEMA_VERSION)
        );
        // Admission reconciles: one compute attempt, zero shed.
        let admission = snap.get("admission").unwrap();
        assert_eq!(admission.get("offered").unwrap().as_u64(), Some(1));
        assert_eq!(admission.get("accepted").unwrap().as_u64(), Some(1));
        assert_eq!(admission.get("shed").unwrap().as_u64(), Some(0));
        // Exactly one shard served the one computed request.
        let shards = snap.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 2);
        let served: u64 = shards
            .iter()
            .map(|s| s.get("requests").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(served, 1);
        // The aggregating recorder folded per-request and per-pass spans.
        let spans = snap.get("spans").unwrap().as_arr().unwrap();
        let request_total = spans
            .iter()
            .find(|s| s.get("cat").unwrap().as_str() == Some("request"))
            .expect("request span total present");
        assert_eq!(request_total.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn metrics_request_renders_prometheus_text() {
        let engine = engine();
        let _ = engine.handle(optimize(INPUT, "REDTEST"));
        let Response::Metrics(text) = engine.handle(Request::Metrics) else {
            panic!("expected metrics");
        };
        mao::obs::prom::validate(&text).expect("exposition text validates");
        assert!(text.contains("# TYPE mao_requests_total counter"), "{text}");
        assert!(text.contains("mao_uptime_seconds"), "{text}");
        assert!(
            text.contains("mao_shard_requests_total{shard=\"0\"}"),
            "shard-labeled counters present: {text}"
        );
        assert!(
            text.contains("mao_analysis_cache_hits_total{shard=\"1\"}"),
            "per-shard analysis caches are distinct series: {text}"
        );
    }

    #[test]
    fn parse_error_carries_line_and_text() {
        let engine = engine();
        let response = engine.handle(optimize("nop\nfrobnicate %eax\n", ""));
        match response {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Parse);
                assert!(message.contains("line 2"), "{message}");
                assert!(message.contains("frobnicate"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// A function-scope pass that panics on the second function when given
    /// `at[1]` (and otherwise does nothing), for the memo's failure path.
    fn panics_on_second_function(
        unit: &mut MaoUnit,
        ctx: &mut mao::PassContext,
    ) -> Result<mao::PassStats, mao::PassError> {
        let at = ctx.options.get_u64("at", 0);
        let second = unit.functions_cached().get(1).map(|f| f.name.clone());
        mao::run_functions(unit, ctx, |_, function, _| {
            if at == 1 && Some(&function.name) == second.as_ref() {
                panic!("injected panic in `{}`", function.name);
            }
            Ok(mao::EditSet::new())
        })
    }

    #[test]
    fn a_panicking_prefix_leaves_the_function_memo_unchanged() {
        let _cost_model = cost_model_lock();
        const AT: &[mao::OptionSpec] = &[mao::OptionSpec::u64("at", 0, u64::MAX)];
        mao::pass::register_extension(mao::PassDescriptor {
            name: "FNPANIC",
            description: "test pass: panic inside run_functions on function `at[N]`",
            scope: mao::PassScope::Function,
            isas: &IsaId::ALL,
            options: AT,
            run: panics_on_second_function,
        });
        let engine = engine();
        let asm =
            format!("{INPUT}\t.type\tg, @function\ng:\n\taddl $1, %eax\n\taddl $2, %eax\n\tret\n");
        let good = "REDTEST:FNPANIC:ADDADD";
        let oneshot = |passes: &str| {
            let mut unit = MaoUnit::parse(&asm).unwrap();
            let invs = parse_invocations(passes).unwrap();
            mao::pass::run_pipeline(&mut unit, &invs, None).unwrap();
            unit.emit()
        };
        // Seen twice, so both functions are stored.
        for _ in 0..2 {
            assert!(matches!(
                engine.handle(optimize_uncached(&asm, good)),
                Response::Optimized { .. }
            ));
        }
        let primed = engine.snapshot().function_memo;
        assert_eq!(primed.admissions, 2, "{primed:?}");

        // The same prefix, except that it panics on `g`: twice, so a
        // first-sighting record would have turned into a stored value.
        for _ in 0..2 {
            match engine.handle(optimize_uncached(&asm, "REDTEST:FNPANIC=at[1]:ADDADD")) {
                Response::Error { kind, message } => {
                    assert_eq!(kind, ErrorKind::Panic);
                    assert!(message.contains("injected panic in `g`"), "{message}");
                }
                other => panic!("expected a panic error, got {other:?}"),
            }
        }
        let after = engine.snapshot().function_memo;
        assert_eq!(
            (after.admissions, after.entries, after.bytes),
            (primed.admissions, primed.entries, primed.bytes),
            "a failed prefix must store nothing"
        );

        // The next request is answered from the memo and matches one-shot.
        let Response::Optimized { outcome, .. } = engine.handle(optimize_uncached(&asm, good))
        else {
            panic!("the memo must still serve");
        };
        assert_eq!(outcome.asm, oneshot(good));
        assert_eq!(engine.snapshot().function_memo.hits, after.hits + 2);
    }

    #[test]
    fn function_memo_counters_reach_stats_and_metrics() {
        let _cost_model = cost_model_lock();
        let engine = engine();
        let asm = format!("{INPUT}\t.type\tg, @function\ng:\n\tnop\n\tret\n");
        for _ in 0..3 {
            engine.handle(optimize_uncached(&asm, "REDTEST:ADDADD"));
        }
        let memo = engine.snapshot().function_memo;
        assert_eq!((memo.hits, memo.misses, memo.admissions), (2, 4, 2));
        let stats = engine.snapshot().to_json();
        let json = stats.get("function_memo").unwrap();
        assert_eq!(json.get("hits").unwrap().as_u64(), Some(2));
        assert!(json.get("bytes").unwrap().as_u64().unwrap() > 0);
        let text = engine.metrics_text();
        assert!(text.contains("mao_function_memo_hits_total 2"), "{text}");
        assert!(
            text.contains("mao_function_memo_admissions_total 2"),
            "{text}"
        );
        assert!(text.contains("mao_function_memo_bytes "), "{text}");
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn optimize_uncached(asm: &str, passes: &str) -> Request {
        Request::Optimize(OptimizeRequest {
            asm: asm.into(),
            passes: passes.into(),
            jobs: None,
            timeout_ms: None,
            use_cache: false,
            isa: mao::isa::IsaId::X86_64,
        })
    }

    #[test]
    fn protocol_documents_nest_inside_the_parser_limit() {
        use crate::json::{Json, MAX_DEPTH};

        fn depth(v: &Json) -> usize {
            match v {
                Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let dir = tempdir("depth");
        let engine = Engine::build(EngineConfig {
            shards: 2,
            cache_dir: Some(dir.join("results")),
            snapshot_dir: Some(dir.join("snapshots")),
            ..EngineConfig::default()
        })
        .unwrap();
        let optimized = engine.handle(optimize(INPUT, "REDTEST:ADDADD=trace[2]"));
        let stats = engine.handle(Request::Stats);
        let deepest = [optimized, stats]
            .iter()
            .map(|r| depth(&Json::parse(&r.to_json_text()).unwrap()))
            .max()
            .unwrap();
        // The `stats` response is the deepest document the protocol sends
        // (status > stats > shards > shard > analysis_cache).
        assert_eq!(deepest, 5);
        assert!(deepest < MAX_DEPTH);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cost_model_is_a_startup_error_not_an_install() {
        let _cost_model = cost_model_lock();
        let dir = tempdir("badmpt");
        let path = dir.join("bad.mpt");
        std::fs::write(&path, b"not a parameter table").unwrap();
        let before = mao_x86::cost::current().fingerprint();
        let err = match Engine::build(EngineConfig {
            shards: 1,
            cost_model: Some(path),
            ..EngineConfig::default()
        }) {
            Ok(_) => panic!("corrupt table must not build an engine"),
            Err(e) => e,
        };
        assert!(err.contains("cannot load cost model"), "{err}");
        // The rejected table must never have reached the provider.
        assert_eq!(mao_x86::cost::current().fingerprint(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cost_model_table_loads_installs_and_reports_provenance() {
        let _cost_model = cost_model_lock();
        let dir = tempdir("mpt");
        let path = dir.join("table.mpt");
        let mut model = mao_x86::cost::CostModel::core2();
        model.name = "engine-test-table".to_string();
        model.provenance.source = "probe/sim".to_string();
        model.provenance.seed = 17;
        model.write_mpt(&path).unwrap();
        let engine = Engine::build(EngineConfig {
            shards: 1,
            cost_model: Some(path),
            ..EngineConfig::default()
        })
        .unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.cost_model.name, "engine-test-table");
        assert_eq!(snap.cost_model.source, "probe/sim");
        assert_eq!(snap.cost_model.seed, 17);
        assert!(snap.cost_model.mnemonics > 0);
        // The info series carries the same provenance for scrapes.
        let text = engine.handle(Request::Metrics);
        let Response::Metrics(text) = text else {
            panic!("metrics response");
        };
        assert!(text.contains("mao_cost_model_info"), "{text}");
        assert!(text.contains("engine-test-table"), "{text}");
        // Put the builtin back: the provider is process-global and other
        // tests in this binary read it.
        mao_x86::cost::install_builtin();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_store_serves_second_engine_byte_identically() {
        let dir = tempdir("snap");
        let config = || EngineConfig {
            shards: 1,
            snapshot_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        let first = Engine::build(config()).unwrap();
        let Response::Optimized { outcome: a, .. } =
            first.handle(optimize_uncached(INPUT, "REDTEST"))
        else {
            panic!("first engine must optimize");
        };
        let stats = first.snapshot().frontend;
        assert_eq!(stats.snapshot_hits, 0);
        assert_eq!(stats.snapshot_misses, 1);
        assert!(stats.snapshot_entries >= 1, "miss backfills the store");
        drop(first);

        // A fresh engine over the same directory front-loads the parsed IR
        // from the snapshot and must still emit byte-identical output.
        let second = Engine::build(config()).unwrap();
        let Response::Optimized { outcome: b, .. } =
            second.handle(optimize_uncached(INPUT, "REDTEST"))
        else {
            panic!("second engine must optimize");
        };
        let stats = second.snapshot().frontend;
        assert_eq!(stats.snapshot_hits, 1, "snapshot tier must serve the parse");
        assert_eq!(stats.snapshot_misses, 0);
        assert_eq!(a.asm, b.asm, "snapshot path must be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
