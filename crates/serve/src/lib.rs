//! `maod` — MAO as a persistent optimization service.
//!
//! The paper positions MAO as an assembly→assembly filter inside build
//! pipelines (§2); the one-shot `mao` binary re-parses and re-analyzes
//! every unit from scratch on every invocation. This crate keeps the
//! optimizer resident: a daemon (`mao serve`) accepts optimization
//! requests over a Unix-domain or TCP socket using a length-prefixed JSON
//! protocol, dispatches them to a worker pool built on the parallel
//! function-level driver, and layers on a content-addressed result cache,
//! per-request isolation (panics, timeouts, size limits), and a `stats`
//! endpoint. `mao client` and `mao batch` are the matching front ends;
//! see DESIGN.md §"Service architecture" for the protocol.
//!
//! Module map:
//!
//! * [`json`] — minimal std-only JSON value/parser/writer (offline build,
//!   no serde).
//! * [`protocol`] — request/response shapes and the frame codec.
//! * [`result_cache`] — content-addressed tiered cache of whole-request
//!   results (memory LRU over an optional persistent tier).
//! * [`disk_cache`] — the persistent result tier: the `.mc` body codec
//!   over a [`mao::ArtifactStore`].
//! * [`snapshot_store`] — the front-end snapshot tier: binary IR snapshots
//!   (`mao_asm::snapshot`) keyed by input content hash, `.msnap` files
//!   byte-identical to `mao --emit-snapshot` output.
//! * [`engine`] — transport-independent request handling: caching,
//!   admission control, sharded dispatch, `catch_unwind` isolation,
//!   timeouts, stats.
//! * [`pool`] — the sharded worker pool; each shard owns its analysis
//!   cache.
//! * [`reactor`] — the event-driven connection layer: `poll(2)` readiness,
//!   per-connection frame buffers, pipelining, idle timeouts (unix only).
//! * [`server`] — listener setup, address parsing, SIGTERM drain.
//! * [`client`] — framing client used by `mao client`.
//! * [`batch`] — newline-delimited JSON over stdin/stdout.
//! * [`loadgen`] — replay load generator driving mixed hot/cold/malformed
//!   traffic with p50/p99 gates from the service histograms.
//! * [`stats`] — cumulative service counters and the consolidated
//!   [`StatsSnapshot`]; counters live in the engine's `mao_obs::Metrics`
//!   registry so the `metrics` request (Prometheus text) and the `stats`
//!   request (JSON) read the same cells.

pub mod batch;
pub mod client;
pub mod disk_cache;
pub mod engine;
pub mod json;
pub mod loadgen;
pub mod pool;
pub mod protocol;
#[cfg(unix)]
pub mod reactor;
pub mod result_cache;
pub mod server;
pub mod snapshot_store;
pub mod stats;

pub use batch::run_batch;
pub use client::Client;
pub use disk_cache::{DiskCache, DiskCacheConfig};
pub use engine::{Engine, EngineConfig};
pub use json::Json;
pub use mao::{ArtifactStore, StoreConfig, StoreStats};
pub use protocol::{
    CacheOutcome, ErrorKind, OptimizeOutcome, OptimizeRequest, Request, Response, Timings,
};
pub use result_cache::{request_key, CacheTier, RequestKey, ResultCache, ResultCacheStats};
pub use server::{connect, serve, Listen};
pub use snapshot_store::SnapshotStore;
pub use stats::{
    AdmissionStats, CostModelStats, RequestCounters, ServerStats, ShardStats, StatsSnapshot,
    SuperoptStats, STATS_SCHEMA_VERSION,
};
