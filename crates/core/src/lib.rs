//! MAO — an extensible micro-architectural optimizer (CGO 2011), in Rust.
//!
//! This crate is the paper's primary contribution: an assembly-to-assembly
//! optimizer. It parses compiler-emitted x86-64 assembly into a thin IR
//! (via `mao-asm`/`mao-x86`), runs named optimization passes over it, and
//! re-emits textual assembly.
//!
//! # Architecture
//!
//! * [`mod@unit`] — the "one long list" IR with section/function views.
//! * [`mod@relax`] — repeated relaxation: the address/size fixed point.
//! * [`mod@cfg`] — per-function CFGs with jump-table resolution.
//! * [`dataflow`] — liveness and reaching definitions over registers/flags.
//! * [`loops`] — Havlak's loop structure graph.
//! * [`pass`] — pass descriptors and their registry, option parsing and
//!   checking (`--mao=PASS=opt[val]:...`), tracing.
//! * [`passes`] — the §III optimization passes.
//! * [`profile`] — PMU-sample and reuse-distance annotations.
//! * [`edgeprof`] — edge profiles from hardware samples (the paper's
//!   stated future work, after Chen et al.).
//! * [`store`] — the content-addressed artifact store under every
//!   persistent cache tier.
//!
//! # Example
//!
//! ```
//! use mao::{MaoUnit, pass};
//!
//! let mut unit = MaoUnit::parse(
//!     ".type f, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L\n.L:\n\tret\n",
//! ).unwrap();
//! let invs = pass::parse_invocations("REDTEST").unwrap();
//! let report = pass::run_pipeline(&mut unit, &invs, None).unwrap();
//! assert_eq!(report.total_transformations(), 1);
//! assert!(!unit.emit().contains("testl"));
//! ```

pub mod analysis_cache;
pub mod cfg;
pub mod dataflow;
pub mod edgeprof;
pub mod function_memo;
pub mod isa;
pub mod loops;
pub mod pass;
pub mod passes;
pub mod profile;
pub mod relax;
pub mod store;
pub mod unit;

/// The telemetry crate (spans, metrics, Prometheus/Chrome-trace export),
/// re-exported so downstream crates need no separate dependency.
pub use mao_obs as obs;
pub use mao_obs::{Obs, TraceEvent};

pub use analysis_cache::{AnalysisCache, CacheStats, FunctionAnalyses};
pub use function_memo::{FunctionMemo, FunctionMemoStats};
pub use pass::{
    parse_invocations, run_functions, run_pipeline, run_pipeline_observed, run_pipeline_shared,
    run_pipeline_with, FnCtx, OptionKind, OptionSpec, PassContext, PassDescriptor, PassError,
    PassScope, PassStats, PipelineConfig, PipelineReport,
};
pub use profile::{Profile, Sample, Site};
pub use relax::{
    register_relax_totals, relax, relax_totals, BranchForm, Layout, LayoutCache, LayoutCacheStats,
    RelaxError, RelaxMetrics, RelaxTotals,
};
pub use store::{ArtifactStore, StoreConfig, StoreStats};
pub use unit::{EditSet, EntryId, Function, MaoUnit, Section};
