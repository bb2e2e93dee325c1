//! End-to-end telemetry through the service: the `metrics` request must
//! serve valid Prometheus text whose counters move with real traffic, the
//! `stats` response must carry the schema version and agree with the
//! scrape on every counter, and the Chrome-trace export must parse as the
//! JSON shape `chrome://tracing` expects.

use std::sync::{Mutex, MutexGuard};

use mao::obs::{prom, Obs, Span};
use mao_serve::engine::{Engine, EngineConfig};
use mao_serve::json::Json;
use mao_serve::protocol::{CacheOutcome, OptimizeRequest, Request, Response};
use mao_serve::STATS_SCHEMA_VERSION;

const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";

/// Relaxation totals and the symbol interner are process-wide: tests that
/// send optimize traffic hold this lock, so a test comparing two reads of
/// them sees no other test's requests in between.
static TRAFFIC: Mutex<()> = Mutex::new(());

fn traffic_lock() -> MutexGuard<'static, ()> {
    TRAFFIC.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        shards: 2,
        ..EngineConfig::default()
    })
}

fn optimize(asm: &str) -> Request {
    Request::Optimize(OptimizeRequest {
        asm: asm.into(),
        passes: "REDTEST:ADDADD".into(),
        jobs: None,
        timeout_ms: None,
        use_cache: true,
        isa: mao::isa::IsaId::X86_64,
    })
}

fn metrics_text(engine: &Engine) -> String {
    match engine.handle(Request::Metrics) {
        Response::Metrics(text) => text,
        other => panic!("expected metrics response, got {other:?}"),
    }
}

/// Extract the unlabeled sample value of `family` from exposition text.
fn sample(text: &str, family: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(&format!("{family} ")))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_are_valid_prometheus_and_track_cache_traffic() {
    let _traffic = traffic_lock();
    let engine = engine();
    let cold = metrics_text(&engine);
    prom::validate(&cold).expect("cold scrape validates");
    assert_eq!(sample(&cold, "mao_result_cache_hits_total"), Some(0));

    let _ = engine.handle(optimize(INPUT)); // miss
    let _ = engine.handle(optimize(INPUT)); // hit
    let warm = metrics_text(&engine);
    prom::validate(&warm).expect("warm scrape validates");
    assert_eq!(sample(&warm, "mao_result_cache_hits_total"), Some(1));
    assert_eq!(sample(&warm, "mao_result_cache_misses_total"), Some(1));
    assert_eq!(sample(&warm, "mao_functions_processed_total"), Some(2));
    assert!(
        warm.contains("# TYPE mao_request_service_us histogram"),
        "{warm}"
    );
    assert!(
        warm.contains("mao_pass_invocations_total{pass=\"REDTEST\"} 1"),
        "{warm}"
    );
    assert!(warm.contains("mao_uptime_seconds"), "{warm}");
}

/// Walk `path` down the `stats` object to an integer member.
fn member(stats: &Json, path: &[&str]) -> u64 {
    let mut v = stats;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("stats has no {path:?}"));
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not an integer"))
}

/// Assert that every `stats` counter with a Prometheus sample equals it,
/// that the `{shard="N"}` series sum to the cross-shard aggregate, and
/// that `frontend.parse_us` is the `frontend`/`parse` span row. Returns
/// the `stats` object.
fn assert_views_agree(engine: &Engine) -> Json {
    let stats = match engine.handle(Request::Stats) {
        Response::Stats(stats) => stats,
        other => panic!("expected stats response, got {other:?}"),
    };
    let scrape = metrics_text(engine);
    prom::validate(&scrape).expect("scrape validates");
    let scraped = |series: &str| {
        sample(&scrape, series).unwrap_or_else(|| panic!("scrape has no `{series}`\n{scrape}"))
    };
    let agree = |path: &[&str], series: &str| {
        assert_eq!(
            member(&stats, path),
            scraped(series),
            "{path:?} vs `{series}`"
        );
    };

    // `capacity` and the `hit_rate`s are configuration and ratios, with no
    // sample of their own.
    for m in ["hits", "misses", "evictions", "insertions"] {
        agree(&["result_cache", m], &format!("mao_result_cache_{m}_total"));
    }
    agree(&["result_cache", "len"], "mao_result_cache_len");
    for m in ["hits", "misses", "insertions", "evictions", "corrupt"] {
        agree(
            &["result_cache", "disk", m],
            &format!("mao_result_cache_disk_{m}_total"),
        );
    }
    for m in ["bytes", "entries"] {
        agree(
            &["result_cache", "disk", m],
            &format!("mao_result_cache_disk_{m}"),
        );
    }
    for m in ["snapshot_hits", "snapshot_misses"] {
        agree(&["frontend", m], &format!("mao_frontend_{m}_total"));
    }
    for m in ["bytes", "entries"] {
        agree(
            &["frontend", &format!("snapshot_{m}")],
            &format!("mao_frontend_snapshot_store_{m}"),
        );
    }
    for m in ["symbols", "bytes"] {
        agree(
            &["frontend", &format!("interner_{m}")],
            &format!("mao_frontend_interner_{m}"),
        );
    }
    for m in ["layouts", "patches", "iterations", "rechecks", "fragments"] {
        agree(&["relax", m], &format!("mao_relax_{m}_total"));
    }
    for m in ["hits", "misses", "admissions", "evictions"] {
        agree(
            &["function_memo", m],
            &format!("mao_function_memo_{m}_total"),
        );
    }
    agree(&["function_memo", "bytes"], "mao_function_memo_bytes");

    // Per shard, then the aggregate as the sum of the shard series.
    let shards = stats.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), engine.shards());
    let sum = |family: &str| -> u64 {
        (0..shards.len())
            .map(|n| scraped(&format!("{family}{{shard=\"{n}\"}}")))
            .sum()
    };
    for (n, shard) in shards.iter().enumerate() {
        assert_eq!(
            member(shard, &["requests"]),
            scraped(&format!("mao_shard_requests_total{{shard=\"{n}\"}}"))
        );
        for m in ["hits", "misses"] {
            assert_eq!(
                member(shard, &["analysis_cache", m]),
                scraped(&format!("mao_analysis_cache_{m}_total{{shard=\"{n}\"}}")),
                "shard {n} analysis_cache.{m}"
            );
        }
    }
    for m in ["hits", "misses"] {
        assert_eq!(
            member(&stats, &["analysis_cache", m]),
            sum(&format!("mao_analysis_cache_{m}_total")),
            "analysis_cache.{m}"
        );
    }
    // Schema 11: nothing is evicted from a shard, so nothing is counted.
    assert!(stats
        .get("analysis_cache")
        .unwrap()
        .get("evictions")
        .is_none());
    assert!(!scrape.contains("mao_analysis_cache_evictions_total"));
    for (m, family) in [
        ("hits", "mao_layout_cache_hits_total"),
        ("misses", "mao_layout_cache_misses_total"),
    ] {
        assert_eq!(
            member(&stats, &["layout_cache", m]),
            sum(family),
            "layout_cache.{m}"
        );
    }

    let parse_row = stats
        .get("spans")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|t| {
            t.get("cat").unwrap().as_str() == Some("frontend")
                && t.get("name").unwrap().as_str() == Some("parse")
        })
        .map_or(0, |t| member(t, &["total_us"]));
    assert_eq!(member(&stats, &["frontend", "parse_us"]), parse_row);
    stats
}

#[test]
fn stats_and_scrape_read_the_same_counters() {
    let _traffic = traffic_lock();
    let dir = std::env::temp_dir().join(format!("mao-telemetry-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("results");
    // Each life opens the result tier over a damaged index: it is counted
    // corrupt at open, before the registry exists.
    let open = || {
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("store.idx"), b"not an index").unwrap();
        Engine::new(EngineConfig {
            shards: 2,
            cache_dir: Some(cache.clone()),
            snapshot_dir: Some(dir.join("snapshots")),
            ..EngineConfig::default()
        })
    };
    let request = || {
        Request::Optimize(OptimizeRequest {
            asm: INPUT.into(),
            passes: "REDTEST:ADDADD:BRALIGN".into(),
            jobs: None,
            timeout_ms: None,
            use_cache: true,
            isa: mao::isa::IsaId::X86_64,
        })
    };
    let cache_outcome = |engine: &Engine| match engine.handle(request()) {
        Response::Optimized { cache, .. } => cache,
        other => panic!("expected optimized response, got {other:?}"),
    };

    let first = open();
    assert_eq!(cache_outcome(&first), CacheOutcome::Miss);
    assert_eq!(cache_outcome(&first), CacheOutcome::Hit);
    let stats = assert_views_agree(&first);
    assert_eq!(member(&stats, &["result_cache", "disk", "corrupt"]), 1);
    assert_eq!(member(&stats, &["result_cache", "hits"]), 1);
    assert_eq!(member(&stats, &["frontend", "snapshot_misses"]), 1);
    assert!(member(&stats, &["layout_cache", "misses"]) >= 1);
    assert!(
        stats
            .get("spans")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|t| t.get("cat").unwrap().as_str() == Some("frontend")
                && t.get("name").unwrap().as_str() == Some("parse")),
        "the miss parsed its text"
    );
    first.join_workers();
    drop(first);

    let second = open();
    assert_eq!(cache_outcome(&second), CacheOutcome::DiskHit);
    let stats = assert_views_agree(&second);
    assert_eq!(member(&stats, &["result_cache", "disk", "corrupt"]), 1);
    assert_eq!(member(&stats, &["result_cache", "disk", "hits"]), 1);
    second.join_workers();
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_response_json_carries_schema_version() {
    let engine = engine();
    let json = engine.handle(Request::Metrics).to_json();
    assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        json.get("schema_version").unwrap().as_u64(),
        Some(STATS_SCHEMA_VERSION)
    );
    // The payload round-trips through the JSON layer intact.
    let text = json.get("metrics").unwrap().as_str().unwrap();
    prom::validate(text).expect("payload survives JSON transport");
}

#[test]
fn stats_snapshot_carries_schema_version_and_spans() {
    let _traffic = traffic_lock();
    let engine = engine();
    let _ = engine.handle(optimize(INPUT));
    let snap = engine.snapshot();
    assert_eq!(snap.schema_version, STATS_SCHEMA_VERSION);
    assert_eq!(snap.requests.ok, 1);
    assert!(
        snap.span_totals
            .iter()
            .any(|t| t.cat == "request" && t.count == 1),
        "{:?}",
        snap.span_totals
    );
    assert!(snap.span_totals.iter().any(|t| t.cat == "pass"));
    // Rendered and typed views agree.
    let json = snap.to_json();
    assert_eq!(
        json.get("requests").unwrap().get("ok").unwrap().as_u64(),
        Some(1)
    );
}

#[test]
fn chrome_trace_export_is_wellformed_json() {
    let obs = Obs::recording();
    {
        let mut outer = Span::enter(&obs.recorder, "pass", "DCE");
        outer.counter("transformations", 2);
        let _inner = Span::enter(&obs.recorder, "function", "f");
    }
    let trace = Json::parse(&obs.recorder.chrome_trace_json()).expect("chrome trace parses");
    let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), 2);
    for event in events {
        assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(event.get(key).is_some(), "event missing `{key}`");
        }
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("DCE")
            && e.get("args").unwrap().get("transformations").is_some()));
}
