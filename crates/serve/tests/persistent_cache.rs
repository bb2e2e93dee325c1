//! Integration tests of the persistent result-cache tier through the full
//! engine: a restart over the same cache directory begins warm and serves
//! byte-identical results from disk, a whole round of distinct requests
//! misses cold, hits memory warm and hits disk after a restart, corrupted
//! entries are evicted instead of served, and two live instances can share
//! one directory.

use std::sync::atomic::{AtomicU32, Ordering};

use mao_serve::engine::{Engine, EngineConfig};
use mao_serve::protocol::{CacheOutcome, OptimizeRequest, Request, Response};

const INPUT: &str = "\t.type\tf, @function\nf:\n\tsubl $16, %r15d\n\ttestl %r15d, %r15d\n\tjne .L1\n\taddl $3, %eax\n\taddl $4, %eax\n.L1:\n\tret\n";
const PASSES: &str = "REDTEST:ADDADD:DCE";

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

fn cache_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mao-pcache-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_on(dir: &std::path::Path) -> Engine {
    sharded_engine_on(dir, 1)
}

fn sharded_engine_on(dir: &std::path::Path, shards: usize) -> Engine {
    Engine::new(EngineConfig {
        shards,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    })
}

fn optimize(asm: &str) -> Request {
    Request::Optimize(OptimizeRequest {
        asm: asm.to_string(),
        passes: PASSES.to_string(),
        jobs: None,
        timeout_ms: None,
        use_cache: true,
        isa: mao::isa::IsaId::X86_64,
    })
}

fn expect_optimized(response: Response) -> (mao_serve::OptimizeOutcome, CacheOutcome) {
    match response {
        Response::Optimized { outcome, cache, .. } => (outcome, cache),
        other => panic!("expected optimized response, got {other:?}"),
    }
}

/// The single `.mc` entry file a one-request engine leaves behind.
fn sole_entry(dir: &std::path::Path) -> std::path::PathBuf {
    let entries: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "mc"))
        .collect();
    assert_eq!(
        entries.len(),
        1,
        "expected one cache entry, saw {entries:?}"
    );
    entries[0].clone()
}

#[test]
fn restart_begins_warm_and_serves_byte_identical_results() {
    let dir = cache_dir();

    // First life: compute and persist.
    let first = engine_on(&dir);
    let (cold, outcome) = expect_optimized(first.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::Miss);
    first.join_workers();
    drop(first);
    assert!(sole_entry(&dir).exists(), "entry persisted across shutdown");

    // Second life over the same directory: the very first request is a
    // disk hit, byte-identical, with no re-optimization trace.
    let second = engine_on(&dir);
    let (warm, outcome) = expect_optimized(second.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::DiskHit);
    assert_eq!(
        warm.asm, cold.asm,
        "disk tier must round-trip bytes exactly"
    );
    assert_eq!(warm.passes, cold.passes);
    assert!(warm.trace.is_empty(), "disk hits must not carry a trace");

    // The hit promoted the entry to memory: the next lookup stays there.
    let (_, outcome) = expect_optimized(second.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::Hit);

    let snap = second.snapshot();
    let disk = snap.result_cache.disk.expect("disk tier is configured");
    assert_eq!((disk.hits, disk.misses), (1, 0));
    assert_eq!(
        snap.result_cache.hits, 1,
        "memory tier saw the promoted hit"
    );
    second.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_tier_answers_a_whole_round_across_shards() {
    let dir = cache_dir();
    // Distinct inputs (a comment changes the key, not the work), spread
    // over two shards.
    let inputs: Vec<String> = (0..8).map(|i| format!("# request {i}\n{INPUT}")).collect();
    let round = |engine: &Engine| -> (Vec<String>, Vec<CacheOutcome>) {
        inputs
            .iter()
            .map(|asm| {
                let (outcome, cache) = expect_optimized(engine.handle(optimize(asm)));
                (outcome.asm, cache)
            })
            .unzip()
    };
    let n = inputs.len();

    let first = sharded_engine_on(&dir, 2);
    let (cold, outcomes) = round(&first);
    assert_eq!(outcomes, vec![CacheOutcome::Miss; n]);
    let (warm, outcomes) = round(&first);
    assert_eq!(outcomes, vec![CacheOutcome::Hit; n]);
    assert_eq!(warm, cold);
    let stats = first.snapshot().result_cache;
    assert_eq!((stats.misses, stats.hits), (n as u64, n as u64));
    first.join_workers();
    drop(first);

    // A fresh engine over the same directory: every request comes off
    // disk, byte-identical to the cold round.
    let restarted = sharded_engine_on(&dir, 2);
    let (restart, outcomes) = round(&restarted);
    assert_eq!(outcomes, vec![CacheOutcome::DiskHit; n]);
    assert_eq!(restart, cold, "disk tier must round-trip bytes exactly");
    let disk = restarted
        .snapshot()
        .result_cache
        .disk
        .expect("disk tier is configured");
    assert_eq!(disk.hits, n as u64);
    restarted.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_is_evicted_not_served() {
    let dir = cache_dir();
    let first = engine_on(&dir);
    let (cold, _) = expect_optimized(first.handle(optimize(INPUT)));
    first.join_workers();
    drop(first);

    // Flip bytes in the middle of the entry: the checksum must catch it.
    let entry = sole_entry(&dir);
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(&entry, &bytes).unwrap();

    // The restarted engine must not serve the damaged entry: the request
    // recomputes (a miss), still yielding the correct assembly.
    let second = engine_on(&dir);
    let (recomputed, outcome) = expect_optimized(second.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_eq!(recomputed.asm, cold.asm);
    let disk = second.snapshot().result_cache.disk.unwrap();
    assert!(disk.corrupt >= 1, "corruption must be counted: {disk:?}");
    second.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_evicted_not_served() {
    let dir = cache_dir();
    let first = engine_on(&dir);
    let _ = expect_optimized(first.handle(optimize(INPUT)));
    first.join_workers();
    drop(first);

    let entry = sole_entry(&dir);
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 3]).unwrap();

    let second = engine_on(&dir);
    let (_, outcome) = expect_optimized(second.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::Miss);
    assert!(second.snapshot().result_cache.disk.unwrap().corrupt >= 1);
    second.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_live_instances_share_one_cache_directory() {
    let dir = cache_dir();
    let writer = engine_on(&dir);
    let reader = engine_on(&dir);

    let (original, outcome) = expect_optimized(writer.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::Miss);

    // The second instance never saw the request, but finds the entry the
    // first one persisted.
    let (shared, outcome) = expect_optimized(reader.handle(optimize(INPUT)));
    assert_eq!(outcome, CacheOutcome::DiskHit);
    assert_eq!(shared.asm, original.asm);

    writer.join_workers();
    reader.join_workers();
    let _ = std::fs::remove_dir_all(&dir);
}
