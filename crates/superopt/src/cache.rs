//! The persistent learned-rewrite cache.
//!
//! Discovered rewrites are expensive (hundreds of simulator runs per
//! window) but reusable forever: a rewrite is keyed by the canonicalized
//! window hash, so every function — in this run, a warm rerun, or another
//! maod shard sharing the directory — that contains a register-renamed
//! copy of the same window applies it at pattern-pass speed. Negative
//! results are cached too ("searched, nothing cheaper"), which is what
//! makes warm runs skip the search entirely.
//!
//! On disk, each result is an `.msr` artifact in an unbounded
//! [`ArtifactStore`] (DESIGN.md, "On-disk artifacts"): damaged or stale
//! files are evicted, never served. Rewrites are stored as canonical AT&T
//! text and reparsed on load — and every cache hit is still re-verified
//! against the window before being applied, so a corrupted-but-well-formed
//! entry can degrade performance, never correctness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use mao::isa::container::{self, ContainerError, Kind};
use mao::isa::IsaId;
use mao::{ArtifactStore, MaoUnit, StoreConfig};
use mao_x86::Instruction;

/// What the cache knows about one canonical window.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedResult {
    /// A verified, strictly cheaper replacement (canonical register
    /// space).
    Rewrite(Vec<Instruction>),
    /// The search ran to completion and found nothing cheaper.
    NoImprovement,
}

/// Cumulative counters for one cache instance.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Lookups answered (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Corrupt or stale disk entries evicted instead of served.
    pub corrupt: u64,
}

/// Two-tier rewrite store: an in-memory map always, a shared directory
/// when configured.
pub struct RewriteCache {
    disk: Option<ArtifactStore>,
    mem: Mutex<HashMap<u128, CachedResult>>,
    stats: Mutex<CacheStats>,
}

impl RewriteCache {
    /// In-memory only (the default for one-shot pipeline runs).
    pub fn in_memory() -> RewriteCache {
        RewriteCache {
            disk: None,
            mem: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Backed by `dir` (created if missing); entries persist across runs
    /// and may be shared between processes.
    pub fn persistent(dir: impl Into<PathBuf>) -> std::io::Result<RewriteCache> {
        Ok(RewriteCache {
            disk: Some(ArtifactStore::open(StoreConfig::new(dir), Kind::Rewrite)?),
            ..RewriteCache::in_memory()
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            corrupt: self.disk.as_ref().map_or(0, |d| d.stats().corrupt),
            ..*self.stats.lock().unwrap()
        }
    }

    /// Number of entries reachable from memory (loaded or stored this
    /// run).
    pub fn resident(&self) -> usize {
        self.mem.lock().unwrap().len()
    }

    /// Look up a canonical window key.
    pub fn load(&self, key: u128) -> Option<CachedResult> {
        let mut hit = self.mem.lock().unwrap().get(&key).cloned();
        if hit.is_none() {
            hit = self
                .disk
                .as_ref()
                .and_then(|d| d.get_with(key, |bytes| decode_entry(bytes, key).ok()));
            if let Some(result) = &hit {
                self.mem.lock().unwrap().insert(key, result.clone());
            }
        }
        let mut stats = self.stats.lock().unwrap();
        match hit {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        hit
    }

    /// Record a search result.
    pub fn store(&self, key: u128, result: &CachedResult) {
        self.mem.lock().unwrap().insert(key, result.clone());
        if let Some(disk) = &self.disk {
            disk.put(key, &encode_entry(key, result));
        }
    }
}

/// Serialize one result. Body: a kind byte, then for a rewrite the
/// length-prefixed canonical AT&T text. Superoptimization is x86-only, so
/// every entry is stamped x86-64.
pub fn encode_entry(key: u128, result: &CachedResult) -> Vec<u8> {
    container::seal(
        Kind::Rewrite,
        Some(IsaId::X86_64),
        key,
        64,
        |body| match result {
            CachedResult::NoImprovement => body.push(0),
            CachedResult::Rewrite(insns) => {
                let mut text = String::new();
                for insn in insns {
                    let _ = writeln!(text, "\t{insn}");
                }
                body.push(1);
                body.extend_from_slice(&(text.len() as u64).to_le_bytes());
                body.extend_from_slice(text.as_bytes());
            }
        },
    )
}

/// Decode and validate one entry file.
pub fn decode_entry(bytes: &[u8], expected_key: u128) -> Result<CachedResult, ContainerError> {
    let body = container::open(bytes, Kind::Rewrite, Some(IsaId::X86_64), expected_key)?;
    match body.split_first() {
        Some((0, [])) => Ok(CachedResult::NoImprovement),
        Some((1, rest)) => {
            let (len, text) = rest
                .split_first_chunk::<8>()
                .ok_or(ContainerError::Body("truncated rewrite"))?;
            if u64::from_le_bytes(*len) != text.len() as u64 {
                return Err(ContainerError::Body("rewrite text length"));
            }
            let text = std::str::from_utf8(text)
                .map_err(|_| ContainerError::Body("non-utf8 rewrite text"))?;
            let unit =
                MaoUnit::parse(text).map_err(|_| ContainerError::Body("unparseable rewrite"))?;
            Ok(CachedResult::Rewrite(
                unit.entries()
                    .iter()
                    .filter_map(|e| e.insn().cloned())
                    .collect(),
            ))
        }
        _ => Err(ContainerError::Body("unknown rewrite entry kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insns(lines: &str) -> Vec<Instruction> {
        let text: String = lines.lines().map(|l| format!("\t{}\n", l.trim())).collect();
        let unit = MaoUnit::parse(&text).unwrap();
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("mao-superopt-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memory_roundtrip() {
        let c = RewriteCache::in_memory();
        assert_eq!(c.load(7), None);
        c.store(7, &CachedResult::Rewrite(insns("movq %rax, %rcx")));
        assert_eq!(
            c.load(7),
            Some(CachedResult::Rewrite(insns("movq %rax, %rcx")))
        );
        c.store(9, &CachedResult::NoImprovement);
        assert_eq!(c.load(9), Some(CachedResult::NoImprovement));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn disk_roundtrip_across_instances() {
        let dir = tmpdir("roundtrip");
        let key = 0xdead_beef_u128;
        {
            let c = RewriteCache::persistent(&dir).unwrap();
            c.store(key, &CachedResult::Rewrite(insns("leaq 4(%rax), %rcx")));
        }
        let c2 = RewriteCache::persistent(&dir).unwrap();
        assert_eq!(
            c2.load(key),
            Some(CachedResult::Rewrite(insns("leaq 4(%rax), %rcx")))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crafted files whose lengths sit at the integer limits are counted
    /// corrupt and missed, never a panic: a frame declaring a
    /// `u64::MAX`-byte body, and a correctly checksummed body whose text
    /// length is near `usize::MAX`. Both shapes are tried in the
    /// pre-container `MAOSR` frame and in the container.
    #[test]
    fn crafted_lengths_are_corrupt_not_a_panic() {
        let dir = tmpdir("crafted");
        let legacy = |key: u128, body_len: u64, body: &[u8]| {
            let mut out = b"MAOSR\0\0\x01".to_vec();
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&body_len.to_le_bytes());
            out.extend_from_slice(body);
            out.extend_from_slice(&mao_x86::fnv::fnv1a64(body).to_le_bytes());
            out
        };
        let huge_text = [&[1u8][..], &(u64::MAX - 3).to_le_bytes(), b"x"].concat();
        let mut huge_frame = encode_entry(3, &CachedResult::NoImprovement);
        huge_frame[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        let files = [
            legacy(1, u64::MAX, &[0]),
            legacy(2, huge_text.len() as u64, &huge_text),
            huge_frame,
            container::seal(Kind::Rewrite, Some(IsaId::X86_64), 4, 0, |body| {
                body.extend_from_slice(&huge_text)
            }),
        ];
        let c = RewriteCache::persistent(&dir).unwrap();
        for (key, bytes) in (1u128..).zip(&files) {
            std::fs::write(dir.join(format!("{key:032x}.msr")), bytes).unwrap();
            assert_eq!(c.load(key), None, "file {key} served");
        }
        let stats = c.stats();
        assert_eq!((stats.misses, stats.corrupt), (4, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
