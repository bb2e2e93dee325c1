//! The persistent result tier: whole optimize outcomes as `.mc`
//! artifacts in an [`ArtifactStore`], so a daemon restart begins warm and
//! `maod` instances can share results through one directory. This module
//! owns only the body codec; the frame, validation and file management are
//! shared (DESIGN.md, "On-disk artifacts").
//!
//! Bump [`Kind::Result`]'s version whenever the serialized
//! [`OptimizeOutcome`] shape *or the meaning of a cached result* changes
//! (new pass semantics, changed emission). Pass configuration needs no
//! bump: the pass string is part of the request key, which also covers
//! the ISA, so result files carry ISA tag 0.

use std::io;
use std::path::Path;

use mao::isa::container::{self, ContainerError, Kind};
use mao::{ArtifactStore, StoreConfig, StoreStats};

use crate::protocol::OptimizeOutcome;
use crate::result_cache::RequestKey;

/// The result tier is configured like any store.
pub type DiskCacheConfig = StoreConfig;

/// The persistent result tier: the `.mc` codec over an [`ArtifactStore`].
pub struct DiskCache {
    pub(crate) store: ArtifactStore,
}

impl DiskCache {
    /// Open (creating if needed) the cache directory and index any entries
    /// already present — the restart-warm path and the shared-directory
    /// path both start here.
    pub fn open(config: StoreConfig) -> io::Result<DiskCache> {
        Ok(DiskCache {
            store: ArtifactStore::open(config, Kind::Result)?,
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Look up an entry, decoding and verifying it. Invalid entries are
    /// deleted and reported as misses; a hit refreshes the LRU position.
    pub fn get(&self, key: RequestKey) -> Option<OptimizeOutcome> {
        self.store
            .get_with(key.raw(), |bytes| decode_entry(bytes, key).ok())
    }

    /// Write an entry, then evict entries past the byte budget. Write
    /// errors are swallowed — the disk tier is an accelerator, not a
    /// source of truth.
    pub fn put(&self, key: RequestKey, outcome: &OptimizeOutcome) {
        self.store.put(key.raw(), &encode_entry(key, outcome));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

// ---------------------------------------------------------------------------
// Body: a length-prefixed dump of the OptimizeOutcome fields, integers
// little-endian.
// ---------------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serialize one entry to its on-disk bytes.
pub fn encode_entry(key: RequestKey, outcome: &OptimizeOutcome) -> Vec<u8> {
    let capacity = outcome.asm.len() + 256;
    container::seal(Kind::Result, None, key.raw(), capacity, |body| {
        put_bytes(body, outcome.asm.as_bytes());
        body.extend_from_slice(&(outcome.passes.len() as u32).to_le_bytes());
        for (name, transformations, matches) in &outcome.passes {
            put_bytes(body, name.as_bytes());
            body.extend_from_slice(&(*transformations as u64).to_le_bytes());
            body.extend_from_slice(&(*matches as u64).to_le_bytes());
        }
        body.extend_from_slice(&(outcome.timings_us.len() as u32).to_le_bytes());
        for (name, us) in &outcome.timings_us {
            put_bytes(body, name.as_bytes());
            body.extend_from_slice(&us.to_le_bytes());
        }
        body.extend_from_slice(&(outcome.trace.len() as u32).to_le_bytes());
        for line in &outcome.trace {
            put_bytes(body, line.as_bytes());
        }
    })
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: u64) -> Result<&'a [u8], ContainerError> {
        if n > self.0.len() as u64 {
            return Err(ContainerError::Body("truncated result body"));
        }
        let (head, tail) = self.0.split_at(n as usize);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, ContainerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ContainerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ContainerError> {
        let len = self.u64()?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ContainerError::Body("result string not UTF-8"))
    }
}

/// Decode and verify one entry file's bytes for `expected` key.
pub fn decode_entry(bytes: &[u8], expected: RequestKey) -> Result<OptimizeOutcome, ContainerError> {
    let mut c = Cursor(container::open(bytes, Kind::Result, None, expected.raw())?);
    let asm = c.string()?;
    let mut passes = Vec::new();
    for _ in 0..c.u32()? {
        let name = c.string()?;
        let transformations = c.u64()? as usize;
        let matches = c.u64()? as usize;
        passes.push((name, transformations, matches));
    }
    let mut timings_us = Vec::new();
    for _ in 0..c.u32()? {
        let name = c.string()?;
        let us = c.u64()?;
        timings_us.push((name, us));
    }
    let mut trace = Vec::new();
    for _ in 0..c.u32()? {
        trace.push(c.string()?);
    }
    if !c.0.is_empty() {
        return Err(ContainerError::Body("trailing result bytes"));
    }
    Ok(OptimizeOutcome {
        asm,
        passes,
        timings_us,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result_cache::request_key;
    use std::path::PathBuf;

    fn outcome(asm: &str) -> OptimizeOutcome {
        OptimizeOutcome {
            asm: asm.to_string(),
            passes: vec![("DCE".into(), 2, 3)],
            timings_us: vec![("DCE".into(), 41)],
            trace: vec!["a line".into()],
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "maod-disk-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let key = request_key("nop\n", "DCE", mao::isa::IsaId::X86_64);
        let original = outcome("nop\n");
        let bytes = encode_entry(key, &original);
        assert_eq!(decode_entry(&bytes, key).unwrap(), original);
    }

    #[test]
    fn put_get_and_restart_reindex() {
        let dir = tempdir("roundtrip");
        let key = request_key("a\n", "DCE", mao::isa::IsaId::X86_64);
        {
            let cache = DiskCache::open(StoreConfig::new(&dir)).unwrap();
            assert!(cache.get(key).is_none());
            cache.put(key, &outcome("a\n"));
            assert_eq!(cache.get(key).unwrap().asm, "a\n");
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        }
        // A fresh instance over the same directory starts warm.
        let cache = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(key).unwrap().asm, "a\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_bound_evicts_lru() {
        let dir = tempdir("evict");
        let one_entry =
            encode_entry(request_key("0", "", mao::isa::IsaId::X86_64), &outcome("0")).len() as u64;
        let cache = DiskCache::open(StoreConfig {
            max_bytes: one_entry * 2 + 1,
            ..StoreConfig::new(&dir)
        })
        .unwrap();
        let k0 = request_key("0", "", mao::isa::IsaId::X86_64);
        let k1 = request_key("1", "", mao::isa::IsaId::X86_64);
        let k2 = request_key("2", "", mao::isa::IsaId::X86_64);
        cache.put(k0, &outcome("0"));
        cache.put(k1, &outcome("1"));
        assert!(cache.get(k0).is_some()); // refresh k0; k1 becomes LRU
        cache.put(k2, &outcome("2"));
        assert!(cache.get(k1).is_none(), "LRU entry evicted");
        assert!(cache.get(k0).is_some());
        assert!(cache.get(k2).is_some());
        assert_eq!(cache.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_instances_share_a_directory() {
        let dir = tempdir("share");
        let a = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        let b = DiskCache::open(StoreConfig::new(&dir)).unwrap();
        let key = request_key("shared\n", "DCE", mao::isa::IsaId::X86_64);
        a.put(key, &outcome("shared\n"));
        // B never wrote this key but reads A's entry.
        assert_eq!(b.get(key).unwrap().asm, "shared\n");
        assert_eq!(b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
