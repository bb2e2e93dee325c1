//! The content-addressed artifact store every persistent tier shares:
//! one file per 128-bit key, segmented scan-resistant LRU eviction, and a
//! compact index file so a restart does not stat the whole directory.
//!
//! [`ArtifactStore`] holds optimize results (`.mc`), IR snapshots
//! (`.msnap`) and superoptimizer rewrites (`.msr`).
//! Every file, the index included, is a [`mao_isa::container`] artifact;
//! the kind's codec validates it on read. The store does the rest:
//!
//! * **Atomic writes** through [`container::write_atomic`], so readers
//!   never observe a torn entry and racing instances last-write-win
//!   identical content.
//! * **Evict, never serve** — [`ArtifactStore::get_with`] runs the kind's
//!   decoder over the file bytes; on any failure the entry is deleted and
//!   counted as corrupt, never returned.
//! * **Segmented LRU (SLRU) eviction** — entries start in a *probation*
//!   segment; a re-access promotes to *protected* (capped at
//!   [`PROTECTED_SHARE`] of the byte budget, demoting its own oldest
//!   members back to probation). Victims come from probation first, so a
//!   one-pass cold scan — a batch build touching thousands of keys once —
//!   churns through probation without displacing the re-referenced working
//!   set.
//! * **Index file** — `store.idx` persists `{key, bytes, stamp, segment}`
//!   rows so reopening a large store costs one small read instead of a
//!   directory walk + per-file stat. The index is an accounting cache, not
//!   a source of truth: a missing or damaged index falls back to the
//!   directory scan (mtime-seeded stamps, everything in probation; a
//!   damaged one is deleted and counted corrupt), and a key missing from
//!   the index is still served straight off its file and re-adopted on
//!   first access. It is rewritten atomically every
//!   [`INDEX_PERSIST_EVERY`] mutations and on drop.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mao_isa::container::{self, ContainerError, Kind};

use crate::obs::Counter;

/// Index file name inside the store directory.
const INDEX_NAME: &str = "store.idx";
/// Rewrite the index after this many mutations (puts/evictions/promotions
/// are cheap; the rewrite is O(entries), so batch it).
const INDEX_PERSIST_EVERY: u32 = 64;
/// Fraction of the byte budget the protected segment may hold: 4/5.
const PROTECTED_SHARE: (u64, u64) = (4, 5);

/// Construction parameters for an [`ArtifactStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the entries (created if missing).
    pub dir: PathBuf,
    /// Total byte budget across entries (0 = unbounded).
    pub max_bytes: u64,
    /// Force file + directory syncs on every write.
    pub fsync: bool,
}

impl StoreConfig {
    /// Defaults: unbounded, no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            max_bytes: 0,
            fsync: false,
        }
    }
}

/// Counters, cumulative over this instance's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from disk (validator accepted).
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries deleted to respect the byte budget.
    pub evictions: u64,
    /// Corrupt/truncated/stale entries deleted instead of served.
    pub corrupt: u64,
    /// Bytes currently resident (as indexed by this instance).
    pub bytes: u64,
    /// Entries currently resident (as indexed by this instance).
    pub entries: u64,
    /// Bytes in the protected SLRU segment.
    pub protected_bytes: u64,
    /// Configured byte budget (0 = unbounded).
    pub max_bytes: u64,
    /// Did startup recover state from the index file (vs a directory scan)?
    pub opened_from_index: bool,
}

/// One index row: an entry's size and SLRU position.
#[derive(Debug)]
pub struct IndexEntry {
    bytes: u64,
    /// Monotonic access stamp; seeded from mtime order on a scan startup.
    stamp: u64,
    /// SLRU segment: probation (false) or protected (true).
    protected: bool,
}

struct Index {
    map: HashMap<u128, IndexEntry>,
    clock: u64,
    total_bytes: u64,
    protected_bytes: u64,
    /// Mutations since the last index-file write.
    dirty: u32,
    opened_from_index: bool,
}

impl Index {
    /// Record an access (insert or refresh). New entries enter probation;
    /// `promote` moves an existing entry to the protected segment.
    fn touch(&mut self, key: u128, bytes: u64, promote: bool) {
        self.clock += 1;
        let stamp = self.clock;
        self.dirty += 1;
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.total_bytes = self.total_bytes - entry.bytes + bytes;
                if entry.protected {
                    self.protected_bytes = self.protected_bytes - entry.bytes + bytes;
                } else if promote {
                    entry.protected = true;
                    self.protected_bytes += bytes;
                }
                entry.bytes = bytes;
                entry.stamp = stamp;
            }
            None => {
                self.total_bytes += bytes;
                self.map.insert(
                    key,
                    IndexEntry {
                        bytes,
                        stamp,
                        protected: false,
                    },
                );
            }
        }
    }

    /// Keep the protected segment within its share of the budget by
    /// demoting its oldest members back to probation (no deletion — they
    /// just become eviction candidates again).
    fn rebalance(&mut self, max_bytes: u64) {
        if max_bytes == 0 {
            return;
        }
        let cap = max_bytes * PROTECTED_SHARE.0 / PROTECTED_SHARE.1;
        while self.protected_bytes > cap {
            let Some(oldest) = self
                .map
                .iter()
                .filter(|(_, e)| e.protected)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let entry = self.map.get_mut(&oldest).expect("key just found");
            entry.protected = false;
            self.protected_bytes -= entry.bytes;
            self.dirty += 1;
        }
    }

    /// Drop a key from the index (file already gone or going).
    fn forget(&mut self, key: u128) {
        if let Some(entry) = self.map.remove(&key) {
            self.total_bytes -= entry.bytes;
            if entry.protected {
                self.protected_bytes -= entry.bytes;
            }
            self.dirty += 1;
        }
    }

    /// Select and forget victims until `total_bytes <= budget`: oldest
    /// probation entries first, oldest protected entries only once
    /// probation is exhausted. The just-written `keep` key is never chosen
    /// — a single entry larger than the budget stays resident rather than
    /// thrashing.
    fn evict_plan(&mut self, budget: u64, keep: u128) -> Vec<u128> {
        let mut victims = Vec::new();
        while self.total_bytes > budget {
            let victim = self
                .map
                .iter()
                .filter(|(k, e)| **k != keep && !e.protected)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .or_else(|| {
                    self.map
                        .iter()
                        .filter(|(k, _)| **k != keep)
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(k, _)| *k)
                });
            let Some(victim) = victim else { break };
            self.forget(victim);
            victims.push(victim);
        }
        victims
    }
}

/// The store. Thread-safe; cheap operations hold a short index lock, file
/// I/O runs outside it where possible.
pub struct ArtifactStore {
    config: StoreConfig,
    kind: Kind,
    index: Mutex<Index>,
    /// Counter cells, owned from construction; [`ArtifactStore::stats`]
    /// reads them and [`ArtifactStore::attach_metrics`] registers them.
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    corrupt: Counter,
}

impl ArtifactStore {
    /// Open (creating if needed) a store of `kind` artifacts. State comes
    /// from the index file when present and valid; otherwise from a
    /// directory scan.
    pub fn open(config: StoreConfig, kind: Kind) -> io::Result<ArtifactStore> {
        std::fs::create_dir_all(&config.dir)?;
        let index_path = config.dir.join(INDEX_NAME);
        let corrupt = Counter::default();
        let index = match std::fs::read(&index_path).map(|bytes| read_index(&bytes)) {
            Ok(Ok(rows)) => {
                let mut map = HashMap::with_capacity(rows.len());
                let mut total_bytes = 0u64;
                let mut protected_bytes = 0u64;
                let mut clock = 0u64;
                for (key, entry) in rows {
                    total_bytes += entry.bytes;
                    if entry.protected {
                        protected_bytes += entry.bytes;
                    }
                    clock = clock.max(entry.stamp);
                    map.insert(key, entry);
                }
                Index {
                    map,
                    clock,
                    total_bytes,
                    protected_bytes,
                    dirty: 0,
                    opened_from_index: true,
                }
            }
            Ok(Err(_)) => {
                let _ = std::fs::remove_file(&index_path);
                corrupt.inc();
                scan_directory(&config.dir, kind)?
            }
            Err(_) => scan_directory(&config.dir, kind)?,
        };
        Ok(ArtifactStore {
            index: Mutex::new(index),
            config,
            kind,
            hits: Counter::default(),
            misses: Counter::default(),
            insertions: Counter::default(),
            evictions: Counter::default(),
            corrupt,
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Register the counter cells in `metrics` as `{prefix}_{hits,misses,
    /// insertions,evictions,corrupt}_total`, so a scrape reads the same
    /// cells as [`ArtifactStore::stats`].
    pub fn attach_metrics(&self, metrics: &crate::obs::Metrics, prefix: &str) {
        for (what, cell) in [
            ("hits", &self.hits),
            ("misses", &self.misses),
            ("insertions", &self.insertions),
            ("evictions", &self.evictions),
            ("corrupt", &self.corrupt),
        ] {
            metrics.register_counter(&format!("{prefix}_{what}_total"), &[], cell);
        }
    }

    /// File name of `key`'s entry.
    fn name_of(&self, key: u128) -> String {
        format!("{key:032x}.{}", self.kind.ext())
    }

    /// Path of `key`'s entry file.
    pub fn path_of(&self, key: u128) -> PathBuf {
        self.config.dir.join(self.name_of(key))
    }

    /// Look up an entry. `decode` receives the file bytes and returns the
    /// artifact if they decode as a sound one for `key`; on `None` the
    /// file is deleted and counted corrupt — evicted, never served. A hit
    /// refreshes (and promotes) the entry's SLRU position.
    pub fn get_with<T>(&self, key: u128, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let path = self.path_of(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Not present — or present under another instance and
                // vanished mid-read; either way a miss.
                self.misses.inc();
                self.note_mutation(|index| index.forget(key));
                return None;
            }
        };
        if let Some(value) = decode(&bytes) {
            self.note_mutation(|index| {
                index.touch(key, bytes.len() as u64, true);
                index.rebalance(self.config.max_bytes);
            });
            self.hits.inc();
            Some(value)
        } else {
            // Truncated, corrupted, stale version, or wrong key.
            let _ = std::fs::remove_file(&path);
            self.note_mutation(|index| index.forget(key));
            self.corrupt.inc();
            self.misses.inc();
            None
        }
    }

    /// Write an entry atomically, then evict past the byte budget. Write
    /// errors are swallowed — the disk tier is an accelerator, not a
    /// source of truth — but accounting stays exact for what was written.
    pub fn put(&self, key: u128, bytes: &[u8]) {
        let name = self.name_of(key);
        if container::write_atomic(&self.config.dir, &name, bytes, self.config.fsync).is_err() {
            return;
        }
        self.insertions.inc();
        let victims: Vec<u128> = {
            let mut index = self.index.lock().unwrap();
            index.touch(key, bytes.len() as u64, false);
            let victims = if self.config.max_bytes == 0 {
                Vec::new()
            } else {
                index.evict_plan(self.config.max_bytes, key)
            };
            self.maybe_persist(&mut index);
            victims
        };
        for victim in victims {
            let _ = std::fs::remove_file(self.path_of(victim));
            self.evictions.inc();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().unwrap();
        StoreStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            corrupt: self.corrupt.get(),
            bytes: index.total_bytes,
            entries: index.map.len() as u64,
            protected_bytes: index.protected_bytes,
            max_bytes: self.config.max_bytes,
            opened_from_index: index.opened_from_index,
        }
    }

    /// Write the index file now (atomically). Also runs on drop and
    /// automatically every [`INDEX_PERSIST_EVERY`] mutations.
    pub fn persist_index(&self) -> io::Result<()> {
        let mut index = self.index.lock().unwrap();
        self.write_index(&index)?;
        index.dirty = 0;
        Ok(())
    }

    /// Run `f` under the index lock and persist if the mutation budget is
    /// spent.
    fn note_mutation(&self, f: impl FnOnce(&mut Index)) {
        let mut index = self.index.lock().unwrap();
        f(&mut index);
        self.maybe_persist(&mut index);
    }

    fn maybe_persist(&self, index: &mut Index) {
        if index.dirty >= INDEX_PERSIST_EVERY && self.write_index(index).is_ok() {
            index.dirty = 0;
        }
    }

    fn write_index(&self, index: &Index) -> io::Result<()> {
        let bytes = container::seal(Kind::Index, None, 0, 8 + index.map.len() * 33, |body| {
            body.extend_from_slice(&(index.map.len() as u64).to_le_bytes());
            for (key, entry) in &index.map {
                body.extend_from_slice(&key.to_le_bytes());
                body.extend_from_slice(&entry.bytes.to_le_bytes());
                body.extend_from_slice(&entry.stamp.to_le_bytes());
                body.push(u8::from(entry.protected));
            }
        });
        container::write_atomic(&self.config.dir, INDEX_NAME, &bytes, false)
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.config.dir)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        let dirty = self.index.lock().map(|i| i.dirty > 0).unwrap_or(false);
        if dirty {
            let _ = self.persist_index();
        }
    }
}

/// Decode an index file. A damaged one makes the store fall back to a
/// directory scan — the index is never trusted over reality anyway, since
/// gets read the entry files themselves.
pub fn read_index(bytes: &[u8]) -> Result<Vec<(u128, IndexEntry)>, ContainerError> {
    let body = container::open(bytes, Kind::Index, None, 0)?;
    let (count, rows) = body
        .split_first_chunk::<8>()
        .ok_or(ContainerError::Body("index row count"))?;
    if Some(rows.len() as u64) != u64::from_le_bytes(*count).checked_mul(33) {
        return Err(ContainerError::Body("index row count"));
    }
    Ok(rows
        .chunks_exact(33)
        .map(|row| {
            let word = |at: usize| u64::from_le_bytes(row[at..at + 8].try_into().unwrap());
            (
                u128::from_le_bytes(row[..16].try_into().unwrap()),
                IndexEntry {
                    bytes: word(16),
                    stamp: word(24),
                    protected: row[32] != 0,
                },
            )
        })
        .collect())
}

/// Fallback startup: walk the directory, seed stamps from mtime order, put
/// everything in probation, and clean up abandoned tmp files.
fn scan_directory(dir: &Path, kind: Kind) -> io::Result<Index> {
    let suffix = format!(".{}", kind.ext());
    let mut entries: Vec<(u128, u64, std::time::SystemTime)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(container::TMP_PREFIX) {
            // A crashed writer's leftover; safe to delete once clearly
            // abandoned (in-progress writes are milliseconds old).
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .map(|age| age.as_secs() > 300)
                .unwrap_or(false);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
            continue;
        }
        let Some(key) = name
            .strip_suffix(&suffix)
            .filter(|hex| hex.len() == 32)
            .and_then(|hex| u128::from_str_radix(hex, 16).ok())
        else {
            continue;
        };
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
        entries.push((key, meta.len(), mtime));
    }
    // Oldest files get the lowest stamps.
    entries.sort_by_key(|(_, _, mtime)| *mtime);
    let mut map = HashMap::with_capacity(entries.len());
    let mut total_bytes = 0u64;
    for (clock, (key, bytes, _)) in entries.iter().enumerate() {
        total_bytes += bytes;
        map.insert(
            *key,
            IndexEntry {
                bytes: *bytes,
                stamp: clock as u64 + 1,
                protected: false,
            },
        );
    }
    Ok(Index {
        clock: map.len() as u64,
        map,
        total_bytes,
        protected_bytes: 0,
        dirty: 0,
        opened_from_index: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store(dir: &Path, max_bytes: u64) -> ArtifactStore {
        let config = StoreConfig {
            max_bytes,
            ..StoreConfig::new(dir)
        };
        ArtifactStore::open(config, Kind::Result).unwrap()
    }

    /// Read `key` through a decoder that accepts any bytes.
    fn get(s: &ArtifactStore, key: u128) -> Option<Vec<u8>> {
        s.get_with(key, |bytes| Some(bytes.to_vec()))
    }

    /// Fixed-size payload so byte budgets translate into entry counts.
    fn payload(tag: u8) -> Vec<u8> {
        vec![tag; 100]
    }

    #[test]
    fn put_get_roundtrip_and_validation() {
        let dir = tempdir("roundtrip");
        let s = store(&dir, 0);
        assert!(get(&s, 7).is_none());
        s.put(7, &payload(1));
        assert_eq!(get(&s, 7).unwrap(), payload(1));
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_validation_evicts_never_serves() {
        let dir = tempdir("reject");
        let s = store(&dir, 0);
        s.put(7, &payload(1));
        assert!(s.get_with(7, |_| None::<()>).is_none());
        assert!(!s.path_of(7).exists(), "rejected entry deleted");
        assert!(get(&s, 7).is_none(), "gone for good");
        let stats = s.stats();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slru_scan_does_not_displace_working_set() {
        let dir = tempdir("slru");
        // Budget: 4 entries. Working set: keys 1 and 2, re-referenced so
        // they sit in the protected segment.
        let s = store(&dir, 420);
        s.put(1, &payload(1));
        s.put(2, &payload(2));
        assert!(get(&s, 1).is_some()); // promote
        assert!(get(&s, 2).is_some()); // promote
                                       // One-pass cold scan: six keys touched once each. Under plain LRU
                                       // this would flush keys 1 and 2; under SLRU the scan churns through
                                       // probation only.
        for key in 10..16 {
            s.put(key, &payload(key as u8));
        }
        assert!(get(&s, 1).is_some(), "protected entry 1 survived the scan");
        assert!(get(&s, 2).is_some(), "protected entry 2 survived the scan");
        assert!(s.stats().evictions >= 4, "scan evicted scan entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protected_segment_is_capped() {
        let dir = tempdir("cap");
        // Budget 500 bytes -> protected cap 400. Promote five 100-byte
        // entries; the cap forces at least one demotion.
        let s = store(&dir, 500);
        for key in 1..=5 {
            s.put(key, &payload(key as u8));
            assert!(get(&s, key).is_some());
        }
        let stats = s.stats();
        assert!(
            stats.protected_bytes <= 400,
            "protected {} > cap 400",
            stats.protected_bytes
        );
        assert_eq!(stats.entries, 5, "demotion does not delete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_prefers_probation() {
        let dir = tempdir("prefer");
        let s = store(&dir, 300);
        s.put(1, &payload(1));
        assert!(get(&s, 1).is_some()); // 1 -> protected
        s.put(2, &payload(2)); // probation, older
        s.put(3, &payload(3)); // probation, newer
        s.put(4, &payload(4)); // over budget: evict probation-oldest = 2
        assert!(get(&s, 2).is_none(), "probation LRU evicted");
        assert!(get(&s, 1).is_some(), "protected survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_file_restores_state_without_scan() {
        let dir = tempdir("index");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
            s.put(2, &payload(2));
            assert!(get(&s, 1).is_some()); // protect 1
        } // drop persists the index
        assert!(dir.join(INDEX_NAME).exists());
        // Plant an alien entry file the index does not know about: a
        // scan-based startup would count it, an index-based one must not.
        std::fs::write(dir.join(format!("{:032x}.mc", 99u128)), payload(9)).unwrap();
        let s = store(&dir, 0);
        let stats = s.stats();
        assert!(stats.opened_from_index);
        assert_eq!(stats.entries, 2, "index state, not a directory scan");
        assert_eq!(stats.protected_bytes, 100, "segment survived restart");
        // The alien file is still *served* on access (index is accounting,
        // not truth) and adopted into the index.
        assert!(get(&s, 99).is_some());
        assert_eq!(s.stats().entries, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_falls_back_to_scan() {
        let dir = tempdir("idx-corrupt");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
            s.put(2, &payload(2));
        }
        let idx = dir.join(INDEX_NAME);
        let mut bytes = std::fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&idx, &bytes).unwrap();
        let s = store(&dir, 0);
        let stats = s.stats();
        assert!(!stats.opened_from_index, "fell back to the scan");
        assert_eq!(stats.entries, 2, "scan found both entries");
        assert!(get(&s, 1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_scans_and_seeds_from_mtime() {
        let dir = tempdir("idx-missing");
        {
            let s = store(&dir, 0);
            s.put(1, &payload(1));
        }
        std::fs::remove_file(dir.join(INDEX_NAME)).unwrap();
        let s = store(&dir, 0);
        assert!(!s.stats().opened_from_index);
        assert_eq!(s.stats().entries, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_instances_share_a_directory() {
        let dir = tempdir("share");
        let a = store(&dir, 0);
        let b = store(&dir, 0);
        a.put(5, &payload(5));
        // B never wrote this key but reads A's entry.
        assert_eq!(get(&b, 5).unwrap(), payload(5));
        assert_eq!(b.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
