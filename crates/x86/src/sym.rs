//! Global symbol interner.
//!
//! The zero-copy front end stores every symbol-shaped string (labels, branch
//! targets, symbolic displacements, directive symbols) as a [`Sym`]: a stable
//! `u32` handle into a process-wide append-only intern table. Interning turns
//! the per-token `String` allocations of the seed parser into a single hash
//! probe, makes symbol equality an integer compare, and gives the binary IR
//! snapshot format a dense string-table id space to serialize against.
//!
//! Design constraints, in order:
//!
//! 1. **Hash-by-content.** Request keys and analysis-cache keys are derived
//!    hashes over `Entry`/`Instruction` values. Those hashes must not change
//!    when a `String` field becomes a `Sym`, or every persisted disk-cache
//!    entry would be orphaned. `Sym::hash` therefore hashes the string
//!    contents exactly like `String` does. Equality stays id-based (the
//!    interner guarantees distinct ids ⇔ distinct strings, so the two are
//!    consistent), keeping the common comparison an integer compare.
//! 2. **Lock-free reads.** `as_str` must be as cheap as following a field:
//!    it is on every `Display`/emit path. Handles resolve through an
//!    append-only chunked pointer table with no lock; only interning new
//!    strings takes a (sharded) mutex.
//! 3. **`&'static str` access.** Interned storage is leaked, so borrows never
//!    fight lifetimes in index maps (`MaoUnit` keys its label index by
//!    `&'static str`). The cost is that interner memory is process-lifetime;
//!    a long-running `maod` grows with the distinct-symbol population of its
//!    traffic. [`Sym::stats`] exposes the population so the stats snapshot
//!    (schema v5 `frontend.interner`) can track it. Free-text fields (raw
//!    directive args, string literals) intentionally stay `String` to bound
//!    growth to symbol-like tokens.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::fnv::{fnv1a64, FnvHasher};

/// log2 of slots per chunk.
const CHUNK_BITS: u32 = 16;
/// Slots per chunk of the id → string table.
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// Maximum number of chunks (caps the symbol population at 2^26).
const MAX_CHUNKS: usize = 1 << 10;
/// Shard count for the intern (write) path.
const SHARDS: usize = 16;

/// Slot payload: a thin pointer to a leaked `&'static str` fat pointer.
type Slot = AtomicPtr<&'static str>;

// One `AtomicPtr` per chunk, pointing at a leaked `[Slot; CHUNK_LEN]`.
// `const` item so the array-repeat initializer is allowed for a non-Copy type.
#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHUNK: AtomicPtr<Slot> = AtomicPtr::new(std::ptr::null_mut());
static CHUNKS: [AtomicPtr<Slot>; MAX_CHUNKS] = [NULL_CHUNK; MAX_CHUNKS];

/// Serializes chunk creation (rare: once per 65536 symbols).
static CHUNK_ALLOC: Mutex<()> = Mutex::new(());

/// Next id to hand out. Ids are dense and allocation-ordered.
static COUNT: AtomicU32 = AtomicU32::new(0);
/// Total bytes of interned string payload (not counting table overhead).
static BYTES: AtomicUsize = AtomicUsize::new(0);

type ShardMap = HashMap<&'static str, u32, BuildHasherDefault<FnvHasher>>;

/// string → id maps, sharded by a cheap byte hash to keep parse threads from
/// serializing on one lock.
static MAP: OnceLock<[Mutex<ShardMap>; SHARDS]> = OnceLock::new();

fn shards() -> &'static [Mutex<ShardMap>; SHARDS] {
    MAP.get_or_init(|| std::array::from_fn(|_| Mutex::new(ShardMap::default())))
}

pub(crate) fn shard_of(s: &str) -> usize {
    // Only the low bits of the hash matter here.
    (fnv1a64(s.as_bytes()) as usize) & (SHARDS - 1)
}

/// Resolve the slot for `id`, creating the owning chunk if needed.
fn slot_for(id: u32) -> &'static Slot {
    let idx = id as usize;
    let chunk_idx = idx >> CHUNK_BITS;
    assert!(chunk_idx < MAX_CHUNKS, "symbol interner capacity exceeded");
    let mut chunk = CHUNKS[chunk_idx].load(Ordering::Acquire);
    if chunk.is_null() {
        let _guard = CHUNK_ALLOC.lock().unwrap_or_else(|e| e.into_inner());
        chunk = CHUNKS[chunk_idx].load(Ordering::Acquire);
        if chunk.is_null() {
            let slots: Vec<Slot> = (0..CHUNK_LEN)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            chunk = Box::leak(slots.into_boxed_slice()).as_mut_ptr();
            CHUNKS[chunk_idx].store(chunk, Ordering::Release);
        }
    }
    // In bounds by construction: idx & (CHUNK_LEN - 1) < CHUNK_LEN.
    unsafe { &*chunk.add(idx & (CHUNK_LEN - 1)) }
}

/// Slots in the per-thread short-symbol cache (see [`Sym::intern`]).
const SMALL_CACHE_SLOTS: usize = 1024;

thread_local! {
    /// Direct-mapped (key → id) cache for symbols of at most 7 bytes — the
    /// hot population (`.L123` labels, short globals). Keys are bijective
    /// (bytes packed little-endian into the low 56 bits, length in the top
    /// 8), so a key match IS a string match; and since interning is
    /// idempotent and append-only, a cached pair can never go stale.
    static SMALL_CACHE: std::cell::RefCell<[(u64, u32); SMALL_CACHE_SLOTS]> =
        const { std::cell::RefCell::new([(0, 0); SMALL_CACHE_SLOTS]) };
}

/// Pack a 1..=7-byte string into a unique nonzero u64 key, or None.
#[inline]
fn pack_small(s: &str) -> Option<u64> {
    let b = s.as_bytes();
    if b.is_empty() || b.len() > 7 {
        return None;
    }
    let mut v = (b.len() as u64) << 56;
    for (i, &c) in b.iter().enumerate() {
        v |= u64::from(c) << (8 * i);
    }
    Some(v)
}

/// Multiply-shift hash: the top 10 bits of the product index the cache.
#[inline]
fn small_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize
}

/// A stable handle to an interned string.
///
/// `Copy`, 4 bytes. Equality is an id compare; hashing matches `String`
/// content hashing (see module docs); ordering is lexicographic by content so
/// sorted symbol lists stay deterministic and human-readable.
#[derive(Clone, Copy)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s`, returning its stable handle. Idempotent.
    ///
    /// Short symbols hit a thread-local direct-mapped cache first, skipping
    /// the shard lock and both hash passes on the hot label population.
    pub fn intern(s: &str) -> Sym {
        match pack_small(s) {
            Some(key) => SMALL_CACHE.with(|c| {
                let mut cache = c.borrow_mut();
                let slot = small_slot(key);
                let (k, id) = cache[slot];
                if k == key {
                    return Sym(id);
                }
                let sym = Sym::intern_shared(s);
                cache[slot] = (key, sym.0);
                sym
            }),
            None => Sym::intern_shared(s),
        }
    }

    /// The shared (sharded-map) intern path.
    fn intern_shared(s: &str) -> Sym {
        let shard = &shards()[shard_of(s)];
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        let stored: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = COUNT.fetch_add(1, Ordering::SeqCst);
        let slot = slot_for(id);
        let cell: &'static mut &'static str = Box::leak(Box::new(stored));
        slot.store(cell, Ordering::Release);
        BYTES.fetch_add(s.len(), Ordering::Relaxed);
        map.insert(stored, id);
        Sym(id)
    }

    /// The interned string. Lock-free; `&'static` because storage is leaked.
    #[inline]
    pub fn as_str(self) -> &'static str {
        let idx = self.0 as usize;
        let chunk = CHUNKS[idx >> CHUNK_BITS].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "Sym id without a chunk");
        // A Sym value can only be obtained from `intern`, which stores the
        // slot (Release) before returning the id; any thread holding the id
        // is ordered after that store.
        unsafe {
            let p = (*chunk.add(idx & (CHUNK_LEN - 1))).load(Ordering::Acquire);
            debug_assert!(!p.is_null(), "Sym id without a slot");
            *p
        }
    }

    /// The raw handle value (used by the snapshot codec's string table).
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// Interner population: `(distinct_symbols, payload_bytes)`.
    pub fn stats() -> (usize, usize) {
        (
            COUNT.load(Ordering::Relaxed) as usize,
            BYTES.load(Ordering::Relaxed),
        )
    }

    /// Is the interned string empty?
    pub fn is_empty(self) -> bool {
        self.as_str().is_empty()
    }

    /// Length in bytes of the interned string.
    pub fn len(self) -> usize {
        self.as_str().len()
    }
}

impl Default for Sym {
    fn default() -> Sym {
        Sym::intern("")
    }
}

impl PartialEq for Sym {
    #[inline]
    fn eq(&self, other: &Sym) -> bool {
        self.0 == other.0
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `String`/`str` hashing exactly — cache keys depend on it.
        self.as_str().hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Deref for Sym {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<Sym> for String {
    fn from(s: Sym) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("sym_test_alpha");
        let b = Sym::intern("sym_test_alpha");
        let c = Sym::intern("sym_test_beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "sym_test_alpha");
        assert_eq!(c.as_str(), "sym_test_beta");
    }

    #[test]
    fn hash_matches_string_hash() {
        for s in ["", ".L5", "main", "a_rather_longer_symbol_name$x"] {
            let sym = Sym::intern(s);
            let mut h1 = DefaultHasher::new();
            sym.hash(&mut h1);
            let mut h2 = DefaultHasher::new();
            s.to_string().hash(&mut h2);
            assert_eq!(h1.finish(), h2.finish(), "hash mismatch for {s:?}");
        }
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![Sym::intern("zz"), Sym::intern("aa"), Sym::intern("mm")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["aa", "mm", "zz"]);
    }

    #[test]
    fn str_comparisons_work() {
        let s = Sym::intern(".L9");
        assert_eq!(s, ".L9");
        assert_eq!(".L9", s);
        assert!(s == ".L9".to_string());
        assert_eq!(&*s, ".L9");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn small_cache_agrees_with_shared_path() {
        // Same handle whether served from the thread-local cache, the
        // shared map, or another thread (which starts with a cold cache).
        let a = Sym::intern(".Lsc1");
        let b = Sym::intern(".Lsc1"); // cache hit
        let c = std::thread::spawn(|| Sym::intern(".Lsc1")).join().unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        // Keys encode the length, so a zero-padded prefix is a different
        // symbol, not a cache collision.
        let short = Sym::intern("sc");
        let padded = Sym::intern("sc\0");
        assert_ne!(short, padded);
        assert_eq!(padded.as_str(), "sc\0");
    }

    #[test]
    fn stats_grow() {
        let (count0, bytes0) = Sym::stats();
        Sym::intern("sym_stats_probe_unique_xyzzy");
        let (count1, bytes1) = Sym::stats();
        assert!(count1 >= count0 + 1);
        assert!(bytes1 >= bytes0 + "sym_stats_probe_unique_xyzzy".len());
        // Re-interning must not grow the population.
        Sym::intern("sym_stats_probe_unique_xyzzy");
        assert_eq!(Sym::stats().0, count1);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Sym::intern(&format!("conc_{}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &all {
            for s in syms {
                assert!(s.as_str().starts_with("conc_"));
            }
        }
        // Same string from different threads must be the same handle.
        let a = Sym::intern("conc_0");
        for syms in &all {
            for s in syms {
                if s.as_str() == "conc_0" {
                    assert_eq!(*s, a);
                }
            }
        }
    }
}
