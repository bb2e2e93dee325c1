//! One table-driven damage-class suite over every on-disk artifact kind.
//!
//! Each kind — result, index, rewrite, snapshot — contributes a
//! valid sample, its codec and the store that holds it. Every damage class
//! is applied to every sample and checked twice: the codec must return a
//! structured [`ContainerError`] (never panic, never decode), and the store
//! must evict the file, count it corrupt and serve nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use mao::isa::container::{self, ContainerError, Kind, HEADER_LEN, RETIRED_TAGS};
use mao::isa::IsaId;
use mao::{ArtifactStore, StoreConfig};
use mao_serve::disk_cache::{decode_entry, encode_entry};
use mao_serve::protocol::OptimizeOutcome;
use mao_serve::{request_key, DiskCache, RequestKey, SnapshotStore};
use mao_superopt::cache::{self as rewrite, CachedResult, RewriteCache};

const TEXT: &str =
    "\t.text\n\t.type\tf, @function\nf:\n\tmovq %rax, %rcx\n\tjmp .L1\n.L1:\n\tret\n";

/// Where each header field starts.
const KIND_AT: usize = 8;
const VERSION_AT: usize = 10;
const ISA_AT: usize = 12;
const KEY_AT: usize = 16;
const LEN_AT: usize = 32;

/// What a store did with a damaged file.
struct StoreOutcome {
    served: bool,
    corrupt: u64,
}

/// One artifact kind under test.
struct Subject {
    kind: Kind,
    /// The file the store reads the sample from.
    file: String,
    /// The key the sample is stored and looked up under.
    key: u128,
    /// A valid sample artifact.
    bytes: Vec<u8>,
    /// An ISA tag this kind must reject.
    wrong_isa: u32,
    /// The sample's pre-container magic.
    old_magic: &'static [u8; 8],
    /// Decode through the codec, for the sample's key and ISA.
    decode: fn(&[u8]) -> Result<(), ContainerError>,
    /// Open a store over `dir` and look the sample up.
    load: fn(&Path) -> StoreOutcome,
}

fn result_key() -> RequestKey {
    request_key(TEXT, "DCE", IsaId::X86_64)
}

fn outcome() -> OptimizeOutcome {
    OptimizeOutcome {
        asm: TEXT.to_string(),
        passes: vec![("DCE".into(), 1, 2)],
        timings_us: vec![("DCE".into(), 5)],
        trace: vec!["a line".into()],
    }
}

const REWRITE_KEY: u128 = 0x5e77;

fn rewrite_sample() -> CachedResult {
    let unit = mao::MaoUnit::parse("\tmovq %rax, %rcx\n").unwrap();
    CachedResult::Rewrite(
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect(),
    )
}

fn snapshot_key() -> u128 {
    mao_asm::snapshot::content_key(TEXT)
}

/// A real index: a store with two entries, dropped so it persists.
fn index_sample() -> Vec<u8> {
    let dir = tempdir();
    {
        let store = ArtifactStore::open(StoreConfig::new(&dir), Kind::Result).unwrap();
        store.put(1, b"one");
        store.put(2, b"two");
    }
    let bytes = std::fs::read(dir.join("store.idx")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn subjects() -> Vec<Subject> {
    let entries = mao_asm::parse(TEXT).unwrap();
    vec![
        Subject {
            kind: Kind::Result,
            file: format!("{:032x}.mc", result_key().raw()),
            key: result_key().raw(),
            bytes: encode_entry(result_key(), &outcome()),
            wrong_isa: IsaId::X86_64.tag(),
            old_magic: b"MAODC\0\0\x01",
            decode: |b| decode_entry(b, result_key()).map(drop),
            load: |dir| {
                let cache = DiskCache::open(StoreConfig::new(dir)).unwrap();
                let served = cache.get(result_key()).is_some();
                let corrupt = cache.stats().corrupt;
                StoreOutcome { served, corrupt }
            },
        },
        Subject {
            kind: Kind::Index,
            file: "store.idx".to_string(),
            key: 0,
            bytes: index_sample(),
            wrong_isa: IsaId::X86_64.tag(),
            old_magic: b"MAOIDX\0\x01",
            decode: |b| mao::store::read_index(b).map(drop),
            load: |dir| {
                let stats = ArtifactStore::open(StoreConfig::new(dir), Kind::Result)
                    .unwrap()
                    .stats();
                StoreOutcome {
                    served: stats.opened_from_index,
                    corrupt: stats.corrupt,
                }
            },
        },
        Subject {
            kind: Kind::Rewrite,
            file: format!("{REWRITE_KEY:032x}.msr"),
            key: REWRITE_KEY,
            bytes: rewrite::encode_entry(REWRITE_KEY, &rewrite_sample()),
            wrong_isa: IsaId::Aarch64.tag(),
            old_magic: b"MAOSR\0\0\x01",
            decode: |b| rewrite::decode_entry(b, REWRITE_KEY).map(drop),
            load: |dir| {
                let cache = RewriteCache::persistent(dir).unwrap();
                let served = cache.load(REWRITE_KEY).is_some();
                let corrupt = cache.stats().corrupt;
                StoreOutcome { served, corrupt }
            },
        },
        Subject {
            kind: Kind::Snapshot,
            file: format!("{:032x}.msnap", snapshot_key()),
            key: snapshot_key(),
            bytes: mao_asm::snapshot::encode(&entries, snapshot_key()),
            // A snapshot reports the ISA it was parsed for, so only a tag
            // no ISA owns is wrong.
            wrong_isa: 99,
            old_magic: b"MAOSNAP\x01",
            decode: |b| mao_asm::snapshot::decode(b, Some(snapshot_key())).map(drop),
            load: |dir| {
                let store = SnapshotStore::open(dir, 0).unwrap();
                let served = store.load_key(snapshot_key()).is_some();
                let corrupt = store.stats().corrupt;
                StoreOutcome { served, corrupt }
            },
        },
    ]
}

fn tempdir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mao-artifacts-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Overwrite `bytes[at..]` with `with`, then recompute the checksum, as a
/// writer of that (skewed or misplaced) artifact would have.
fn resealed(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + with.len()].copy_from_slice(with);
    let end = out.len() - 8;
    let checksum = mao_x86::fnv::words64(&out[..end]);
    out[end..].copy_from_slice(&checksum.to_le_bytes());
    out
}

fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= 0x10;
    out
}

type Expect = fn(&ContainerError) -> bool;

/// Every damage class applied to `s`: (name, damaged bytes, the error the
/// codec must report).
fn damage(s: &Subject, other_kind: &[u8]) -> Vec<(String, Vec<u8>, Expect)> {
    let b = &s.bytes;
    let len = b.len();
    let mut cases: Vec<(String, Vec<u8>, Expect)> = Vec::new();
    let header_cuts = [0, KIND_AT, VERSION_AT, ISA_AT, KEY_AT, LEN_AT, HEADER_LEN];
    for cut in header_cuts {
        cases.push((format!("truncated at {cut}"), b[..cut].to_vec(), |e| {
            matches!(e, ContainerError::Truncated(_))
        }));
    }
    for cut in [HEADER_LEN + 8, len - 8, len - 1] {
        cases.push((format!("truncated at {cut}"), b[..cut].to_vec(), |e| {
            matches!(
                e,
                ContainerError::Truncated(_) | ContainerError::Length { .. }
            )
        }));
    }
    for (field, at) in [
        ("magic", 3),
        ("kind", KIND_AT),
        ("version", VERSION_AT),
        ("isa", ISA_AT),
        ("key", KEY_AT + 5),
        ("length", LEN_AT),
        ("body", (HEADER_LEN + len - 8) / 2),
        ("checksum", len - 1),
    ] {
        cases.push((format!("bit flip in {field}"), flipped(b, at), |_| true));
    }
    let version = s.kind.version() + 1;
    cases.push((
        "version skew".into(),
        resealed(b, VERSION_AT, &version.to_le_bytes()),
        |e| matches!(e, ContainerError::Version { .. }),
    ));
    cases.push(("wrong kind".into(), other_kind.to_vec(), |e| {
        matches!(e, ContainerError::WrongKind(_))
    }));
    for tag in RETIRED_TAGS {
        cases.push((
            format!("retired kind tag {tag}"),
            resealed(b, KIND_AT, &tag.to_le_bytes()),
            |e| matches!(e, ContainerError::WrongKind(_)),
        ));
    }
    cases.push((
        "wrong isa".into(),
        resealed(b, ISA_AT, &s.wrong_isa.to_le_bytes()),
        |e| matches!(e, ContainerError::WrongIsa(_)),
    ));
    cases.push((
        "wrong key".into(),
        resealed(b, KEY_AT, &(s.key ^ 1).to_le_bytes()),
        |e| matches!(e, ContainerError::WrongKey),
    ));
    cases.push((
        "junk".into(),
        b"GARBAGE GARBAGE GARBAGE GARBAGE GARBAGE GARBAGE GARBAGE".to_vec(),
        |e| matches!(e, ContainerError::BadMagic),
    ));
    cases.push((
        "previous generation's magic".into(),
        [&s.old_magic[..], &b[8..]].concat(),
        |e| matches!(e, ContainerError::BadMagic),
    ));
    cases.push((
        "declared length u64::MAX".into(),
        resealed(b, LEN_AT, &u64::MAX.to_le_bytes()),
        |e| {
            matches!(
                e,
                ContainerError::Length {
                    declared: u64::MAX,
                    ..
                }
            )
        },
    ));
    cases
}

#[test]
fn every_damage_class_is_rejected_by_every_codec_and_store() {
    let subjects = subjects();
    let mut checked = 0;
    for (i, s) in subjects.iter().enumerate() {
        (s.decode)(&s.bytes).unwrap_or_else(|e| panic!("{:?}: sample rejected: {e}", s.kind));
        // A valid artifact of the next kind, renamed to this kind's file.
        let other_kind = &subjects[(i + 1) % subjects.len()].bytes;
        for (class, bytes, expect) in damage(s, other_kind) {
            let what = format!("{:?} / {class}", s.kind);
            match (s.decode)(&bytes) {
                Ok(()) => panic!("{what}: codec accepted the damaged file"),
                Err(e) => assert!(expect(&e), "{what}: unexpected error {e:?}"),
            }
            let dir = tempdir();
            let path = dir.join(&s.file);
            std::fs::write(&path, &bytes).unwrap();
            let outcome = (s.load)(&dir);
            assert!(!outcome.served, "{what}: store served the damaged file");
            assert_eq!(outcome.corrupt, 1, "{what}: not counted corrupt");
            assert!(!path.exists(), "{what}: damaged file not evicted");
            let _ = std::fs::remove_dir_all(&dir);
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * 26);
}

#[test]
fn every_sample_is_served_by_its_store() {
    for s in subjects() {
        let dir = tempdir();
        std::fs::write(dir.join(&s.file), &s.bytes).unwrap();
        let outcome = (s.load)(&dir);
        assert!(outcome.served, "{:?}: valid file not served", s.kind);
        assert_eq!(outcome.corrupt, 0, "{:?}", s.kind);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        subjects().iter().map(|s| s.kind).collect::<Vec<_>>(),
        Kind::ALL
    );
}

/// The content keys that name snapshot and rewrite files, pinned to the
/// values they had before every FNV loop moved into `mao_x86::fnv`.
#[test]
fn content_and_window_keys_are_pinned() {
    use mao_asm::snapshot::content_key;
    assert_eq!(content_key("nop\n"), 0x692dc0d9a3757277b806e9622f8e2a5c);
    assert_eq!(
        content_key("\t.text\nf:\n\tret\n"),
        0xc4fe2e4283c79c440e32d9f9b722746f
    );
    let unit = mao::MaoUnit::parse("\tmovq %rax, %rcx\n\taddq $1, %rcx\n").unwrap();
    let insns: Vec<_> = unit
        .entries()
        .iter()
        .filter_map(|e| e.insn().cloned())
        .collect();
    assert_eq!(
        mao_superopt::canon::window_key(&insns),
        0x3c036fc6cab61e1a1ec37bc838152b61
    );
}

/// The container's own sealing matches what the suite's reseal helper
/// assumes: the checksum covers everything before it.
#[test]
fn resealing_an_unchanged_artifact_is_identity() {
    for s in subjects() {
        assert_eq!(resealed(&s.bytes, 0, &container::MAGIC), s.bytes);
    }
}
