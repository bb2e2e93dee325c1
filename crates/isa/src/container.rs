//! The one on-disk container every cache artifact is framed in.
//!
//! Result entries (`.mc`), the store index (`store.idx`), superoptimizer
//! rewrites (`.msr`) and IR snapshots (`.msnap`) are each a body codec
//! inside this frame; the frame alone carries the magic, kind, version,
//! ISA, key, length and checksum, and [`open`] validates all of it before
//! a codec sees a byte. Layout, all integers little-endian:
//!
//! ```text
//! magic    8B    b"MAOART\0\x02"
//! kind     u16   Kind::tag
//! version  u16   Kind::version
//! isa      u32   IsaId::tag, or 0 when the artifact is not ISA-specific
//! key      u128  the content key the file is stored under
//! body_len u64
//! body     body_len bytes
//! checksum u64   words64 FNV-1a over everything before it
//! ```
//!
//! The header is 40 bytes, a whole number of checksum words, so the body
//! starts word-aligned relative to the file. `.mpt` cost tables stay out:
//! they are a user-calibrated interchange format with their own
//! versioning, not a cache (DESIGN.md, "On-disk artifacts").

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use mao_x86::fnv::words64;

use crate::IsaId;

/// File magic; the last byte is the container generation.
pub const MAGIC: [u8; 8] = *b"MAOART\0\x02";

/// Bytes before the body.
pub const HEADER_LEN: usize = 40;
/// Bytes after the body.
const TRAILER_LEN: usize = 8;

/// Prefix of in-flight [`write_atomic`] temp files; a directory scan may
/// delete stale ones.
pub const TMP_PREFIX: &str = ".tmp-";

/// The artifact kinds, with their on-disk tag, body version and file
/// extension. Bump a kind's version whenever its body encoding or the
/// meaning of a stored artifact changes: files of any other version are
/// rejected, and the stores evict them on contact. A kind that is removed
/// keeps its tag in [`RETIRED_TAGS`], so no later kind reads its old files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A whole optimize outcome (`maod` result tier).
    Result,
    /// An artifact store's accounting index.
    Index,
    /// A superoptimizer window result.
    Rewrite,
    /// A parsed unit's IR.
    Snapshot,
}

impl Kind {
    /// Every kind, in tag order.
    pub const ALL: [Kind; 4] = [Kind::Result, Kind::Index, Kind::Rewrite, Kind::Snapshot];

    /// `(tag, version, extension)`.
    const fn spec(self) -> (u16, u16, &'static str) {
        match self {
            Kind::Result => (1, 2, "mc"),
            Kind::Index => (3, 2, "idx"),
            Kind::Rewrite => (4, 2, "msr"),
            Kind::Snapshot => (5, 3, "msnap"),
        }
    }

    /// Stable on-disk identifier.
    pub const fn tag(self) -> u16 {
        self.spec().0
    }

    /// Current body version.
    pub const fn version(self) -> u16 {
        self.spec().1
    }

    /// File extension of this kind's entries.
    pub const fn ext(self) -> &'static str {
        self.spec().2
    }
}

/// Tags of removed kinds, never to be reused: 2 was the solved layout
/// (`.ml`), which only lives in memory now, for one unit version.
pub const RETIRED_TAGS: [u16; 1] = [2];

/// Why bytes were rejected. Every variant means the same thing to a
/// store (evict, count corrupt, never serve); the distinction is for
/// error messages and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Shorter than a header plus checksum.
    Truncated(usize),
    /// Not a container, or one from an earlier container generation.
    BadMagic,
    /// A container of another kind (found tag).
    WrongKind(u16),
    /// Written by another version of this kind's body codec.
    Version {
        /// Version in the file.
        found: u16,
        /// Version this build reads.
        expected: u16,
    },
    /// The declared body length does not match the file size.
    Length {
        /// Declared body length.
        declared: u64,
        /// File size.
        actual: usize,
    },
    /// Checksum mismatch: bit rot or a torn write.
    Checksum,
    /// Stamped for another (or an unknown) ISA (found tag).
    WrongIsa(u32),
    /// Stored under another key.
    WrongKey,
    /// The frame is sound but the body codec rejected its contents.
    Body(&'static str),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated(n) => write!(f, "truncated artifact ({n} bytes)"),
            ContainerError::BadMagic => write!(f, "not a MAO artifact (bad magic)"),
            ContainerError::WrongKind(tag) => write!(f, "artifact of another kind (tag {tag})"),
            ContainerError::Version { found, expected } => {
                write!(f, "artifact version {found} != {expected}")
            }
            ContainerError::Length { declared, actual } => write!(
                f,
                "artifact declares a {declared}-byte body but the file has {actual} bytes"
            ),
            ContainerError::Checksum => write!(f, "artifact checksum mismatch"),
            ContainerError::WrongIsa(tag) => write!(f, "artifact for another ISA (tag {tag})"),
            ContainerError::WrongKey => write!(f, "artifact content key mismatch"),
            ContainerError::Body(what) => write!(f, "malformed artifact body: {what}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// A validated container: the header's ISA tag and key, and the body.
#[derive(Debug, Clone, Copy)]
pub struct Framed<'a> {
    /// Raw ISA tag (0 = not ISA-specific).
    pub isa: u32,
    /// Content key.
    pub key: u128,
    /// Body bytes, borrowed from the input.
    pub body: &'a [u8],
}

fn isa_tag(isa: Option<IsaId>) -> u32 {
    isa.map_or(0, IsaId::tag)
}

/// Frame a body: header, then whatever `body` appends, then the
/// checksum. `capacity` is a hint for the body size.
pub fn seal(
    kind: Kind,
    isa: Option<IsaId>,
    key: u128,
    capacity: usize,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + capacity + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&kind.version().to_le_bytes());
    out.extend_from_slice(&isa_tag(isa).to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    body(&mut out);
    let body_len = (out.len() - HEADER_LEN) as u64;
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    let checksum = words64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate the frame of a `kind` artifact — magic, kind, version,
/// length, checksum — and return its header fields and borrowed body.
/// Identity checks are the caller's ([`open`] does both).
pub fn read(bytes: &[u8], kind: Kind) -> Result<Framed<'_>, ContainerError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ContainerError::Truncated(bytes.len()));
    }
    if bytes[..8] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let (header, rest) = bytes.split_at(HEADER_LEN);
    let field = |at: usize, n: usize| &header[at..at + n];
    let tag = u16::from_le_bytes(field(8, 2).try_into().unwrap());
    if tag != kind.tag() {
        return Err(ContainerError::WrongKind(tag));
    }
    let version = u16::from_le_bytes(field(10, 2).try_into().unwrap());
    if version != kind.version() {
        return Err(ContainerError::Version {
            found: version,
            expected: kind.version(),
        });
    }
    let declared = u64::from_le_bytes(field(32, 8).try_into().unwrap());
    if declared != (rest.len() - TRAILER_LEN) as u64 {
        return Err(ContainerError::Length {
            declared,
            actual: bytes.len(),
        });
    }
    let (framed, checksum) = bytes.split_at(bytes.len() - TRAILER_LEN);
    if words64(framed) != u64::from_le_bytes(checksum.try_into().unwrap()) {
        return Err(ContainerError::Checksum);
    }
    Ok(Framed {
        isa: u32::from_le_bytes(field(12, 4).try_into().unwrap()),
        key: u128::from_le_bytes(field(16, 16).try_into().unwrap()),
        body: &rest[..rest.len() - TRAILER_LEN],
    })
}

/// Validate a `kind` artifact stored under `key` for `isa` (`None` for
/// kinds that are not ISA-specific) and return its body. Nothing in the
/// body has been interpreted when this returns.
pub fn open(
    bytes: &[u8],
    kind: Kind,
    isa: Option<IsaId>,
    key: u128,
) -> Result<&[u8], ContainerError> {
    let framed = read(bytes, kind)?;
    if framed.isa != isa_tag(isa) {
        return Err(ContainerError::WrongIsa(framed.isa));
    }
    if framed.key != key {
        return Err(ContainerError::WrongKey);
    }
    Ok(framed.body)
}

/// Does `bytes` start like a container? Lets a caller pick the artifact
/// decoder over the text parser.
pub fn is_artifact(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `dir/name` atomically: into a `.tmp-<pid>-<n>`
/// sibling, then `rename(2)` into place, so a reader never sees a torn
/// file and racing writers of the same content last-write-win. `fsync`
/// adds file and directory syncs for durability.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = dir.join(format!(
        "{TMP_PREFIX}{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        if fsync {
            file.sync_all()?;
        }
        drop(file);
        std::fs::rename(&tmp, dir.join(name))?;
        if fsync {
            if let Ok(dir) = std::fs::File::open(dir) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(body: &[u8]) -> Vec<u8> {
        seal(
            Kind::Snapshot,
            Some(IsaId::Aarch64),
            42,
            body.len(),
            |out| out.extend_from_slice(body),
        )
    }

    #[test]
    fn seal_open_roundtrip_for_every_body_length() {
        for n in 0..20 {
            let body: Vec<u8> = (0..n).collect();
            let bytes = sealed(&body);
            assert_eq!(bytes.len(), HEADER_LEN + n as usize + TRAILER_LEN);
            assert_eq!(
                open(&bytes, Kind::Snapshot, Some(IsaId::Aarch64), 42).unwrap(),
                &body[..]
            );
        }
    }

    #[test]
    fn kind_tags_and_extensions_are_distinct() {
        for (i, a) in Kind::ALL.iter().enumerate() {
            assert!(
                !RETIRED_TAGS.contains(&a.tag()),
                "{a:?} reuses a retired tag"
            );
            for b in &Kind::ALL[i + 1..] {
                assert_ne!(a.tag(), b.tag());
                assert_ne!(a.ext(), b.ext());
            }
        }
    }

    #[test]
    fn every_header_byte_is_covered() {
        let bytes = sealed(b"body");
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert!(
                open(&flipped, Kind::Snapshot, Some(IsaId::Aarch64), 42).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("mao-container-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_atomic(&dir, "a.mc", b"x", true).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.mc"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
