//! FNV-1a: the one non-cryptographic hash family of the workspace.
//!
//! Every use goes through this module: the symbol interner's shard route
//! and hash maps ([`FnvHasher`]), the 128-bit content keys that name cache
//! files ([`fnv1a128`]: snapshot and superopt window keys), the `.mpt`
//! payload checksum ([`fnv1a64`]) and the on-disk container checksum
//! ([`words64`]). The keys and checksums are persisted, so none of these
//! functions may change its output.

use std::hash::Hasher;

const OFFSET64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME64: u64 = 0x0000_0100_0000_01b3;
const OFFSET128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

#[inline]
fn fold64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME64);
    }
    h
}

/// Byte-wise 64-bit FNV-1a.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold64(OFFSET64, bytes)
}

/// Byte-wise 128-bit FNV-1a.
#[inline]
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = OFFSET128;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME128);
    }
    h
}

/// Word-wise 64-bit FNV-1a: one little-endian 8-byte word per round, so
/// checksumming a large file costs about an eighth of the byte-wise form.
/// A partial last word is zero-padded with its length in the top byte, so
/// padding never collides with real zeros.
pub fn words64(bytes: &[u8]) -> u64 {
    let mut h = OFFSET64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(PRIME64);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME64);
    }
    h
}

/// [`Hasher`] for maps whose keys are short and not chosen by a client:
/// the symbol shard maps (a few bytes to a few dozen, with dense ids as
/// values), the mnemonic tables and the edit-set maps keyed by entry
/// position. On such keys FNV beats SipHash by a wide margin, and HashDoS
/// resistance buys nothing.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(OFFSET64)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold64(self.0, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    /// Outputs pinned from the per-site loops this module replaced: a
    /// change here renames cache files and reroutes interner shards.
    #[test]
    fn outputs_are_pinned() {
        let build = BuildHasherDefault::<FnvHasher>::default();
        assert_eq!(FnvHasher::default().finish(), 0xcbf29ce484222325);
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        assert_eq!(build.hash_one("main"), 0xdce5d1a50c4d7675);
        assert_eq!(build.hash_one(7u32), 0x6d3572669b2cde42);
        assert_eq!(build.hash_one(0x0123_4567_89ab_cdefu64), 0x37eb3f3347761c55);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv1a128(b"nop\n"), 0x692dc0d9a3757277b806e9622f8e2a5c);
        let routes: Vec<usize> = ["", "main", ".L1", "rax", "foo_bar_baz", "a"]
            .into_iter()
            .map(crate::sym::shard_of)
            .collect();
        assert_eq!(routes, [5, 8, 2, 12, 7, 12]);
    }

    #[test]
    fn words64_pads_the_tail_distinctly() {
        assert_ne!(words64(b"a"), words64(b"a\0"));
        assert_ne!(words64(b""), words64(b"\0"));
        assert_eq!(words64(b""), 0xcbf29ce484222325);
    }
}
