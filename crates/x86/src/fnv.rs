//! The workspace's non-cryptographic hashes: FNV-1a and MurmurHash3.
//!
//! Every use goes through this module. FNV-1a serves the symbol interner's
//! shard route and hash maps ([`FnvHasher`]), the 128-bit content keys that
//! name cache files ([`fnv1a128`]: snapshot and superopt window keys), the
//! `.mpt` payload checksum ([`fnv1a64`]) and the on-disk container checksum
//! ([`words64`]). [`Murmur3`] streams entry identities through `Hash`:
//! function body keys, the context key and the function-result memo keys.
//! The persisted keys and
//! checksums mean none of these functions may change its output.

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

/// MurmurHash3 x64-128 (Appleby's public-domain algorithm), fed through
/// `Hasher`. Writes collect in a small buffer that is mixed in whole
/// 16-byte blocks every 4 KiB, so keying a body needs
/// neither a buffer the size of the body nor a call per tiny write.
///
/// Integers are fed as fixed-width little-endian bytes (`usize` and
/// `isize` as 8 bytes), so a key does not depend on the host's byte order
/// or pointer width. A key is a pure function of the seed and the bytes,
/// however the writes split them.
#[derive(Debug, Clone)]
pub struct Murmur3 {
    h1: u64,
    h2: u64,
    /// Written bytes not yet mixed in.
    pending: Vec<u8>,
    /// Bytes mixed in so far.
    mixed: u64,
}

/// Pending bytes that trigger mixing.
const MURMUR_FLUSH_BYTES: usize = 4096;

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

fn word(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

fn fmix(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Mix whole 16-byte `blocks` into `(h1, h2)`.
fn mix_blocks(h1: &mut u64, h2: &mut u64, blocks: &[u8]) {
    for block in blocks.chunks_exact(16) {
        *h1 ^= word(&block[..8])
            .wrapping_mul(C1)
            .rotate_left(31)
            .wrapping_mul(C2);
        *h1 = h1
            .rotate_left(27)
            .wrapping_add(*h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        *h2 ^= word(&block[8..])
            .wrapping_mul(C2)
            .rotate_left(33)
            .wrapping_mul(C1);
        *h2 = h2
            .rotate_left(31)
            .wrapping_add(*h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }
}

impl Murmur3 {
    /// A hasher with both lanes seeded with `seed`.
    pub fn new(seed: u64) -> Murmur3 {
        Murmur3 {
            h1: seed,
            h2: seed,
            pending: Vec::with_capacity(MURMUR_FLUSH_BYTES + 64),
            mixed: 0,
        }
    }

    /// Mix every whole pending block in.
    #[inline(never)]
    fn flush(&mut self) {
        let whole = self.pending.len() / 16 * 16;
        mix_blocks(&mut self.h1, &mut self.h2, &self.pending[..whole]);
        self.mixed += whole as u64;
        self.pending.drain(..whole);
    }

    /// The 128-bit hash of everything written so far (`h2` high, `h1` low).
    pub fn finish128(&self) -> u128 {
        let (mut h1, mut h2) = (self.h1, self.h2);
        let whole = self.pending.len() / 16 * 16;
        mix_blocks(&mut h1, &mut h2, &self.pending[..whole]);
        let tail = &self.pending[whole..];
        if tail.len() > 8 {
            h2 ^= word(&tail[8..])
                .wrapping_mul(C2)
                .rotate_left(33)
                .wrapping_mul(C1);
        }
        if !tail.is_empty() {
            h1 ^= word(&tail[..tail.len().min(8)])
                .wrapping_mul(C1)
                .rotate_left(31)
                .wrapping_mul(C2);
        }
        let len = self.mixed + self.pending.len() as u64;
        h1 ^= len;
        h2 ^= len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix(h1);
        h2 = fmix(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (u128::from(h2) << 64) | u128::from(h1)
    }
}

impl Hasher for Murmur3 {
    // Inlined into the derived `Hash` impls' many small writes; mixing
    // stays out of line.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
        if self.pending.len() >= MURMUR_FLUSH_BYTES {
            self.flush();
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }

    /// The low 64 bits of [`Murmur3::finish128`].
    fn finish(&self) -> u64 {
        self.finish128() as u64
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

    /// The published MurmurHash3 x64-128 vector, and the same bytes fed in
    /// pieces of every size: a key must not depend on how `Hash` impls
    /// split their writes.
    #[test]
    fn murmur3_matches_the_reference_vector_however_it_is_fed() {
        let text = b"The quick brown fox jumps over the lazy dog";
        let mut whole = Murmur3::new(0);
        whole.write(text);
        assert_eq!(whole.finish128(), 0x7a43_3ca9_c49a_9347_e34b_bc7b_bc07_1b6c);
        for step in 1..=17 {
            let mut pieces = Murmur3::new(0);
            for chunk in text.chunks(step) {
                pieces.write(chunk);
            }
            assert_eq!(pieces.finish128(), whole.finish128(), "pieces of {step}");
        }
        // Across the flush threshold too.
        let long: Vec<u8> = (0..3 * MURMUR_FLUSH_BYTES + 7).map(|i| i as u8).collect();
        let mut once = Murmur3::new(9);
        once.write(&long);
        assert_eq!(once.finish128(), 0x22fb_5118_0aa6_0fb6_dfc3_0176_4193_85ff);
        for step in [1, 5, 16, 1000, MURMUR_FLUSH_BYTES + 3] {
            let mut pieces = Murmur3::new(9);
            for chunk in long.chunks(step) {
                pieces.write(chunk);
            }
            assert_eq!(pieces.finish128(), once.finish128(), "pieces of {step}");
        }
        assert_eq!(Murmur3::new(0).finish128(), 0);
    }

    /// Integers go in as fixed-width little-endian bytes, whatever the
    /// host's byte order and pointer width.
    #[test]
    fn murmur3_feeds_integers_little_endian() {
        let bytes = |f: &dyn Fn(&mut Murmur3)| {
            let mut h = Murmur3::new(3);
            f(&mut h);
            h.finish128()
        };
        let le = bytes(&|h| h.write(&0x0102_0304_0506_0708u64.to_le_bytes()));
        assert_eq!(bytes(&|h| h.write_u64(0x0102_0304_0506_0708)), le);
        assert_eq!(bytes(&|h| h.write_usize(0x0102_0304_0506_0708)), le);
        assert_eq!(bytes(&|h| h.write_isize(0x0102_0304_0506_0708)), le);
        assert_eq!(
            bytes(&|h| h.write_u32(0x0506_0708)),
            bytes(&|h| h.write(&[8, 7, 6, 5]))
        );
        assert_eq!(
            bytes(&|h| h.write_u16(0x0708)),
            bytes(&|h| h.write(&[8, 7]))
        );
    }
}
