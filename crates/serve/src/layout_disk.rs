//! Persistent layout tier: solved branch-relaxation layouts on disk.
//!
//! Branch relaxation is the most expensive analysis the optimizer runs per
//! unit — an iterative address/size fixed point over every entry. The
//! in-memory slot in `mao`'s `AnalysisCache` already reuses layouts across
//! requests within one process; [`DiskLayoutStore`] extends that across
//! restarts and between instances sharing a cache directory, the same
//! promotion the result cache got from its disk tier.
//!
//! Each solved [`Layout`] is an `.ml` artifact (DESIGN.md, "On-disk
//! artifacts") keyed by the unit's content key and stamped with its ISA —
//! a layout solved for one instruction set is never served for another.
//! The store plugs into core via the [`mao::LayoutStore`] trait;
//! `Engine::build` wires one per daemon under `<cache_dir>/layout`.
//!
//! The body deliberately omits `Layout::metrics` (solver telemetry, not
//! layout): a loaded layout reports zeroed metrics and `agrees_with`
//! ignores them.

use std::io;

use mao::isa::container::{self, ContainerError, Kind};
use mao::isa::IsaId;
use mao::relax::BranchForm;
use mao::{ArtifactStore, Layout, StoreConfig, StoreStats};

/// Hard cap on per-unit entry counts accepted at decode (matches the
/// snapshot codec's limit; a declared length past this is malformed, not an
/// allocation request).
const MAX_ENTRIES: u64 = 1 << 28;

/// Bytes per entry in the body: address, size, branch form.
const ENTRY_BYTES: u64 = 8 + 4 + 1;

/// Serialize one layout to its on-disk artifact.
pub fn encode_layout(key: u128, isa: IsaId, layout: &Layout) -> Vec<u8> {
    let n = layout.addr.len();
    container::seal(Kind::Layout, Some(isa), key, 16 + n * 13, |body| {
        body.extend_from_slice(&(n as u64).to_le_bytes());
        for &addr in &layout.addr {
            body.extend_from_slice(&addr.to_le_bytes());
        }
        for &size in &layout.size {
            body.extend_from_slice(&size.to_le_bytes());
        }
        body.extend(layout.branch_form.iter().map(|form| match form {
            None => 0,
            Some(BranchForm::Rel8) => 1,
            Some(BranchForm::Rel32) => 2,
        }));
        body.extend_from_slice(&(layout.iterations as u64).to_le_bytes());
    })
}

/// Decode and verify one artifact for the unit-content key and ISA it
/// must store.
pub fn decode_layout(
    bytes: &[u8],
    expected_key: u128,
    expected_isa: IsaId,
) -> Result<Layout, ContainerError> {
    let malformed = ContainerError::Body("layout entry count");
    let body = container::open(bytes, Kind::Layout, Some(expected_isa), expected_key)?;
    let (n, rest) = body.split_first_chunk::<8>().ok_or(malformed.clone())?;
    let n = u64::from_le_bytes(*n);
    if n > MAX_ENTRIES || rest.len() as u64 != n * ENTRY_BYTES + 8 {
        return Err(malformed);
    }
    let n = n as usize;
    let (addr, rest) = rest.split_at(n * 8);
    let (size, rest) = rest.split_at(n * 4);
    let (forms, iterations) = rest.split_at(n);
    let branch_form = forms
        .iter()
        .map(|&b| match b {
            0 => Ok(None),
            1 => Ok(Some(BranchForm::Rel8)),
            2 => Ok(Some(BranchForm::Rel32)),
            _ => Err(ContainerError::Body("layout branch form")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Layout {
        addr: addr
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect(),
        size: size
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect(),
        branch_form,
        iterations: u64::from_le_bytes(iterations.try_into().unwrap()) as usize,
        metrics: Default::default(),
    })
}

/// The `.ml` codec over an [`ArtifactStore`], implementing
/// [`mao::LayoutStore`] so `AnalysisCache` consults it on memory-tier
/// misses. One instance is shared by every shard of a daemon (the store is
/// thread-safe).
#[derive(Debug)]
pub struct DiskLayoutStore {
    pub(crate) store: ArtifactStore,
}

impl DiskLayoutStore {
    /// Open (creating if needed) a layout store under `dir` with a byte
    /// budget (0 = unbounded).
    pub fn open_dir(
        dir: impl Into<std::path::PathBuf>,
        max_bytes: u64,
    ) -> io::Result<DiskLayoutStore> {
        let config = StoreConfig {
            max_bytes,
            ..StoreConfig::new(dir)
        };
        Ok(DiskLayoutStore {
            store: ArtifactStore::open(config, Kind::Layout)?,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}

impl mao::LayoutStore for DiskLayoutStore {
    fn load(&self, key: u128, isa: IsaId) -> Option<Layout> {
        self.store
            .get_with(key, |bytes| decode_layout(bytes, key, isa).ok())
    }

    fn store(&self, key: u128, isa: IsaId, layout: &Layout) {
        self.store.put(key, &encode_layout(key, isa, layout));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao::LayoutStore as _;
    use std::path::PathBuf;

    fn layout() -> Layout {
        Layout {
            addr: vec![0, 0, 2, 7],
            size: vec![0, 2, 5, 1],
            branch_form: vec![None, Some(BranchForm::Rel8), Some(BranchForm::Rel32), None],
            iterations: 3,
            metrics: Default::default(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mao-layout-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let original = layout();
        let bytes = encode_layout(42, IsaId::X86_64, &original);
        let decoded = decode_layout(&bytes, 42, IsaId::X86_64).unwrap();
        assert!(decoded.agrees_with(&original));
    }

    #[test]
    fn store_roundtrip() {
        let dir = tempdir("store");
        let s = DiskLayoutStore::open_dir(&dir, 0).unwrap();
        assert!(s.load(7, IsaId::X86_64).is_none());
        s.store(7, IsaId::X86_64, &layout());
        assert!(s.load(7, IsaId::X86_64).unwrap().agrees_with(&layout()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
