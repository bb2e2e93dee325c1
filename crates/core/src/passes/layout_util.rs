//! Shared helpers for the alignment passes: mapping loops to byte spans and
//! the [`LayoutProvider`] every layout-consuming pass obtains layouts from.

use std::sync::Arc;

use crate::analysis_cache::AnalysisCache;
use crate::cfg::Cfg;
use crate::loops::{Loop, LoopNest};
use crate::pass::{PassContext, PassError};
use crate::relax::{Layout, LayoutCache};
use crate::unit::{EditSet, EntryId, MaoUnit};

/// The layout-consuming passes' window onto relaxation: hands out layouts
/// and applies edits, so each edit costs an incremental
/// [`LayoutCache::patch`] of the model the unit holds instead of a
/// from-scratch solve. The unit keeps the solved or patched model until its
/// next edit, so the next layout pass over the same entries reads this
/// one's. A lookup that starts from a layout this provider did not leave
/// (its first one, or one after a patch fell back) counts as a layout hit
/// or miss in the pipeline's [`AnalysisCache`].
///
/// Debug builds check every layout handed out — freshly solved, patched or
/// held by the unit — against [`crate::relax::relax_reference`], the
/// entry-at-a-time solver kept as an oracle.
pub(crate) struct LayoutProvider {
    cache: LayoutCache,
    analyses: Arc<AnalysisCache>,
    /// Does the unit hold the layout this provider last read or patched?
    own: bool,
}

impl LayoutProvider {
    pub(crate) fn new(ctx: &PassContext) -> LayoutProvider {
        LayoutProvider {
            cache: LayoutCache::new(),
            analyses: ctx.analyses.clone(),
            own: false,
        }
    }

    /// The unit's current layout.
    pub(crate) fn layout(&mut self, unit: &MaoUnit) -> Result<Arc<Layout>, PassError> {
        if !self.own {
            self.analyses.count_layout(unit.relaxed().get().is_some());
            self.own = true;
        }
        let layout = self.cache.layout(unit)?;
        #[cfg(debug_assertions)]
        {
            let reference = crate::relax::relax_reference(unit)?;
            assert!(
                layout.agrees_with(&reference),
                "layout diverges from the reference solver"
            );
        }
        Ok(layout)
    }

    /// Apply `edits` to the unit, patching the cached layout incrementally.
    pub(crate) fn apply(&mut self, unit: &mut MaoUnit, edits: EditSet) -> Result<(), PassError> {
        self.cache.patch(unit, edits)?;
        self.own = unit.relaxed().get().is_some();
        Ok(())
    }

    /// One-line relaxation summary for the pass's stats notes; `None` when
    /// the provider was never exercised.
    pub(crate) fn note(&self) -> Option<String> {
        let s = self.cache.stats();
        if s.solves + s.patches + s.hits == 0 {
            return None;
        }
        Some(format!(
            "relax: {} solves, {} patches, {} cached, {} fallbacks, {} iterations, {} fit checks",
            s.solves, s.patches, s.hits, s.fallbacks, s.iterations, s.rechecks
        ))
    }
}

/// The byte extent of a loop whose blocks are laid out contiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSpan {
    /// First entry id of the loop (insertion point for padding/alignment).
    pub first_entry: EntryId,
    /// Last entry id of the loop.
    pub last_entry: EntryId,
    /// Section-relative start address.
    pub start: u64,
    /// Section-relative end address (exclusive).
    pub end: u64,
}

impl LoopSpan {
    /// Loop size in bytes.
    pub fn size(&self) -> u64 {
        self.end - self.start
    }

    /// Does the span cross a boundary of the given power-of-two `alignment`?
    pub fn crosses(&self, alignment: u64) -> bool {
        if self.size() == 0 {
            return false;
        }
        self.start / alignment != (self.end - 1) / alignment
    }

    /// Number of 16-byte decode lines the loop occupies.
    pub fn decode_lines(&self) -> u64 {
        Layout::decode_lines(self.start, self.end)
    }
}

/// Compute the byte span of `l` (including nested loops' blocks).
///
/// Returns `None` when the loop's entries are not contiguous in layout —
/// the alignment passes skip such loops rather than pad unrelated code.
pub fn loop_span(cfg: &Cfg, nest: &LoopNest, l: &Loop, layout: &Layout) -> Option<LoopSpan> {
    let mut ids: Vec<EntryId> = Vec::new();
    for b in l.all_blocks(nest) {
        ids.extend(cfg.blocks[b].entries.iter().copied());
    }
    if ids.is_empty() {
        return None;
    }
    ids.sort_unstable();
    let first = ids[0];
    let last = *ids.last().expect("non-empty");
    // Contiguity: the loop must own every entry id in its extent.
    if last - first + 1 != ids.len() || ids.windows(2).any(|w| w[1] != w[0] + 1) {
        return None;
    }
    Some(LoopSpan {
        first_entry: first,
        last_entry: last,
        start: layout.addr[first],
        end: layout.end_addr(last),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use crate::relax::relax;
    use crate::unit::MaoUnit;

    #[test]
    fn span_of_simple_loop() {
        let text = r#"
	.type	f, @function
f:
	movl $0, %eax
.L1:
	addl $1, %eax
	cmpl $10, %eax
	jne .L1
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let nest = find_loops(&cfg);
        let layout = relax(&unit).unwrap();
        let span = loop_span(&cfg, &nest, &nest.loops[0], &layout).unwrap();
        // addl(3) + cmpl(3) + jne(2) = 8 bytes, starting after the 5-byte mov.
        assert_eq!(span.start, 5);
        assert_eq!(span.size(), 8);
        assert_eq!(span.decode_lines(), 1);
        assert!(!span.crosses(16));
    }

    #[test]
    fn crossing_detection() {
        let s = LoopSpan {
            first_entry: 0,
            last_entry: 0,
            start: 14,
            end: 20,
        };
        assert!(s.crosses(16));
        let s = LoopSpan {
            first_entry: 0,
            last_entry: 0,
            start: 16,
            end: 20,
        };
        assert!(!s.crosses(16));
    }
}
