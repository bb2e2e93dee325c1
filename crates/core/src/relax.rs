//! Repeated relaxation: the address/size fixed point.
//!
//! Relaxation picks `rel8` vs `rel32` encodings for label-targeting branches
//! based on branch-target distances, which in turn depend on every
//! instruction's length — a circular dependency the paper resolves by
//! iterating to a fixed point (§II): *"In the implementation there is a
//! built-in limit of 100 iterations, but in practice almost every relaxation
//! succeeds in a few iterations, and it never fails."*
//!
//! Our implementation is monotone — a branch once widened to `rel32` never
//! shrinks back — which, together with bounded alignment padding, guarantees
//! termination well inside the limit.
//!
//! # Fragments
//!
//! The engine is organized around LLVM-MC-style *fragments*: one up-front
//! pass encodes every instruction exactly once (relaxable branches cache
//! both their `rel8` and `rel32` lengths) and coalesces maximal runs of
//! fixed-size entries into single fragments. Each fixed-point iteration is
//! then a prefix sum over the O(#branches + #aligns) variable fragments —
//! pure integer arithmetic, no re-encoding — and a monotone worklist skips
//! branches whose span saw no size change since their last check.
//!
//! [`relax`] runs the fragment engine over a whole unit. [`LayoutCache`]
//! keeps the fragment model alive across a pass's edits and re-lays-out
//! incrementally via [`LayoutCache::patch`]. [`relax_reference`] retains the
//! original entry-at-a-time algorithm (re-encoding every instruction every
//! iteration) as an oracle for the equivalence tests and for debug builds,
//! which check every layout a pass reads against it; it has no production
//! caller. Both produce identical layouts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mao_asm::{Directive, Entry};

pub use crate::isa::BranchForm;
use crate::isa::{branch_lengths, encoded_length};
use crate::unit::{EditSet, EntryId, MaoUnit};

/// Built-in iteration limit from the paper.
pub const MAX_ITERATIONS: usize = 100;

/// Relaxation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelaxError {
    /// An instruction could not be encoded (outside the supported subset).
    Encode {
        /// Entry id of the offending instruction.
        id: EntryId,
        /// Encoder message.
        message: String,
    },
    /// The fixed point was not reached within [`MAX_ITERATIONS`].
    DidNotConverge,
}

impl std::fmt::Display for RelaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelaxError::Encode { id, message } => {
                write!(f, "entry {id}: {message}")
            }
            RelaxError::DidNotConverge => {
                write!(
                    f,
                    "relaxation did not converge in {MAX_ITERATIONS} iterations"
                )
            }
        }
    }
}

impl std::error::Error for RelaxError {}

/// Counters describing how a layout was computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelaxMetrics {
    /// Total fragments in the unit's model.
    pub fragments: usize,
    /// Variable-size fragments (relaxable branches + alignment directives);
    /// each fixed-point pass costs O(this), not O(entries).
    pub variable_fragments: usize,
    /// Prefix-sum passes the fixed point ran (`iterations - 1`).
    pub passes: usize,
    /// Branch fit checks actually performed; the worklist skips the rest.
    pub rechecks: usize,
    /// Was this layout produced by an incremental patch?
    pub patched: bool,
}

/// The result of relaxation: per-entry addresses and sizes.
///
/// Addresses are section-relative (each section starts at 0). Entries in
/// non-text sections get data-directive sizes; unknown directives are
/// size 0.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Section-relative start address of each entry.
    pub addr: Vec<u64>,
    /// Size in bytes of each entry (0 for labels and most directives).
    pub size: Vec<u32>,
    /// Chosen branch form per entry; `None` for non-relaxable entries.
    pub branch_form: Vec<Option<BranchForm>>,
    /// Iterations needed to reach the fixed point.
    pub iterations: usize,
    /// How the fixed point got there.
    pub metrics: RelaxMetrics,
}

impl Layout {
    /// Address of the first byte after entry `id`.
    pub fn end_addr(&self, id: EntryId) -> u64 {
        self.addr[id] + u64::from(self.size[id])
    }

    /// Total byte size of an id range (assumes same section, contiguous).
    pub fn span_size(&self, first: EntryId, last: EntryId) -> u64 {
        self.end_addr(last).saturating_sub(self.addr[first])
    }

    /// Branch form in effect for entry `id` (non-relaxable entries encode
    /// with `rel32` semantics, which every fixed-length instruction ignores).
    pub fn form(&self, id: EntryId) -> BranchForm {
        self.branch_form
            .get(id)
            .copied()
            .flatten()
            .unwrap_or(BranchForm::Rel32)
    }

    /// Same addresses, sizes, branch forms, and iteration count? Metrics are
    /// ignored — they describe how the layout was computed, not the layout.
    pub fn agrees_with(&self, other: &Layout) -> bool {
        self.addr == other.addr
            && self.size == other.size
            && self.branch_form == other.branch_form
            && self.iterations == other.iterations
    }

    /// Number of 16-byte decode lines the byte range `[start, end)` touches.
    pub fn decode_lines(start: u64, end: u64) -> u64 {
        if end <= start {
            return 0;
        }
        (end - 1) / 16 - start / 16 + 1
    }
}

/// Is this a branch whose encoding relaxation must choose? (On x86,
/// `jmp`/`jcc` to a label; `call` always encodes `rel32` and is fixed-size.
/// Fixed-width ISAs have no relaxable branches at all, so their fixed point
/// converges immediately.)
fn relaxable_branch(e: &Entry) -> bool {
    e.insn_any().is_some_and(crate::isa::relaxable_branch)
}

/// Flat per-entry section slots. Sections with the same name share one
/// address space (a later `.text` resumes where the first left off),
/// matching gas.
fn intern_sections(unit: &MaoUnit) -> (Vec<u32>, u32) {
    let names = unit.section_names();
    let mut section_of = Vec::with_capacity(names.len());
    let mut slots: HashMap<&str, u32> = HashMap::new();
    for name in names {
        let next = slots.len() as u32;
        section_of.push(*slots.entry(name).or_insert(next));
    }
    let nsections = (slots.len() as u32).max(1);
    (section_of, nsections)
}

// ---------------------------------------------------------------------------
// Fragment model
// ---------------------------------------------------------------------------

/// Everything relaxation needs to know about one entry, computed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryMeta {
    /// Fixed-size entry: label (0), non-relaxable instruction (encoded
    /// length), or directive (data size). `u64` because data directives can
    /// declare sizes larger than `u32`; truncation to the layout's `u32`
    /// size happens only at output, exactly like the reference engine.
    Fixed(u64),
    /// Relaxable branch with both encodings cached.
    Branch {
        /// `rel8` length.
        len8: u32,
        /// `rel32` length.
        len32: u32,
    },
    /// Alignment directive: pad to `alignment` unless more than `max_skip`
    /// bytes would be needed.
    Align {
        /// Requested alignment in bytes.
        alignment: u64,
        /// Maximum padding gas would emit before abandoning the request.
        max_skip: Option<u64>,
    },
}

impl EntryMeta {
    fn of(entry: &Entry) -> Result<EntryMeta, String> {
        Ok(match entry {
            Entry::Label(_) => EntryMeta::Fixed(0),
            Entry::Directive(Directive::Align(a)) => EntryMeta::Align {
                alignment: a.alignment,
                max_skip: a.max_skip,
            },
            Entry::Directive(d) => EntryMeta::Fixed(d.data_size().unwrap_or(0)),
            Entry::Insn(i) => {
                if relaxable_branch(entry) {
                    let (len8, len32) = branch_lengths(i).map_err(|e| e.to_string())?;
                    EntryMeta::Branch { len8, len32 }
                } else {
                    let len = encoded_length(i, BranchForm::Rel32).map_err(|e| e.to_string())?;
                    EntryMeta::Fixed(len as u64)
                }
            }
        })
    }
}

/// One layout fragment: a maximal same-section run of fixed-size entries, or
/// a single variable-size entry (relaxable branch / alignment directive).
#[derive(Debug, Clone, Copy)]
enum Frag {
    /// Maximal fixed run totalling `bytes`.
    Fixed {
        /// Section slot.
        section: u32,
        /// Total byte size of the run.
        bytes: u64,
    },
    /// One relaxable branch entry.
    Branch {
        /// Section slot.
        section: u32,
        /// The branch's entry id.
        id: EntryId,
    },
    /// One alignment directive entry.
    Align {
        /// Section slot.
        section: u32,
        /// The directive's entry id.
        id: EntryId,
    },
}

impl Frag {
    fn section(&self) -> u32 {
        match *self {
            Frag::Fixed { section, .. }
            | Frag::Branch { section, .. }
            | Frag::Align { section, .. } => section,
        }
    }
}

/// The per-unit fragment model: cached per-entry sizes plus the fragment
/// list the fixed point iterates over. Rebuilding the fragment list from the
/// metas is pure integer work, which is what makes [`LayoutCache::patch`]
/// cheap — only entries introduced by an edit are ever re-encoded.
#[derive(Debug, Clone, Default)]
pub(crate) struct FragmentModel {
    /// Per-entry cached size information.
    metas: Vec<EntryMeta>,
    /// Per-entry section slot.
    section_of: Vec<u32>,
    /// Number of distinct section slots (at least 1).
    nsections: u32,
    /// The fragment list, in entry order.
    frags: Vec<Frag>,
    /// Per-entry fragment index.
    frag_of: Vec<u32>,
    /// Per-entry byte offset within its (fixed) fragment.
    intra: Vec<u64>,
}

impl FragmentModel {
    fn build(unit: &MaoUnit) -> Result<FragmentModel, RelaxError> {
        let n = unit.len();
        let mut metas = Vec::with_capacity(n);
        for (id, e) in unit.entries().iter().enumerate() {
            metas.push(EntryMeta::of(e).map_err(|message| RelaxError::Encode { id, message })?);
        }
        let (section_of, nsections) = intern_sections(unit);
        let mut model = FragmentModel {
            metas,
            section_of,
            nsections,
            frags: Vec::new(),
            frag_of: Vec::new(),
            intra: Vec::new(),
        };
        model.rebuild_frags();
        Ok(model)
    }

    /// Recompute the fragment list from the per-entry metas.
    fn rebuild_frags(&mut self) {
        let n = self.metas.len();
        self.frags.clear();
        self.frag_of.clear();
        self.frag_of.reserve(n);
        self.intra.clear();
        self.intra.reserve(n);
        // Open fixed run, if any: (section, bytes so far).
        let mut run: Option<(u32, u64)> = None;
        for id in 0..n {
            let sec = self.section_of[id];
            match self.metas[id] {
                EntryMeta::Fixed(bytes) => match &mut run {
                    Some((rsec, total)) if *rsec == sec => {
                        self.frag_of.push(self.frags.len() as u32);
                        self.intra.push(*total);
                        *total += bytes;
                    }
                    _ => {
                        if let Some((rsec, total)) = run.take() {
                            self.frags.push(Frag::Fixed {
                                section: rsec,
                                bytes: total,
                            });
                        }
                        self.frag_of.push(self.frags.len() as u32);
                        self.intra.push(0);
                        run = Some((sec, bytes));
                    }
                },
                EntryMeta::Branch { .. } | EntryMeta::Align { .. } => {
                    if let Some((rsec, total)) = run.take() {
                        self.frags.push(Frag::Fixed {
                            section: rsec,
                            bytes: total,
                        });
                    }
                    self.frag_of.push(self.frags.len() as u32);
                    self.intra.push(0);
                    self.frags.push(match self.metas[id] {
                        EntryMeta::Branch { .. } => Frag::Branch { section: sec, id },
                        _ => Frag::Align { section: sec, id },
                    });
                }
            }
        }
        if let Some((rsec, total)) = run.take() {
            self.frags.push(Frag::Fixed {
                section: rsec,
                bytes: total,
            });
        }
    }

    /// Run the fixed point and produce a [`Layout`].
    ///
    /// When `base` is given (incremental patch), entries before the first
    /// edit whose branch form did not change are copied from the base layout
    /// instead of being re-walked; the fixed point itself always starts from
    /// all-short, so the result is identical to a from-scratch solve of the
    /// current unit.
    fn solve(
        &self,
        unit: &MaoUnit,
        patched: bool,
        base: Option<(&Layout, EntryId)>,
    ) -> Result<Layout, RelaxError> {
        let n = self.metas.len();
        let nf = self.frags.len();
        let ns = self.nsections as usize;

        // Relaxable branches with their cached lengths and resolved targets.
        // Targets resolve through the unit's one label resolver
        // (`MaoUnit::find_label`, first definition wins).
        struct Br {
            frag: u32,
            id: EntryId,
            len8: u32,
            target: Option<EntryId>,
        }
        let mut branches: Vec<Br> = Vec::new();
        let mut naligns = 0usize;
        for (fi, frag) in self.frags.iter().enumerate() {
            match *frag {
                Frag::Branch { id, .. } => {
                    let EntryMeta::Branch { len8, .. } = self.metas[id] else {
                        unreachable!("branch frag points at a branch meta");
                    };
                    branches.push(Br {
                        frag: fi as u32,
                        id,
                        len8,
                        target: unit.branch_target(id),
                    });
                }
                Frag::Align { .. } => naligns += 1,
                Frag::Fixed { .. } => {}
            }
        }

        // Optimistic start: every relaxable branch short.
        let mut forms: Vec<Option<BranchForm>> = vec![None; n];
        for br in &branches {
            forms[br.id] = Some(BranchForm::Rel8);
        }
        let mut short: Vec<bool> = vec![true; branches.len()];

        // Per-fragment state for the prefix-sum passes.
        let mut frag_start = vec![0u64; nf];
        let mut pad = vec![0u64; nf];
        let mut prev_pad = vec![0u64; nf];
        // Fragments whose size changed between the previous pass and this
        // one (branches widened by the last check; aligns detected inline).
        let mut widened_frag = vec![false; nf];
        // Per-fragment count of changed same-section fragments strictly
        // before it — the worklist's interval query.
        let mut before = vec![0u32; nf];

        let mut widen_rounds = 0usize;
        let mut passes = 0usize;
        let mut rechecks = 0usize;

        loop {
            passes += 1;
            // 1. Prefix-sum pass: assign fragment start addresses.
            let mut cursor = vec![0u64; ns];
            let mut changed_count = vec![0u32; ns];
            for (fi, frag) in self.frags.iter().enumerate() {
                let sec = frag.section() as usize;
                before[fi] = changed_count[sec];
                frag_start[fi] = cursor[sec];
                let (size, changed) = match *frag {
                    Frag::Fixed { bytes, .. } => (bytes, false),
                    Frag::Branch { id, .. } => {
                        let EntryMeta::Branch { len8, len32 } = self.metas[id] else {
                            unreachable!();
                        };
                        let size = if forms[id] == Some(BranchForm::Rel32) {
                            u64::from(len32)
                        } else {
                            u64::from(len8)
                        };
                        (size, widened_frag[fi])
                    }
                    Frag::Align { id, .. } => {
                        let EntryMeta::Align {
                            alignment,
                            max_skip,
                        } = self.metas[id]
                        else {
                            unreachable!();
                        };
                        let align = alignment.max(1);
                        let pc = cursor[sec];
                        let skip = pc.next_multiple_of(align) - pc;
                        let allowed = max_skip.map_or(true, |max| skip <= max);
                        let p = if allowed { skip } else { 0 };
                        pad[fi] = p;
                        (p, passes > 1 && p != prev_pad[fi])
                    }
                };
                if changed {
                    changed_count[sec] += 1;
                }
                cursor[sec] += size;
            }

            // 2. Check still-short branches; the worklist skips any branch
            // whose span (the fragments between it and its target) saw no
            // size change since its last check — its displacement is
            // unchanged, so its fit decision is too.
            let mut newly_widened: Vec<u32> = Vec::new();
            for (bi, br) in branches.iter().enumerate() {
                if !short[bi] {
                    continue;
                }
                if passes > 1 {
                    let a = br.frag as usize;
                    let unchanged = match br.target {
                        Some(tid) if self.section_of[tid] == self.section_of[br.id] => {
                            let t = self.frag_of[tid] as usize;
                            let (lo, hi) = if t > a { (a, t) } else { (t, a) };
                            before[hi] - before[lo] == 0
                        }
                        // Unresolved or cross-section: widened by pass 1,
                        // never seen here again.
                        _ => true,
                    };
                    if unchanged {
                        continue;
                    }
                }
                rechecks += 1;
                let fits = match br.target {
                    Some(tid) if self.section_of[tid] == self.section_of[br.id] => {
                        let taddr = frag_start[self.frag_of[tid] as usize] + self.intra[tid];
                        let end = frag_start[br.frag as usize] + u64::from(br.len8);
                        BranchForm::Rel8.fits(taddr as i64 - end as i64)
                    }
                    // Cross-section or external target: must be rel32.
                    _ => false,
                };
                if !fits {
                    forms[br.id] = Some(BranchForm::Rel32);
                    short[bi] = false;
                    newly_widened.push(br.frag);
                }
            }

            if newly_widened.is_empty() {
                break;
            }
            widen_rounds += 1;
            // The reference engine spends one iteration per widening round,
            // one materializing the final sizes, and one confirming
            // stability; mirror its count and its convergence limit.
            if widen_rounds + 2 > MAX_ITERATIONS {
                return Err(RelaxError::DidNotConverge);
            }
            widened_frag.iter_mut().for_each(|w| *w = false);
            for fi in newly_widened {
                widened_frag[fi as usize] = true;
            }
            prev_pad.copy_from_slice(&pad);
        }

        let iterations = widen_rounds + 2;
        let metrics = RelaxMetrics {
            fragments: nf,
            variable_fragments: branches.len() + naligns,
            passes,
            rechecks,
            patched,
        };

        // 3. Finalize per-entry addresses. With a base layout, the stable
        // prefix (everything before the first edit, cut short at the first
        // branch whose form changed) is copied; the walk resumes from there.
        let mut layout = Layout {
            addr: vec![0; n],
            size: vec![0; n],
            branch_form: Vec::new(),
            iterations,
            metrics,
        };
        let mut cursor = vec![0u64; ns];
        let mut start_id = 0usize;
        if let Some((base, first_edit)) = base {
            let mut stable = first_edit.min(n).min(base.addr.len());
            for id in 0..stable {
                if base.branch_form[id] != forms[id] {
                    stable = id;
                    break;
                }
            }
            for id in 0..stable {
                layout.addr[id] = base.addr[id];
                layout.size[id] = base.size[id];
                cursor[self.section_of[id] as usize] = base.addr[id] + u64::from(base.size[id]);
            }
            start_id = stable;
        }
        for id in start_id..n {
            let sec = self.section_of[id] as usize;
            let pc = cursor[sec];
            layout.addr[id] = pc;
            let size = match self.metas[id] {
                EntryMeta::Fixed(bytes) => bytes,
                EntryMeta::Branch { len8, len32 } => {
                    if forms[id] == Some(BranchForm::Rel32) {
                        u64::from(len32)
                    } else {
                        u64::from(len8)
                    }
                }
                EntryMeta::Align {
                    alignment,
                    max_skip,
                } => {
                    let align = alignment.max(1);
                    let skip = pc.next_multiple_of(align) - pc;
                    let allowed = max_skip.map_or(true, |max| skip <= max);
                    if allowed {
                        skip
                    } else {
                        0
                    }
                }
            };
            layout.size[id] = size as u32;
            cursor[sec] = pc + size;
        }
        layout.branch_form = forms;

        record_totals(&layout);
        Ok(layout)
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Run repeated relaxation over the whole unit with the fragment engine.
///
/// Every section is laid out independently from address 0. Branches to
/// labels defined in the same section may use `rel8`; branches to anything
/// else (other sections, external symbols) are `rel32`.
pub fn relax(unit: &MaoUnit) -> Result<Layout, RelaxError> {
    let model = FragmentModel::build(unit)?;
    model.solve(unit, false, None)
}

/// The original entry-at-a-time relaxation: every iteration re-walks all N
/// entries and re-encodes every instruction. Kept only as the oracle the
/// fragment engine is checked against: by the property tests, and in debug
/// builds on every layout a pass reads (no production code calls it).
/// Produces layouts identical to [`relax`].
pub fn relax_reference(unit: &MaoUnit) -> Result<Layout, RelaxError> {
    let n = unit.len();
    let (section_of, nsections) = intern_sections(unit);
    let mut layout = Layout {
        addr: vec![0; n],
        size: vec![0; n],
        branch_form: vec![None; n],
        iterations: 0,
        metrics: RelaxMetrics::default(),
    };

    // Optimistic start: all relaxable branches short.
    for (id, e) in unit.entries().iter().enumerate() {
        if relaxable_branch(e) {
            layout.branch_form[id] = Some(BranchForm::Rel8);
        }
    }

    for iteration in 1..=MAX_ITERATIONS {
        layout.iterations = iteration;

        // 1. Assign addresses with current branch forms.
        let mut cursor = vec![0u64; nsections as usize];
        let mut changed_addr = false;
        for (id, e) in unit.entries().iter().enumerate() {
            let pc = &mut cursor[section_of[id] as usize];
            // Alignment directives move the cursor before the entry "starts".
            if let Entry::Directive(Directive::Align(a)) = e {
                let align = a.alignment.max(1);
                let aligned = pc.next_multiple_of(align);
                let skip = aligned - *pc;
                let allowed = a.max_skip.map_or(true, |max| skip <= max);
                let new_pc = if allowed { aligned } else { *pc };
                if layout.addr[id] != *pc {
                    changed_addr = true;
                }
                layout.addr[id] = *pc;
                layout.size[id] = (new_pc - *pc) as u32;
                *pc = new_pc;
                continue;
            }
            if layout.addr[id] != *pc {
                changed_addr = true;
            }
            layout.addr[id] = *pc;
            let size: u64 = match e {
                Entry::Label(_) => 0,
                Entry::Insn(i) => {
                    let form = layout.branch_form[id].unwrap_or(BranchForm::Rel32);
                    encoded_length(i, form).map_err(|e| RelaxError::Encode {
                        id,
                        message: e.to_string(),
                    })? as u64
                }
                Entry::Directive(d) => d.data_size().unwrap_or(0),
            };
            if layout.size[id] != size as u32 {
                changed_addr = true;
            }
            layout.size[id] = size as u32;
            *pc += size;
        }

        // 2. Widen branches whose target no longer fits rel8.
        let mut widened = false;
        for id in 0..n {
            if layout.branch_form[id] != Some(BranchForm::Rel8) {
                continue;
            }
            let fits = match unit.branch_target(id) {
                Some(tid) if section_of[tid] == section_of[id] => {
                    let delta = layout.addr[tid] as i64 - layout.end_addr(id) as i64;
                    BranchForm::Rel8.fits(delta)
                }
                // Cross-section or external target: must be rel32.
                _ => false,
            };
            if !fits {
                layout.branch_form[id] = Some(BranchForm::Rel32);
                widened = true;
            }
        }

        // Stability needs one full pass with no widening *and* no address
        // movement; iteration 1 always reports movement (addresses start
        // at zero).
        if !widened && !changed_addr && iteration > 1 {
            return Ok(layout);
        }
    }
    Err(RelaxError::DidNotConverge)
}

/// Relative displacement of a relaxed branch at `id` to its target, for
/// encoding: `target_addr - end_of_branch`.
pub fn branch_displacement(unit: &MaoUnit, layout: &Layout, id: EntryId) -> Option<i64> {
    let tid = unit.branch_target(id)?;
    Some(layout.addr[tid] as i64 - layout.end_addr(id) as i64)
}

// ---------------------------------------------------------------------------
// Incremental layout
// ---------------------------------------------------------------------------

/// A solved unit: the fragment model plus the layout it produced. Shared
/// between [`LayoutCache`] and the content-keyed slot in
/// [`crate::AnalysisCache`].
#[derive(Debug)]
pub(crate) struct Relaxed {
    pub(crate) model: FragmentModel,
    pub(crate) layout: Arc<Layout>,
}

impl Relaxed {
    pub(crate) fn build(unit: &MaoUnit) -> Result<Relaxed, RelaxError> {
        let model = FragmentModel::build(unit)?;
        let layout = Arc::new(model.solve(unit, false, None)?);
        Ok(Relaxed { model, layout })
    }

    /// Adopt an externally stored `layout` (e.g. from a persistent layout
    /// tier) instead of solving. Sound because [`FragmentModel`] carries
    /// only immutable per-entry structure — all fixpoint state lives inside
    /// [`FragmentModel::solve`] — so a model freshly built for `unit` plus
    /// the stored fixed point is exactly the state `build` would reach.
    /// Returns `None` when the layout's shape does not match the unit (a
    /// content-hash collision or a store bug); callers fall back to a solve.
    pub(crate) fn from_layout(unit: &MaoUnit, layout: Layout) -> Option<Relaxed> {
        let n = unit.entries().len();
        if layout.addr.len() != n || layout.size.len() != n || layout.branch_form.len() != n {
            return None;
        }
        let model = FragmentModel::build(unit).ok()?;
        Some(Relaxed {
            model,
            layout: Arc::new(layout),
        })
    }
}

/// Counters for one [`LayoutCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutCacheStats {
    /// `layout()` calls answered from the cached state without solving.
    pub hits: u64,
    /// Full solves (first layout, or recovery after a fallback).
    pub solves: u64,
    /// Incremental patches applied.
    pub patches: u64,
    /// Patches that had to fall back to a full rebuild (section-changing
    /// edits, or edits against an unknown unit state).
    pub fallbacks: u64,
    /// Cumulative fixed-point iterations across solves and patches.
    pub iterations: u64,
    /// Cumulative branch fit checks across solves and patches.
    pub rechecks: u64,
}

struct CacheEntry {
    relaxed: Arc<Relaxed>,
    /// The [`MaoUnit::version`] the layout was solved or patched for.
    version: u64,
}

/// Incrementally maintained layout for a unit being transformed by a pass.
///
/// The cached layout is valid exactly while the unit's
/// [`MaoUnit::version`] equals the one it was solved or patched for. Every
/// edit draws a new version, so an edit applied behind the cache's back
/// (`MaoUnit::apply`, `MaoUnit::entry_mut`) or another unit handed to the
/// same cache forces a full solve instead of a stale answer; route edits
/// through [`LayoutCache::patch`] to keep the incremental path.
#[derive(Default)]
pub struct LayoutCache {
    analyses: Option<Arc<crate::AnalysisCache>>,
    state: Option<CacheEntry>,
    stats: LayoutCacheStats,
}

impl LayoutCache {
    /// A cache that solves locally.
    pub fn new() -> LayoutCache {
        LayoutCache::default()
    }

    /// A cache that fetches full solves from (and publishes them to) the
    /// shared content-keyed analysis cache, so `maod` reuses layouts across
    /// requests. Patched layouts stay local — hashing the whole unit after
    /// every edit would cost more than the patch.
    pub fn with_analyses(analyses: Arc<crate::AnalysisCache>) -> LayoutCache {
        LayoutCache {
            analyses: Some(analyses),
            ..LayoutCache::default()
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LayoutCacheStats {
        self.stats
    }

    /// The unit's layout: cached if the unit is unchanged since the last
    /// call, otherwise a full solve.
    pub fn layout(&mut self, unit: &MaoUnit) -> Result<Arc<Layout>, RelaxError> {
        if let Some(st) = &self.state {
            if st.version == unit.version() {
                self.stats.hits += 1;
                return Ok(st.relaxed.layout.clone());
            }
        }
        let relaxed = match &self.analyses {
            Some(cache) => cache.relaxed(unit)?,
            None => Arc::new(Relaxed::build(unit)?),
        };
        self.stats.solves += 1;
        self.stats.iterations += relaxed.layout.iterations as u64;
        self.stats.rechecks += relaxed.layout.metrics.rechecks as u64;
        let layout = relaxed.layout.clone();
        self.state = Some(CacheEntry {
            relaxed,
            version: unit.version(),
        });
        Ok(layout)
    }

    /// Apply `edits` to the unit and incrementally update the cached layout.
    ///
    /// The per-entry metas are spliced alongside the edit (only entries the
    /// edit introduces are encoded), the fragment list is rebuilt with pure
    /// integer work, and the fixed point re-runs; finalization copies the
    /// stable prefix — everything before the first edited entry whose branch
    /// form held — from the previous layout. Edits that move entries between
    /// sections fall back to a full re-solve on the next [`LayoutCache::layout`]
    /// call. Either way the unit ends up exactly as `MaoUnit::apply` would
    /// leave it, and the next layout equals a from-scratch [`relax`].
    pub fn patch(&mut self, unit: &mut MaoUnit, edits: EditSet) -> Result<(), RelaxError> {
        let plan = match &self.state {
            Some(st) if st.version == unit.version() => {
                splice_model(&st.relaxed.model, unit.entries(), &edits)
            }
            _ => None,
        };
        unit.apply(edits);
        let Some((mut model, first_edit)) = plan else {
            self.stats.fallbacks += 1;
            self.state = None;
            return Ok(());
        };
        if model.metas.len() != unit.len() {
            debug_assert_eq!(model.metas.len(), unit.len(), "spliced model diverged");
            self.stats.fallbacks += 1;
            self.state = None;
            return Ok(());
        }
        model.rebuild_frags();
        let st = self
            .state
            .take()
            .expect("a splice plan implies cached state");
        let layout = match model.solve(unit, true, Some((&st.relaxed.layout, first_edit))) {
            Ok(l) => l,
            Err(e) => {
                // The unit keeps the edit; the error (bad inserted entry,
                // divergence) will equally hit any later full solve.
                return Err(e);
            }
        };
        self.stats.patches += 1;
        self.stats.iterations += layout.iterations as u64;
        self.stats.rechecks += layout.metrics.rechecks as u64;
        self.state = Some(CacheEntry {
            relaxed: Arc::new(Relaxed {
                model,
                layout: Arc::new(layout),
            }),
            version: unit.version(),
        });
        Ok(())
    }

    /// Drop the cached state (the next `layout()` call re-solves).
    pub fn invalidate(&mut self) {
        self.state = None;
    }
}

/// Splice `edits` into a copy of the model's per-entry metas, mirroring the
/// exact entry order `MaoUnit::apply` produces. Returns the spliced model
/// (fragments not yet rebuilt) and the first edited entry id, or `None` when
/// the edit cannot be patched: it adds or removes a section directive
/// (moving every later entry to another address space), inserts in front of
/// one (the inherited section would be wrong), or introduces an entry that
/// does not encode.
fn splice_model(
    model: &FragmentModel,
    entries: &[Entry],
    edits: &EditSet,
) -> Option<(FragmentModel, EntryId)> {
    fn shifts_sections(e: &Entry) -> bool {
        matches!(e, Entry::Directive(d) if d.section_name().is_some())
    }
    fn push_new(
        metas: &mut Vec<EntryMeta>,
        section_of: &mut Vec<u32>,
        new_entries: &[Entry],
        sec: u32,
    ) -> Option<()> {
        for e in new_entries {
            if shifts_sections(e) {
                return None;
            }
            metas.push(EntryMeta::of(e).ok()?);
            section_of.push(sec);
        }
        Some(())
    }

    let n = entries.len();
    debug_assert_eq!(model.metas.len(), n);
    let mut metas = Vec::with_capacity(n + edits.len());
    let mut section_of = Vec::with_capacity(n + edits.len());
    for (id, entry) in entries.iter().enumerate() {
        let sec = model.section_of[id];
        if let Some(ins) = edits.inserted_before(id) {
            // Entries inserted before a section directive belong to the
            // *previous* section; bail rather than model that edge.
            if shifts_sections(entry) {
                return None;
            }
            push_new(&mut metas, &mut section_of, ins, sec)?;
        }
        if edits.is_deleted(id) {
            if shifts_sections(entry) {
                return None;
            }
        } else if let Some(rep) = edits.replacement(id) {
            if shifts_sections(entry) {
                return None;
            }
            push_new(&mut metas, &mut section_of, rep, sec)?;
        } else {
            metas.push(model.metas[id]);
            section_of.push(sec);
        }
        if let Some(ins) = edits.inserted_after(id) {
            push_new(&mut metas, &mut section_of, ins, sec)?;
        }
    }
    if let Some(at_end) = edits.inserted_before(usize::MAX) {
        let sec = model.section_of.last().copied().unwrap_or(0);
        push_new(&mut metas, &mut section_of, at_end, sec)?;
    }
    let first_edit = edits.touched_ids().first().copied().unwrap_or(n).min(n);
    Some((
        FragmentModel {
            metas,
            section_of,
            nsections: model.nsections,
            frags: Vec::new(),
            frag_of: Vec::new(),
            intra: Vec::new(),
        },
        first_edit,
    ))
}

// ---------------------------------------------------------------------------
// Process-wide totals (surfaced by `maod`'s stats response)
// ---------------------------------------------------------------------------

static TOTAL_LAYOUTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_PATCHES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static TOTAL_RECHECKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FRAGMENTS: AtomicU64 = AtomicU64::new(0);

fn record_totals(layout: &Layout) {
    if layout.metrics.patched {
        TOTAL_PATCHES.fetch_add(1, Ordering::Relaxed);
    } else {
        TOTAL_LAYOUTS.fetch_add(1, Ordering::Relaxed);
    }
    TOTAL_ITERATIONS.fetch_add(layout.iterations as u64, Ordering::Relaxed);
    TOTAL_RECHECKS.fetch_add(layout.metrics.rechecks as u64, Ordering::Relaxed);
    TOTAL_FRAGMENTS.fetch_add(layout.metrics.fragments as u64, Ordering::Relaxed);
}

/// Process-wide relaxation totals since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelaxTotals {
    /// Full fragment solves.
    pub layouts: u64,
    /// Incremental patches.
    pub patches: u64,
    /// Cumulative fixed-point iterations.
    pub iterations: u64,
    /// Cumulative branch fit checks (the worklist skips the rest).
    pub rechecks: u64,
    /// Cumulative fragment count across solves (divide by `layouts +
    /// patches` for the average model size).
    pub fragments: u64,
}

/// Snapshot of the process-wide relaxation totals.
pub fn relax_totals() -> RelaxTotals {
    RelaxTotals {
        layouts: TOTAL_LAYOUTS.load(Ordering::Relaxed),
        patches: TOTAL_PATCHES.load(Ordering::Relaxed),
        iterations: TOTAL_ITERATIONS.load(Ordering::Relaxed),
        rechecks: TOTAL_RECHECKS.load(Ordering::Relaxed),
        fragments: TOTAL_FRAGMENTS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::x86::{Instruction, Mnemonic};

    /// The exact scenario from the paper's §II listing: a forward `jmp` over
    /// a 0x7f-byte gap fits rel8; inserting a single NOP before the target
    /// pushes it to rel32, moving the target down by 4 bytes (1 for the NOP,
    /// 3 for the wider branch).
    #[test]
    fn paper_relaxation_example() {
        let body: String = std::iter::repeat("\tnop\n").take(0x7f).collect();
        let asm = format!(
            "main:\n\tpush %rbp\n\tmov %rsp, %rbp\n\tmovl $5, -4(%rbp)\n\tjmp .Lc\n{body}.Lc:\n\tcmpl $0, -4(%rbp)\n\tjne .Lb\n"
        );
        // Layout without the extra NOP: jmp at 0xb, target .Lc at 0x8c.
        let unit = MaoUnit::parse(&asm).unwrap();
        let layout = relax(&unit).unwrap();
        let jmp_id = unit
            .entries()
            .iter()
            .position(|e| e.insn().is_some_and(|i| i.mnemonic == Mnemonic::Jmp))
            .unwrap();
        assert_eq!(layout.addr[jmp_id], 0xb);
        assert_eq!(layout.size[jmp_id], 2, "jmp fits rel8");
        let lc = unit.find_label(".Lc").unwrap();
        assert_eq!(layout.addr[lc], 0x8c);

        // Insert one more NOP before .Lc: displacement 0x80 no longer fits
        // rel8, so the jmp becomes 5 bytes and .Lc lands at 0x90.
        let asm2 = asm.replace(".Lc:", "\tnop\n.Lc:");
        let unit2 = MaoUnit::parse(&asm2).unwrap();
        let layout2 = relax(&unit2).unwrap();
        let jmp_id2 = unit2
            .entries()
            .iter()
            .position(|e| e.insn().is_some_and(|i| i.mnemonic == Mnemonic::Jmp))
            .unwrap();
        assert_eq!(layout2.size[jmp_id2], 5, "jmp widened to rel32");
        let lc2 = unit2.find_label(".Lc").unwrap();
        assert_eq!(layout2.addr[lc2], 0x90);
        // jne at the end: backward branch to .Lb does not exist -> external.
        assert!(layout2.iterations >= 2);
    }

    #[test]
    fn backward_branch_stays_short() {
        let unit = MaoUnit::parse(".L1:\n\tnop\n\tjmp .L1\n").unwrap();
        let layout = relax(&unit).unwrap();
        let jmp = 2;
        assert_eq!(layout.size[jmp], 2);
        assert_eq!(branch_displacement(&unit, &layout, jmp), Some(-3));
    }

    #[test]
    fn external_target_uses_rel32() {
        let unit = MaoUnit::parse("\tjmp external_symbol\n").unwrap();
        let layout = relax(&unit).unwrap();
        assert_eq!(layout.size[0], 5);
    }

    #[test]
    fn call_is_always_rel32() {
        let unit = MaoUnit::parse("f:\n\tcall f\n").unwrap();
        let layout = relax(&unit).unwrap();
        assert_eq!(layout.size[1], 5);
        // Calls are fixed-size, not relaxable: no branch form is recorded
        // (matching the original engine, whose branch-form map never held
        // them either).
        assert_eq!(layout.branch_form[1], None);
    }

    #[test]
    fn align_directive_advances_cursor() {
        let unit = MaoUnit::parse("\tnop\n\t.p2align 4\n.L:\n\tret\n").unwrap();
        let layout = relax(&unit).unwrap();
        assert_eq!(layout.addr[0], 0);
        assert_eq!(layout.size[1], 15); // pad 1 -> 16
        assert_eq!(layout.addr[2], 16); // label after align
        assert_eq!(layout.addr[3], 16);
    }

    #[test]
    fn align_max_skip_abandons() {
        // .p2align 4,,3 at offset 1 would need 15 bytes > 3: abandoned.
        let unit = MaoUnit::parse("\tnop\n\t.p2align 4,,3\n\tret\n").unwrap();
        let layout = relax(&unit).unwrap();
        assert_eq!(layout.size[1], 0);
        assert_eq!(layout.addr[2], 1);
    }

    #[test]
    fn sections_have_independent_addresses() {
        let unit =
            MaoUnit::parse(".text\n\tnop\n.section .rodata\n\t.long 1\n.text\n\tret\n").unwrap();
        let layout = relax(&unit).unwrap();
        // .long starts at rodata offset 0 (entry 3; entry 2 is .section).
        assert_eq!(layout.addr[3], 0);
        assert_eq!(layout.size[3], 4);
        // ret resumes .text at offset 1 (after the nop).
        assert_eq!(layout.addr[5], 1);
    }

    #[test]
    fn chained_widening_converges() {
        // Two branches at ~0x7f distance where widening the first pushes the
        // second over the edge too.
        let pad: String = std::iter::repeat("\tnop\n").take(0x7c).collect();
        let asm = format!("\tjmp .La\n\tjmp .Lb\n{pad}.La:\n\tnop\n\tnop\n.Lb:\n\tret\n");
        let unit = MaoUnit::parse(&asm).unwrap();
        let layout = relax(&unit).unwrap();
        // First jmp: end 2 -> .La at 2+0x7c... both must agree with sizes.
        assert!(layout.iterations >= 2);
        for id in [0usize, 1usize] {
            let delta = branch_displacement(&unit, &layout, id).unwrap();
            assert!(layout.form(id).fits(delta));
        }
    }

    #[test]
    fn decode_lines_helper() {
        assert_eq!(Layout::decode_lines(0, 16), 1);
        assert_eq!(Layout::decode_lines(0, 17), 2);
        assert_eq!(Layout::decode_lines(15, 17), 2);
        assert_eq!(Layout::decode_lines(16, 32), 1);
        assert_eq!(Layout::decode_lines(5, 5), 0);
        // The Figure 4 scenario: ~70 bytes starting mid-line spans 6 lines.
        assert_eq!(Layout::decode_lines(10, 76), 5);
    }

    #[test]
    fn span_size() {
        let unit = MaoUnit::parse("\tnop\n\tnop\n\tret\n").unwrap();
        let layout = relax(&unit).unwrap();
        assert_eq!(layout.span_size(0, 2), 3);
    }

    // -- fragment engine vs reference ------------------------------------

    fn fixtures() -> Vec<String> {
        let body: String = std::iter::repeat("\tnop\n").take(0x7f).collect();
        let pad: String = std::iter::repeat("\tnop\n").take(0x7c).collect();
        vec![
            String::new(),
            "\tnop\n".into(),
            ".L1:\n\tnop\n\tjmp .L1\n".into(),
            "\tjmp external_symbol\n".into(),
            "f:\n\tcall f\n".into(),
            "\tnop\n\t.p2align 4\n.L:\n\tret\n".into(),
            "\tnop\n\t.p2align 4,,3\n\tret\n".into(),
            ".text\n\tnop\n.section .rodata\n\t.long 1\n.text\n\tret\n".into(),
            format!("main:\n\tpush %rbp\n\tjmp .Lc\n{body}.Lc:\n\tjne .Lb\n"),
            format!("\tjmp .La\n\tjmp .Lb\n{pad}.La:\n\tnop\n\tnop\n.Lb:\n\tret\n"),
            // Duplicate labels: both engines must pick the first definition.
            ".La:\n\tnop\n\tjmp .La\n.La:\n\tret\n".into(),
        ]
    }

    #[test]
    fn fragment_engine_matches_reference_on_fixtures() {
        for asm in fixtures() {
            let unit = MaoUnit::parse(&asm).unwrap();
            let fragment = relax(&unit).unwrap();
            let reference = relax_reference(&unit).unwrap();
            assert!(
                fragment.agrees_with(&reference),
                "divergence on:\n{asm}\nfragment: {fragment:?}\nreference: {reference:?}"
            );
        }
    }

    /// Regression for the old split-brain resolvers: `relax()` used its own
    /// first-occurrence label map while `branch_displacement()` used the
    /// unit index. With duplicate labels both now go through
    /// `MaoUnit::find_label`, so the form chosen for a branch and the
    /// displacement encoded for it always describe the same target.
    #[test]
    fn duplicate_labels_resolve_to_first_definition_everywhere() {
        let unit = MaoUnit::parse(".La:\n\tnop\n\tjmp .La\n.La:\n\tret\n").unwrap();
        let jmp = 2;
        assert_eq!(unit.branch_target(jmp), Some(0));
        let layout = relax(&unit).unwrap();
        // Backward to the first .La: short form, negative displacement.
        assert_eq!(layout.form(jmp), BranchForm::Rel8);
        let delta = branch_displacement(&unit, &layout, jmp).unwrap();
        assert_eq!(delta, -3);
        assert!(layout.form(jmp).fits(delta));
    }

    #[test]
    fn metrics_describe_the_fixed_point() {
        let unit = MaoUnit::parse(".L1:\n\tnop\n\tjmp .L1\n\tnop\n\tret\n").unwrap();
        let layout = relax(&unit).unwrap();
        // nop / jmp / nop+ret coalesce around the single variable fragment.
        assert_eq!(layout.metrics.variable_fragments, 1);
        assert_eq!(layout.metrics.fragments, 3);
        assert_eq!(layout.metrics.passes, layout.iterations - 1);
        // One branch, never widened: checked once, in pass 1.
        assert_eq!(layout.metrics.rechecks, 1);
        assert!(!layout.metrics.patched);
    }

    // -- incremental patches ---------------------------------------------

    fn parse_entries(asm: &str) -> Vec<Entry> {
        MaoUnit::parse(asm).unwrap().entries().to_vec()
    }

    /// Patch `unit` through a `LayoutCache` and check the resulting layout
    /// against a from-scratch solve of an identically edited clone.
    fn check_patch(asm: &str, edits: EditSet) {
        let mut unit = MaoUnit::parse(asm).unwrap();
        let mut expected_unit = unit.clone();
        expected_unit.apply(edits.clone());
        let expected = relax(&expected_unit).unwrap();

        let mut cache = LayoutCache::new();
        cache.layout(&unit).unwrap();
        cache.patch(&mut unit, edits).unwrap();
        assert_eq!(unit.entries(), expected_unit.entries());
        let patched = cache.layout(&unit).unwrap();
        assert!(
            patched.agrees_with(&expected),
            "patched layout diverged on:\n{asm}\npatched: {patched:?}\nexpected: {expected:?}"
        );
        assert!(expected.agrees_with(&relax_reference(&expected_unit).unwrap()));
    }

    #[test]
    fn patch_insert_nop_matches_full_relax() {
        let body: String = std::iter::repeat("\tnop\n").take(0x7e).collect();
        let asm = format!("main:\n\tjmp .Lc\n{body}.Lc:\n\tret\n");
        let unit = MaoUnit::parse(&asm).unwrap();
        let lc = unit.find_label(".Lc").unwrap();
        // One NOP before the target: pushes the jmp from rel8 to rel32.
        let mut edits = EditSet::new();
        edits.insert_before(lc, parse_entries("\tnop\n"));
        check_patch(&asm, edits);
    }

    #[test]
    fn patch_delete_and_replace_matches_full_relax() {
        let asm = ".L1:\n\tnop\n\tnop\n\tjmp .L1\n\tret\n";
        let mut edits = EditSet::new();
        edits.delete(1);
        edits.replace(2, parse_entries("\tmov %rsp, %rbp\n"));
        check_patch(asm, edits);
    }

    #[test]
    fn patch_label_edits_match_full_relax() {
        // Deleting the first duplicate re-resolves the branch to the second.
        let asm = ".La:\n\tnop\n\tjmp .La\n.La:\n\tret\n";
        let mut edits = EditSet::new();
        edits.delete(0);
        check_patch(asm, edits);
    }

    #[test]
    fn patch_append_matches_full_relax() {
        let asm = "\tnop\n\tret\n";
        let mut edits = EditSet::new();
        edits.insert_before(usize::MAX, parse_entries("\t.p2align 4\n\tnop\n"));
        check_patch(asm, edits);
    }

    #[test]
    fn patch_section_edit_falls_back_to_full_solve() {
        let asm = "\tnop\n\tret\n";
        let mut edits = EditSet::new();
        edits.insert_before(usize::MAX, parse_entries(".section .rodata\n\t.long 7\n"));
        check_patch(asm, edits); // falls back internally; result still exact

        let mut unit = MaoUnit::parse(asm).unwrap();
        let mut cache = LayoutCache::new();
        cache.layout(&unit).unwrap();
        let mut edits = EditSet::new();
        edits.insert_before(usize::MAX, parse_entries(".section .rodata\n\t.long 7\n"));
        cache.patch(&mut unit, edits).unwrap();
        assert_eq!(cache.stats().fallbacks, 1);
    }

    #[test]
    fn patched_layout_reports_patch_metrics() {
        let asm = ".L1:\n\tnop\n\tjmp .L1\n\tret\n";
        let mut unit = MaoUnit::parse(asm).unwrap();
        let mut cache = LayoutCache::new();
        cache.layout(&unit).unwrap();
        let mut edits = EditSet::new();
        edits.insert_before(1, parse_entries("\tnop\n"));
        cache.patch(&mut unit, edits).unwrap();
        let layout = cache.layout(&unit).unwrap();
        assert!(layout.metrics.patched);
        let stats = cache.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn layout_cache_hits_on_unchanged_unit() {
        let unit = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let mut cache = LayoutCache::new();
        let a = cache.layout(&unit).unwrap();
        let b = cache.layout(&unit).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().solves, 1);
    }

    /// A same-length edit applied behind the cache's back (neither the
    /// entry count nor the context epoch moves) must still be seen.
    #[test]
    fn layout_cache_sees_same_length_edit_outside_patch() {
        let mut unit = MaoUnit::parse("f:\n\tnop\n\tnop\n\tret\n").unwrap();
        let mut cache = LayoutCache::new();
        assert_eq!(cache.layout(&unit).unwrap().addr, vec![0, 0, 1, 2]);
        let mut edits = EditSet::new();
        edits.replace_insn(1, Instruction::nop_of_len(5));
        unit.apply(edits);
        let after = cache.layout(&unit).unwrap();
        assert_eq!(after.addr, vec![0, 0, 5, 6]);
        assert!(after.agrees_with(&relax(&unit).unwrap()));
        assert_eq!(cache.stats().solves, 2, "the stale layout must not hit");

        // `entry_mut` draws a new version even when nothing is written.
        let _ = unit.entry_mut(1);
        cache.layout(&unit).unwrap();
        assert_eq!(cache.stats().solves, 3);
    }

    /// One cache handed two different units of the same length re-solves.
    #[test]
    fn layout_cache_tells_equal_length_units_apart() {
        let a = MaoUnit::parse("\tnop\n\tret\n").unwrap();
        let b = MaoUnit::parse("\tpush %rbp\n\tret\n").unwrap();
        let mut cache = LayoutCache::new();
        cache.layout(&a).unwrap();
        let lb = cache.layout(&b).unwrap();
        assert!(lb.agrees_with(&relax(&b).unwrap()));
        assert_eq!(cache.stats().solves, 2);
    }
}
