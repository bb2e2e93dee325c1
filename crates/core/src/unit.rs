//! The MAO IR: one long entry list with section and function views.
//!
//! The paper: *"After parsing, all assembly directives and instructions form
//! one long list of MAO IR nodes. To reflect the structure of assembly
//! files, MAO offers a notion of sections and functions and provides easy
//! access to these higher level concepts via corresponding iterators."*
//!
//! A [`MaoUnit`] owns the flat `Vec<Entry>`; [`Section`] and [`Function`]
//! are computed views of index ranges. A function split across sections by
//! an intermittent data section (the jump-table pattern GCC emits for
//! `switch`) has multiple [`Function::spans`] and its iterator walks them
//! transparently, exactly as §II requires.
//!
//! The views live in a lazily built [`UnitIndex`] that [`MaoUnit::apply`]
//! patches in place when an [`EditSet`] only touches entries strictly inside
//! function bodies (the common case for peephole passes). Structural edits —
//! anything inserting or removing labels, section directives, or `.type`
//! markers, or touching entries outside function spans — drop the index for
//! a full rebuild on next access.
//!
//! The index also holds each function's analysis slot
//! ([`FunctionAnalyses`]: CFG, loop nest, dataflow), and the unit holds its
//! solved layout ([`Relaxed`]). Both describe the current entries and live
//! exactly as long as they do: a rebuilt index starts every slot empty, so
//! nothing built against cross-function context (jump tables in `.rodata`)
//! outlives an edit to it; a patch empties the slot of every function the
//! edit touches or shifts, unless its analyses are carried (see
//! [`MaoUnit::apply_lists`]); and every edit drops the layout, unless
//! [`LayoutCache::patch`](crate::relax::LayoutCache::patch) puts the patched
//! one in its place.

use std::collections::hash_map::Entry as Slot;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use mao_asm::{Directive, Entry, ParseError};

use crate::analysis_cache::{check_carried, FunctionAnalyses};
use crate::cfg::is_plain;
use crate::isa::x86::Instruction;
use crate::isa::{Insn, IsaId};
use crate::relax::Relaxed;

/// Index of an entry in the unit's flat list.
pub type EntryId = usize;

/// A contiguous run of entries in one section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`.text`, `.rodata`, ...).
    pub name: String,
    /// Entry ranges belonging to this section, in file order. A section can
    /// appear several times in a file; each appearance is one range.
    pub ranges: Vec<Range<EntryId>>,
}

impl Section {
    /// Is this an executable (text-like) section?
    pub fn is_text(&self) -> bool {
        is_text_section(&self.name)
    }

    /// All entry ids in this section, in order.
    #[inline]
    pub fn entry_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }
}

fn is_text_section(name: &str) -> bool {
    name == ".text" || name.starts_with(".text.")
}

/// A function view over the unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function (symbol) name.
    pub name: String,
    /// Entry id of the function's defining label.
    pub label_id: EntryId,
    /// Entry ranges forming the function body, in order. More than one when
    /// a data section interrupts the function's text.
    pub spans: Vec<Range<EntryId>>,
}

impl Function {
    /// All entry ids of the function body, in order, spanning section splits
    /// transparently.
    #[inline]
    pub fn entry_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.spans.iter().flat_map(|r| r.clone())
    }

    /// Does the function contain this entry id?
    ///
    /// Spans are sorted and disjoint, so this is a binary search over span
    /// boundaries rather than a linear scan.
    #[inline]
    pub fn contains(&self, id: EntryId) -> bool {
        self.spans
            .binary_search_by(|r| {
                if r.end <= id {
                    std::cmp::Ordering::Less
                } else if r.start > id {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

/// Per-thread counts of the CFG and liveness builds the analysis cache pays
/// for, for the tests that pin those budgets.
#[cfg(test)]
pub(crate) mod work_counts {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// CFGs built by the analysis cache (carried ones are not built).
        pub(crate) static CFG_BUILDS: Cell<u64> = const { Cell::new(0) };
        /// Liveness tables built by the analysis cache.
        pub(crate) static LIVENESS_BUILDS: Cell<u64> = const { Cell::new(0) };
        /// Carried CFGs re-based onto shifted positions (a CFG kept as it
        /// is across an edit that moved nothing is not counted).
        pub(crate) static CFG_REBASES: Cell<u64> = const { Cell::new(0) };
        /// Set while a test measures `apply`'s own allocations: pauses the
        /// debug-build index oracle, a full rebuild by design.
        pub(crate) static INDEX_ORACLE_PAUSED: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn bump(counter: &'static LocalKey<Cell<u64>>, n: u64) {
        counter.with(|c| c.set(c.get() + n));
    }

    pub(crate) fn get(counter: &'static LocalKey<Cell<u64>>) -> u64 {
        counter.with(Cell::get)
    }
}

/// The section, function, and label views of a unit, built in one pass over
/// the entries and kept current across [`MaoUnit::apply`] when possible.
#[derive(Debug, Clone, Default)]
struct UnitIndex {
    sections: Vec<Section>,
    functions: Vec<Function>,
    /// Label name → its slot in `label_ids` (first definition wins).
    labels: HashMap<&'static str, usize>,
    /// The entry id of every label in `labels`, ascending, so a patch
    /// shifts them in one walk from its first edit.
    label_ids: Vec<EntryId>,
    /// Each function's analysis slot, parallel to `functions`: empty at
    /// build, and kept, carried or emptied by [`MaoUnit::try_patch_index`].
    analyses: Vec<OnceLock<Arc<FunctionAnalyses>>>,
}

impl PartialEq for UnitIndex {
    fn eq(&self, other: &UnitIndex) -> bool {
        // Analyses are derived on demand, not structure.
        self.sections == other.sections
            && self.functions == other.functions
            && self.labels == other.labels
            && self.label_ids == other.label_ids
    }
}

/// Section name in effect for each entry (`.text` before any section
/// directive, matching gas's default).
fn section_names(entries: &[Entry]) -> Vec<&str> {
    let mut out = Vec::with_capacity(entries.len());
    let mut current = ".text";
    for e in entries {
        if let Entry::Directive(d) = e {
            if let Some(name) = d.section_name() {
                current = name;
            }
            // Directives like .previous/.popsection are not modeled; the
            // corpus this reproduction handles does not use them.
        }
        out.push(current);
    }
    out
}

/// Build the full index from scratch: one pass for section names, then the
/// section ranges, label map, and function spans.
fn build_index(entries: &[Entry]) -> UnitIndex {
    let names = section_names(entries);

    // Sections: group maximal runs of equal section name.
    let mut sections: Vec<Section> = Vec::new();
    let mut slot_of: HashMap<&str, usize> = HashMap::new();
    let mut i = 0;
    while i < names.len() {
        let name = names[i];
        let mut j = i;
        while j < names.len() && names[j] == name {
            j += 1;
        }
        let slot = *slot_of.entry(name).or_insert_with(|| {
            sections.push(Section {
                name: name.to_string(),
                ranges: Vec::new(),
            });
            sections.len() - 1
        });
        sections[slot].ranges.push(i..j);
        i = j;
    }

    // Labels: first definition wins.
    let mut labels: HashMap<&'static str, usize> = HashMap::new();
    let mut label_ids: Vec<EntryId> = Vec::new();
    for (id, e) in entries.iter().enumerate() {
        if let Entry::Label(l) = e {
            if let Slot::Vacant(slot) = labels.entry(l.as_str()) {
                slot.insert(label_ids.len());
                label_ids.push(id);
            }
        }
    }

    // Functions: a function starts at its defining label (in a text section,
    // with a matching `.type sym, @function`) and extends to the next
    // function start or the end of the unit. Non-text ranges inside that
    // extent are excluded from the spans, so iteration skips interleaved
    // data sections — the transparency property of §II.
    let symbols: HashSet<&str> = entries
        .iter()
        .filter_map(|e| match e {
            Entry::Directive(Directive::Type { symbol, kind }) if kind == "function" => {
                Some(symbol.as_str())
            }
            _ => None,
        })
        .collect();
    let mut starts: Vec<(EntryId, &str)> = Vec::new();
    for (id, e) in entries.iter().enumerate() {
        if let Entry::Label(l) = e {
            if is_text_section(names[id]) && symbols.contains(l.as_str()) {
                starts.push((id, l));
            }
        }
    }
    let mut functions = Vec::with_capacity(starts.len());
    for (k, &(start, name)) in starts.iter().enumerate() {
        let end = starts.get(k + 1).map_or(entries.len(), |&(s, _)| s);
        let mut spans: Vec<Range<EntryId>> = Vec::new();
        let mut i = start;
        while i < end {
            if is_text_section(names[i]) {
                let mut j = i;
                while j < end && is_text_section(names[j]) {
                    j += 1;
                }
                spans.push(i..j);
                i = j;
            } else {
                i += 1;
            }
        }
        functions.push(Function {
            name: name.to_string(),
            label_id: start,
            spans,
        });
    }

    UnitIndex {
        sections,
        analyses: functions.iter().map(|_| OnceLock::new()).collect(),
        functions,
        labels,
        label_ids,
    }
}

/// Should [`MaoUnit::apply`] check a patched index against a rebuild? In
/// debug builds, unless a test measuring apply's own allocations paused it.
fn index_oracle_on() -> bool {
    #[cfg(test)]
    if work_counts::INDEX_ORACLE_PAUSED.with(std::cell::Cell::get) {
        return false;
    }
    cfg!(debug_assertions)
}

/// Is this entry one the index structure depends on? Labels define the label
/// map and function starts; section directives define section ranges and
/// which entries count as text; `.type` directives define which labels are
/// functions. Touching any of these means the index must be rebuilt.
pub(crate) fn is_structural(e: &Entry) -> bool {
    match e {
        Entry::Label(_) => true,
        Entry::Insn(_) => false,
        Entry::Directive(d) => d.section_name().is_some() || matches!(d, Directive::Type { .. }),
    }
}

/// The MAO IR unit: the parsed assembly file.
#[derive(Debug, Clone, Default)]
pub struct MaoUnit {
    entries: Vec<Entry>,
    /// The instruction set the unit's instructions belong to. Inferred from
    /// the first instruction entry (directive-only units default to x86-64,
    /// matching the pre-ISA-boundary behavior). Mixed-ISA units are not
    /// modeled: the front end parses a whole file under one dialect.
    isa: IsaId,
    /// Lazily built section/function/label views; dropped (and rebuilt on
    /// next access) whenever an edit cannot be patched in place.
    index: OnceLock<UnitIndex>,
    /// The solved layout of the current entries, once a pass asked for it;
    /// dropped by every edit (see [`Relaxed::of`]).
    relaxed: OnceLock<Arc<Relaxed>>,
}

impl PartialEq for MaoUnit {
    fn eq(&self, other: &MaoUnit) -> bool {
        // The index, its analyses and the layout are derived state; two
        // units are equal iff their entries are.
        self.entries == other.entries
    }
}

impl MaoUnit {
    /// Build a unit from already-parsed entries. The unit's ISA is inferred
    /// from the first instruction entry.
    pub fn from_entries(mut entries: Vec<Entry>) -> MaoUnit {
        // Edits work in this buffer for the unit's whole life, so the
        // parser's generous estimate is returned now (in place, for any
        // allocator that shrinks without moving).
        entries.shrink_to_fit();
        let isa = mao_asm::snapshot::unit_isa(&entries);
        MaoUnit {
            entries,
            isa,
            ..MaoUnit::default()
        }
    }

    /// Parse assembly text into a unit (the default first pass of the
    /// pipeline). Instructions are parsed in the x86-64 dialect; use
    /// [`MaoUnit::parse_isa`] for other targets.
    pub fn parse(text: &str) -> Result<MaoUnit, ParseError> {
        Ok(MaoUnit::from_entries(mao_asm::parse(text)?))
    }

    /// Parse assembly text under the given ISA's dialect.
    pub fn parse_isa(text: &str, isa: IsaId) -> Result<MaoUnit, ParseError> {
        let mut unit = MaoUnit::from_entries(mao_asm::parse_isa(text, isa)?);
        // Directive-only units still belong to the requested target; the
        // entry scan cannot see that.
        unit.isa = isa;
        Ok(unit)
    }

    /// Like [`MaoUnit::parse`], splitting large inputs across up to `jobs`
    /// threads (0 = one per available core). Output is byte-identical to
    /// the sequential parse; small inputs stay sequential.
    pub fn parse_with_jobs(text: &str, jobs: usize) -> Result<MaoUnit, ParseError> {
        Ok(MaoUnit::from_entries(mao_asm::parse_with_jobs(text, jobs)?))
    }

    /// Like [`MaoUnit::parse_with_jobs`] under the given ISA's dialect.
    pub fn parse_with_jobs_isa(text: &str, jobs: usize, isa: IsaId) -> Result<MaoUnit, ParseError> {
        let mut unit = MaoUnit::from_entries(mao_asm::parse_with_jobs_isa(text, jobs, isa)?);
        unit.isa = isa;
        Ok(unit)
    }

    /// Like [`MaoUnit::from_entries`] with the unit's ISA pinned rather
    /// than inferred — for snapshot loads whose request declared a target
    /// (a directive-only entry list carries no ISA evidence of its own).
    pub fn from_entries_isa(entries: Vec<Entry>, isa: IsaId) -> MaoUnit {
        let mut unit = MaoUnit::from_entries(entries);
        unit.isa = isa;
        unit
    }

    /// The instruction set this unit's instructions belong to.
    #[inline]
    pub fn isa(&self) -> IsaId {
        self.isa
    }

    /// Emit the unit as textual assembly (the `ASM` pass).
    pub fn emit(&self) -> String {
        mao_asm::emit(&self.entries)
    }

    /// The flat entry list.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the unit empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by id.
    #[inline]
    pub fn entry(&self, id: EntryId) -> &Entry {
        &self.entries[id]
    }

    /// Mutable entry access (for in-place rewriting). The caller may change
    /// anything — including turning the entry into a label or section
    /// directive — so this conservatively drops the cached index, with
    /// every analysis slot, and the layout.
    pub fn entry_mut(&mut self, id: EntryId) -> &mut Entry {
        self.index = OnceLock::new();
        self.relaxed = OnceLock::new();
        &mut self.entries[id]
    }

    /// The x86 instruction at `id`, if that entry is one. Instructions from
    /// other ISAs return `None`; x86-only passes see through this accessor
    /// and naturally skip foreign instructions.
    #[inline]
    pub fn insn(&self, id: EntryId) -> Option<&Instruction> {
        self.entries[id].insn()
    }

    /// The instruction at `id` regardless of ISA, if that entry is one.
    #[inline]
    pub fn insn_any(&self, id: EntryId) -> Option<&Insn> {
        self.entries[id].insn_any()
    }

    /// The analysis slot of `function`, or `None` when `function` is not
    /// the index's current view of it (a stale or hand-made view).
    pub(crate) fn analysis_slot(
        &self,
        function: &Function,
    ) -> Option<&OnceLock<Arc<FunctionAnalyses>>> {
        let index = self.index();
        let functions = &index.functions;
        let k = (functions.binary_search_by_key(&function.label_id, |f| f.label_id)).ok()?;
        (functions[k] == *function).then(|| &index.analyses[k])
    }

    /// The slot of the unit's solved layout (empty after every edit).
    pub(crate) fn relaxed(&self) -> &OnceLock<Arc<Relaxed>> {
        &self.relaxed
    }

    /// Hold `relaxed`, solved or patched for the current entries.
    pub(crate) fn hold_relaxed(&mut self, relaxed: Arc<Relaxed>) {
        self.relaxed = OnceLock::from(relaxed);
    }

    fn index(&self) -> &UnitIndex {
        self.index.get_or_init(|| build_index(&self.entries))
    }

    /// Section name in effect for each entry (`.text` before any section
    /// directive, matching gas's default).
    pub fn section_names(&self) -> Vec<&str> {
        section_names(&self.entries)
    }

    /// The section views (cached; cloned for callers that mutate the unit
    /// while holding them).
    pub fn sections(&self) -> Vec<Section> {
        self.index().sections.clone()
    }

    /// The section views, borrowed from the cached index.
    #[inline]
    pub fn sections_cached(&self) -> &[Section] {
        &self.index().sections
    }

    /// Map from label name to its entry id (first definition wins).
    pub fn labels(&self) -> HashMap<&str, EntryId> {
        let index = self.index();
        index
            .labels
            .iter()
            .map(|(&name, &slot)| (name, index.label_ids[slot]))
            .collect()
    }

    /// Find a label's entry id.
    ///
    /// This is the unit's one label resolver: on duplicate definitions the
    /// *first* occurrence wins, and every consumer (relaxation, displacement
    /// computation, the alignment passes) must resolve through here so they
    /// agree on which definition a branch targets.
    pub fn find_label(&self, name: &str) -> Option<EntryId> {
        let index = self.index();
        index.labels.get(name).map(|&slot| index.label_ids[slot])
    }

    /// Resolve the branch at `id` to its target entry: `Some` only when the
    /// entry is an instruction with a label operand that is defined in this
    /// unit. O(1) via the cached label index.
    pub fn branch_target(&self, id: EntryId) -> Option<EntryId> {
        self.insn_any(id)
            .and_then(|i| i.target_label())
            .and_then(|l| self.find_label(l))
    }

    /// The function views (cached; cloned for callers that mutate the unit
    /// while holding them).
    pub fn functions(&self) -> Vec<Function> {
        self.index().functions.clone()
    }

    /// The function views, borrowed from the cached index. Prefer this over
    /// [`MaoUnit::functions`] when the unit is not mutated while iterating.
    #[inline]
    pub fn functions_cached(&self) -> &[Function] {
        &self.index().functions
    }

    /// Find a function view by name.
    pub fn find_function(&self, name: &str) -> Option<Function> {
        self.index()
            .functions
            .iter()
            .find(|f| f.name == name)
            .cloned()
    }

    /// Try to patch the cached index across `lists` in place, without a
    /// rebuild. Returns `None`, leaving `index` untouched, when the edits
    /// are not patchable and the index must be rebuilt; otherwise the
    /// functions whose analyses were carried.
    ///
    /// Patchable edits touch only entries strictly inside function spans and
    /// neither insert, delete, replace nor permute structural entries
    /// (labels, section directives, `.type`). Such edits can only shift
    /// index boundaries: every boundary `b` moves to `b + shift(b)` where
    /// `shift(b)` sums the net entry-count change of all edits at ids `< b`.
    /// Nothing before the first edit moves: spans, label ids and section
    /// ranges from there on are shifted where they stand, functions and
    /// labels each by one ordered walk over the edit records. Edit lists
    /// that move nothing (one-for-one replacements and permutes) leave them
    /// as they are.
    ///
    /// A function the edits neither touch nor shift keeps its analysis
    /// slot. Every other one gets an empty slot, unless `carry` holds and
    /// [`FunctionAnalyses::carry`] keeps its analyses: offered a function
    /// whose edits all sit in one list of their own (`plain[i]` telling
    /// whether list `i`'s permuted slots are all plain), or one the edits
    /// only shift, and in either case only a one-span function when
    /// anything moves.
    ///
    /// `lists` are sorted, ascending and disjoint, as
    /// [`MaoUnit::apply_lists`] passes them, and their permutes are applied
    /// already, having moved no structural entry.
    fn try_patch_index(
        index: &mut UnitIndex,
        entries: &[Entry],
        lists: &[EditSet],
        plain: &[bool],
        carry: bool,
    ) -> Option<Vec<usize>> {
        let groups = || lists.iter().flat_map(EditSet::groups);
        let Some(first) = groups().next() else {
            return Some(Vec::new());
        };
        // Every touched id must sit strictly inside a function span:
        // `span.start < id < span.end` (span starts are the function label
        // or a `.text` re-entry directive — both structural, and inserting
        // before them would land entries outside the span). An id whose
        // only edits insert after it may additionally be `span.start`
        // itself, since entries after it are unambiguously inside the span.
        // A permute's slots must all lie in the span of its first. Spans
        // are ascending and disjoint in function order, as are the ids, so
        // one merged walk finds each id's span and the functions touched.
        // It starts at the last function labeled at or before the first id:
        // each function's spans end before the next function's label.
        let start = index
            .functions
            .partition_point(|f| f.label_id <= first.id)
            .saturating_sub(1);
        let mut spans = index.functions[start..]
            .iter()
            .zip(start..)
            .flat_map(|(f, k)| f.spans.iter().map(move |s| (k, s)))
            .filter(|(_, s)| s.start < s.end)
            .peekable();
        // Each touched function, with the one list holding all of its edits
        // and no other function's, if there is one.
        let mut touched: Vec<(usize, Option<usize>)> = Vec::new();
        let mut moves = false;
        for (i, list) in lists.iter().enumerate() {
            // Where in `touched` the list's first function is.
            let mut from = None;
            for g in list.groups() {
                // Appending at the end extends the last section/function,
                // and `apply` ignores other ids past the end: rebuild either
                // way.
                let replacement = g.replacement().map(|(_, new)| new);
                let new_entries = g.inserted(true).chain(replacement).chain(g.inserted(false));
                if g.id >= entries.len()
                    || new_entries.flatten().any(is_structural)
                    || (g.fate().is_some() && is_structural(&entries[g.id]))
                {
                    return None;
                }
                while spans.next_if(|(_, s)| s.end <= g.id).is_some() {}
                let &(k, span) = spans.peek()?;
                let after_only = g.ops.iter().all(|(_, op)| matches!(op, Op::InsertAfter(_)));
                if !(span.start < g.id || (after_only && span.start == g.id))
                    || g.permutes().any(|p| p.last() >= span.end)
                {
                    return None;
                }
                match touched.last_mut() {
                    Some((last, own)) if *last == k => {
                        if *own != Some(i) {
                            *own = None;
                        }
                    }
                    _ => touched.push((k, Some(i))),
                }
                from.get_or_insert(touched.len() - 1);
                moves |= g.net() != 0;
            }
            // A list spanning functions is none of theirs.
            if let Some(from) = from.filter(|&from| from + 1 < touched.len()) {
                touched[from..].iter_mut().for_each(|(_, own)| *own = None);
            }
        }
        let in_place = lists.iter().all(EditSet::moves_nothing);
        let mut carried = Vec::new();
        // Fill a touched or shifted function's slot with what survives of
        // its analyses, or leave it empty.
        let mut reslot = |k: usize, slot: &mut OnceLock<Arc<FunctionAnalyses>>, own, start| {
            let offer = match own {
                _ if !carry => None,
                Some(Some(i)) => Some((Some(&lists[i]), plain[i])),
                Some(None) => None,
                None => Some((None, true)),
            };
            let kept = (slot.take().zip(offer))
                .and_then(|(old, (list, plain))| old.carry(entries, list, in_place, plain));
            if let Some(kept) = kept {
                *slot = OnceLock::from(Arc::new(kept.into_slot(start)));
                carried.push(k);
            }
        };

        if !moves {
            for (k, own) in touched {
                reslot(k, &mut index.analyses[k], Some(own), 0);
            }
            return Some(carried);
        }

        // Prefix sums, keyed `2 * id + 1` for Σ net(id') over ids id' <= id.
        // Entries inserted before an id also get a record keyed `2 * id`:
        // an entry AT position `p` (a label) moves past them, while range
        // boundaries do not (inserts before a range start are rejected
        // above).
        let mut records: Vec<(usize, isize)> =
            Vec::with_capacity(lists.iter().map(EditSet::len).sum());
        let mut total = 0isize;
        for g in groups() {
            let before = g.before_len();
            if before > 0 {
                records.push((2 * g.id, total + before as isize));
            }
            total += g.net();
            records.push((2 * g.id + 1, total));
        }
        let records = records.as_slice();
        let moved = |below: usize, p: EntryId| match below {
            0 => p,
            i => p.wrapping_add_signed(records[i - 1].1),
        };
        // Section ranges are few and not in one order: a search each.
        let search = |p: EntryId| moved(records.partition_point(|&(k, _)| k < 2 * p), p);
        for r in index
            .sections
            .iter_mut()
            .flat_map(|s| &mut s.ranges)
            .filter(|r| r.end > first.id)
        {
            *r = search(r.start)..search(r.end);
        }
        // Functions and labels are each in position order: one walk over
        // the records each, for queries in ascending key order.
        let walk = || {
            let mut below = 0;
            move |p: EntryId, key: usize| {
                below += records[below..]
                    .iter()
                    .take_while(|&&(k, _)| k < key)
                    .count();
                moved(below, p)
            }
        };
        // Functions from the one holding the first edit; those before it
        // end before it. An untouched function moves as a whole, so its
        // label tells whether it shifted.
        let mut shift = walk();
        let mut touched = touched.into_iter().peekable();
        let functions = index.functions.iter_mut().zip(&mut index.analyses);
        for (k, (f, slot)) in functions.enumerate().skip(start) {
            let label = f.label_id;
            for (i, span) in f.spans.iter_mut().enumerate() {
                span.start = shift(span.start, 2 * span.start);
                if i == 0 {
                    // The label opens the first span.
                    f.label_id = shift(label, 2 * label + 1);
                }
                span.end = shift(span.end, 2 * span.end);
            }
            let own = touched.next_if(|&(t, _)| t == k).map(|(_, own)| own);
            if own.is_some() || f.label_id != label {
                match &f.spans[..] {
                    [span] => reslot(k, slot, own, span.start),
                    _ => *slot = OnceLock::new(),
                }
            }
        }
        let from = index.label_ids.partition_point(|&p| p < first.id);
        let mut shift = walk();
        for p in &mut index.label_ids[from..] {
            *p = shift(*p, 2 * *p + 1);
        }
        Some(carried)
    }

    /// Apply a batch of edits. Returns the number of entries after editing.
    ///
    /// The entries are edited in the unit's own buffer by one sweep (see
    /// [`MaoUnit::apply_lists`]). If the cached index is live and the edits
    /// only touch entries strictly inside function bodies (no structural
    /// entries involved), the index is patched in place, emptying the
    /// analysis slots of the functions the edits touch or shift; otherwise
    /// it is dropped for a rebuild on next access. A non-empty edit set
    /// always drops the layout.
    pub fn apply(&mut self, mut edits: EditSet) -> usize {
        self.apply_lists(std::slice::from_mut(&mut edits), false)
    }

    /// [`MaoUnit::apply`] for several edit lists at once, with no merged
    /// copy: one per function, in function order, as
    /// [`crate::pass::run_functions`] folds them. Every id of one list,
    /// permuted slots included, must lie below every id of the next. Each
    /// list is sorted (once, if it was pushed out of order). With `carry`,
    /// a patched index keeps the analyses of every function whose control
    /// flow the edits leave alone (see [`MaoUnit::try_patch_index`]), and
    /// debug builds check each one against a rebuild.
    pub(crate) fn apply_lists(&mut self, lists: &mut [EditSet], carry: bool) -> usize {
        lists.iter_mut().for_each(EditSet::sort);
        if lists.iter().all(EditSet::is_empty) {
            return self.entries.len();
        }
        // Permutes act first. A structural entry among their slots, or a
        // slot past the end, means a rebuild; otherwise the entries the
        // rest of the edits see are structural exactly where the pre-edit
        // ones were.
        let carried = match (permute(&mut self.entries, lists), self.index.get_mut()) {
            (Some(plain), Some(index)) => {
                MaoUnit::try_patch_index(index, &self.entries, lists, &plain, carry)
            }
            _ => None,
        };
        sweep(&mut self.entries, lists);
        self.relaxed = OnceLock::new();
        let Some(carried) = carried else {
            self.index = OnceLock::new();
            return self.entries.len();
        };
        if index_oracle_on() {
            assert_eq!(
                *self.index(),
                build_index(&self.entries),
                "incrementally patched index diverged from a full rebuild"
            );
        }
        if cfg!(debug_assertions) {
            let index = self.index();
            for k in carried {
                let slot = index.analyses[k].get().expect("a carried slot is filled");
                check_carried(self, &index.functions[k], slot);
            }
        }
        self.entries.len()
    }

    /// Replace each of `replacements`' entry ranges — ascending and
    /// disjoint — with its new entries, in one pass over the unit. This is
    /// how the function-result memo swaps whole stored bodies in: an
    /// [`EditSet`] would record every replaced id one by one. Replacement
    /// bodies carry labels, so the index (with every analysis slot) is
    /// dropped for a rebuild, as for any structural edit, and so is the
    /// layout.
    pub(crate) fn splice_ranges(&mut self, replacements: Vec<(Range<EntryId>, Vec<Entry>)>) {
        if replacements.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.entries.len());
        let mut old = std::mem::take(&mut self.entries).into_iter();
        let mut next = 0;
        for (range, entries) in replacements {
            assert!(
                next <= range.start && range.start <= range.end,
                "splice ranges must be ascending and disjoint"
            );
            out.extend(old.by_ref().take(range.start - next));
            old.by_ref().take(range.len()).for_each(drop);
            out.extend(entries);
            next = range.end;
        }
        out.extend(old);
        self.entries = out;
        self.index = OnceLock::new();
        self.relaxed = OnceLock::new();
    }
}

/// Apply the permutes of `lists` to `entries`, in list order, each to the
/// slots it names in the pre-edit numbering (one with a slot past the end
/// is ignored), checking each slot once. Returns `None` unless every one
/// was in range and moved no structural entry; otherwise, per list, whether
/// every slot it permuted is plain ([`is_plain`]).
fn permute(entries: &mut [Entry], lists: &[EditSet]) -> Option<Vec<bool>> {
    let (hole, mut scratch) = (Entry::Label(crate::isa::Sym::default()), Vec::new());
    let mut structural = false;
    let mut plain = Vec::with_capacity(lists.len());
    for list in lists {
        let mut all_plain = true;
        for p in list.groups().flat_map(Group::permutes) {
            if p.last() >= entries.len() {
                structural = true;
                continue;
            }
            p.apply(entries, &hole, &mut scratch);
            for e in p.slots().map(|slot| &entries[slot]) {
                if !is_plain(e) {
                    all_plain = false;
                    structural |= is_structural(e);
                }
            }
        }
        plain.push(all_plain);
    }
    (!structural).then_some(plain)
}

/// Apply the edits of sorted, ascending, disjoint `lists`, whose permutes
/// are applied already, to `entries` in place.
///
/// A set that moves nothing writes its replacements where they stand, in
/// list order, so the last at an id wins. Otherwise every kept entry moves
/// once, by the net count of the edits before it: runs that move right go
/// back to front (after the vector has grown once, by the net insert
/// count), then runs that move left go front to back. A run's destination
/// then only ever holds an entry that is gone (deleted, replaced, or a
/// placeholder) or one that has already moved out, so each move is a swap
/// of two runs, or a rotation where they overlap. Last, the new entries
/// move out of the lists into the places left for them, and the tail is
/// cut. Ids past the end are ignored, except that entries inserted before
/// `usize::MAX` are appended.
fn sweep(entries: &mut Vec<Entry>, lists: &mut [EditSet]) {
    let len = entries.len();
    if lists.iter().all(EditSet::moves_nothing) {
        for (id, op) in lists.iter_mut().flat_map(|list| &mut list.ops) {
            if let (true, Op::ReplaceOne(entry)) = (*id < len, op) {
                // The old entry is dropped with the list.
                std::mem::swap(&mut entries[*id], entry);
            }
        }
        return;
    }
    // Each run of kept entries, with how far it moves.
    let mut runs: Vec<(Range<EntryId>, isize)> = Vec::new();
    let (mut shift, mut at, mut appended) = (0isize, 0, 0);
    for g in lists.iter().flat_map(EditSet::groups) {
        match g.id {
            id if id < len => {
                runs.push((at..id, shift));
                if g.fate().is_none() {
                    runs.push((id..id + 1, shift + g.before_len() as isize));
                }
                shift += g.net();
                at = id + 1;
            }
            usize::MAX => appended = g.before_len(),
            _ => {}
        }
    }
    runs.push((at..len, shift));
    let end = len
        .checked_add_signed(shift)
        .expect("a unit never shrinks below empty");
    if end + appended > len {
        entries.reserve_exact(end + appended - len);
        entries.resize(end + appended, Entry::Label(crate::isa::Sym::default()));
    }
    for (run, shift) in runs.iter().rev().filter(|(_, shift)| *shift > 0) {
        shift_run(entries, run.clone(), *shift);
    }
    for (run, shift) in runs.iter().filter(|(_, shift)| *shift < 0) {
        shift_run(entries, run.clone(), *shift);
    }

    let mut shift = 0isize;
    for EditSet { ops, slots, .. } in lists.iter_mut() {
        for ops in ops.chunk_by_mut(|a, b| a.0 == b.0) {
            let g = Group {
                id: ops[0].0,
                ops: &*ops,
                slots,
            };
            let (id, net, kept) = (g.id, g.net(), g.fate().is_none());
            // A delete beats any replacement.
            let winner = g.replacement().filter(|_| !g.deleted()).map(|(i, _)| i);
            let mut at = match id {
                id if id < len => id.wrapping_add_signed(shift),
                usize::MAX => end,
                _ => continue,
            };
            shift += net;
            for (_, op) in ops.iter_mut() {
                if let Op::InsertBefore(new) = op {
                    fill(entries, &mut at, new.drain(..));
                }
            }
            if id >= len {
                continue;
            }
            match winner.map(|i| std::mem::replace(&mut ops[i].1, Op::Delete)) {
                Some(Op::ReplaceOne(entry)) => fill(entries, &mut at, [entry]),
                Some(Op::Replace(new)) => fill(entries, &mut at, new),
                _ => at += usize::from(kept),
            }
            for (_, op) in ops.iter_mut() {
                if let Op::InsertAfter(new) = op {
                    fill(entries, &mut at, new.drain(..));
                }
            }
        }
    }
    entries.truncate(end + appended);
}

/// Move `new` into `entries` from `at` on, dropping what was there.
fn fill(entries: &mut [Entry], at: &mut usize, new: impl IntoIterator<Item = Entry>) {
    for e in new {
        entries[*at] = e;
        *at += 1;
    }
}

/// Move `run` by `shift` places (a no-op at 0). The places it moves onto
/// hold nothing still wanted; what was there ends up where the run was.
fn shift_run(entries: &mut [Entry], run: Range<EntryId>, shift: isize) {
    let (n, d) = (run.len(), shift.unsigned_abs());
    if n == 0 || d == 0 {
        return;
    }
    if shift > 0 {
        if d >= n {
            let (lo, hi) = entries.split_at_mut(run.start + d);
            lo[run].swap_with_slice(&mut hi[..n]);
        } else {
            entries[run.start..run.end + d].rotate_right(d);
        }
    } else if d >= n {
        let (lo, hi) = entries.split_at_mut(run.start);
        lo[run.start - d..][..n].swap_with_slice(&mut hi[..n]);
    } else {
        entries[run.start - d..run.end].rotate_left(d);
    }
}

/// One permute of an [`EditSet`]: `(slot, source)` pairs, ascending by
/// slot, where the entry at `slot` becomes the pre-edit entry at `source`.
/// The sources are the slots in another order; no slot is its own source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Permutation<'a>(&'a [(EntryId, EntryId)]);

impl Permutation<'_> {
    /// The permuted slots, ascending.
    pub(crate) fn slots(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.0.iter().map(|&(slot, _)| slot)
    }

    fn last(&self) -> EntryId {
        self.0.last().map_or(0, |&(slot, _)| slot)
    }

    /// Permute `entries`: every source's entry moves out into `scratch`,
    /// leaving a `hole`, then into its slot.
    fn apply(&self, entries: &mut [Entry], hole: &Entry, scratch: &mut Vec<Entry>) {
        let taken = self
            .0
            .iter()
            .map(|&(_, src)| std::mem::replace(&mut entries[src], hole.clone()));
        scratch.extend(taken);
        for (&(slot, _), entry) in self.0.iter().zip(scratch.drain(..)) {
            entries[slot] = entry;
        }
    }
}

/// One edit of an [`EditSet`], at the id it is listed under.
#[derive(Debug, Clone)]
enum Op {
    InsertBefore(Vec<Entry>),
    Delete,
    /// The one-for-one rewrite, held inline with no `Vec` of its own.
    ReplaceOne(Entry),
    /// Any other count (never exactly one); empty deletes the entry.
    Replace(Vec<Entry>),
    InsertAfter(Vec<Entry>),
    /// Listed under its first slot; covers `EditSet::slots[range]`.
    Permute(Range<usize>),
}

/// A batch of deferred edits against a [`MaoUnit`].
///
/// Passes collect edits while iterating (ids stay stable), then call
/// [`MaoUnit::apply`] once; all ids refer to the pre-edit numbering. The
/// edits are one list of `(id, op)` in push order; a list pushed out of id
/// order is sorted once, stably, before it is applied. At one id a delete
/// beats any replacement, the last replacement wins, and inserts
/// concatenate in push order; permutes act first, on the pre-edit slots.
#[derive(Debug, Clone, Default)]
pub struct EditSet {
    ops: Vec<(EntryId, Op)>,
    /// The `(slot, source)` pairs of every permute, one run per op.
    slots: Vec<(EntryId, EntryId)>,
    /// Was an op pushed below an earlier one?
    unsorted: bool,
}

impl EditSet {
    /// Empty edit set.
    pub fn new() -> EditSet {
        EditSet::default()
    }

    /// Any edits recorded?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of edit operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn push(&mut self, id: EntryId, op: Op) -> &mut Self {
        self.unsorted |= self.ops.last().is_some_and(|&(last, _)| last > id);
        self.ops.push((id, op));
        self
    }

    /// Delete entry `id`.
    pub fn delete(&mut self, id: EntryId) -> &mut Self {
        self.push(id, Op::Delete)
    }

    /// Replace entry `id` with `entries` (empty = delete).
    pub fn replace(&mut self, id: EntryId, mut entries: Vec<Entry>) -> &mut Self {
        match (entries.len(), entries.pop()) {
            (1, Some(entry)) => self.push(id, Op::ReplaceOne(entry)),
            (_, last) => {
                entries.extend(last);
                self.push(id, Op::Replace(entries))
            }
        }
    }

    /// Replace entry `id` with a single instruction (any ISA, via `Into`).
    pub fn replace_insn(&mut self, id: EntryId, insn: impl Into<Insn>) -> &mut Self {
        self.push(id, Op::ReplaceOne(Entry::Insn(insn.into())))
    }

    /// Insert `entries` immediately before entry `id`. Use `usize::MAX` to
    /// append at the end of the unit.
    pub fn insert_before(&mut self, id: EntryId, entries: Vec<Entry>) -> &mut Self {
        self.push(id, Op::InsertBefore(entries))
    }

    /// Insert `entries` immediately after entry `id`.
    pub fn insert_after(&mut self, id: EntryId, entries: Vec<Entry>) -> &mut Self {
        self.push(id, Op::InsertAfter(entries))
    }

    /// Reorder the entries at `slots` (ascending ids; they may skip
    /// entries in between): afterwards the entry at `slots[i]` is the one
    /// that was at `slots[order[i]]`, where `order` is a permutation of
    /// `0..slots.len()`. No entry moves in or out of the slots, so nothing
    /// else shifts. Ignored as a whole when a slot is past the end.
    pub fn permute(&mut self, slots: &[EntryId], order: &[usize]) -> &mut Self {
        assert_eq!(slots.len(), order.len(), "one order index per slot");
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots ascend");
        debug_assert!(
            {
                let mut sorted = order.to_vec();
                sorted.sort_unstable();
                sorted.into_iter().eq(0..order.len())
            },
            "order is a permutation"
        );
        let start = self.slots.len();
        self.slots.extend(
            order
                .iter()
                .enumerate()
                .filter(|&(i, &src)| i != src)
                .map(|(i, &src)| (slots[i], slots[src])),
        );
        match self.slots.get(start) {
            Some(&(first, _)) => self.push(first, Op::Permute(start..self.slots.len())),
            None => self,
        }
    }

    /// Fold `other` into `self`: its edits follow `self`'s, so at an id both
    /// touch, `other`'s replacement wins and its inserts come after
    /// `self`'s. Merging edit sets produced against disjoint id ranges (one
    /// per function) is order-exact with applying them separately.
    pub fn merge(&mut self, other: EditSet) {
        self.unsorted |= other.unsorted
            || matches!((self.ops.last(), other.ops.first()), (Some(a), Some(b)) if a.0 > b.0);
        let base = self.slots.len();
        self.slots.extend(other.slots);
        self.ops
            .extend(other.ops.into_iter().map(|(id, op)| match op {
                Op::Permute(run) => (id, Op::Permute(run.start + base..run.end + base)),
                op => (id, op),
            }));
    }

    /// Sort the list by id, keeping push order at each id, if it was
    /// pushed out of order.
    pub(crate) fn sort(&mut self) {
        if self.unsorted {
            self.ops.sort_by_key(|&(id, _)| id);
            self.unsorted = false;
        }
    }

    /// The edits of a sorted list, one [`Group`] per id, ascending.
    pub(crate) fn groups(&self) -> impl Iterator<Item = Group<'_>> {
        debug_assert!(!self.unsorted, "an edit list is sorted before it is read");
        self.ops.chunk_by(|a, b| a.0 == b.0).map(|ops| Group {
            id: ops[0].0,
            ops,
            slots: &self.slots,
        })
    }

    /// Does no edit move an entry? True when every edit replaces one entry
    /// with one entry or permutes entries: applied, the set rewrites
    /// entries where they stand, and every position — spans, labels, CFG
    /// blocks — stays put.
    pub(crate) fn moves_nothing(&self) -> bool {
        self.ops
            .iter()
            .all(|(_, op)| matches!(op, Op::ReplaceOne(_) | Op::Permute(_)))
    }
}

/// The edits a sorted [`EditSet`] lists at one id, in push order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group<'a> {
    pub(crate) id: EntryId,
    ops: &'a [(EntryId, Op)],
    /// The list's permute pairs.
    slots: &'a [(EntryId, EntryId)],
}

impl<'a> Group<'a> {
    /// Entries inserted immediately before the id (or after it), in order.
    pub(crate) fn inserted(self, before: bool) -> impl Iterator<Item = &'a [Entry]> {
        self.ops.iter().filter_map(move |(_, op)| match op {
            Op::InsertBefore(new) if before => Some(new.as_slice()),
            Op::InsertAfter(new) if !before => Some(new.as_slice()),
            _ => None,
        })
    }

    fn before_len(self) -> usize {
        self.inserted(true).map(<[Entry]>::len).sum()
    }

    /// Is every edit at the id a permute?
    pub(crate) fn permute_only(self) -> bool {
        self.ops.iter().all(|(_, op)| matches!(op, Op::Permute(_)))
    }

    fn deleted(self) -> bool {
        self.ops.iter().any(|(_, op)| matches!(op, Op::Delete))
    }

    /// The last replacement: its index in the group and its entries.
    fn replacement(self) -> Option<(usize, &'a [Entry])> {
        self.ops
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, (_, op))| match op {
                Op::ReplaceOne(entry) => Some((i, std::slice::from_ref(entry))),
                Op::Replace(new) => Some((i, new.as_slice())),
                _ => None,
            })
    }

    /// What takes the entry's place: `None` when it stays, else the
    /// replacement entries (empty when it is deleted).
    pub(crate) fn fate(self) -> Option<&'a [Entry]> {
        match self.replacement() {
            _ if self.deleted() => Some(&[]),
            found => found.map(|(_, new)| new),
        }
    }

    /// Net entry-count change of the edits at the id.
    pub(crate) fn net(self) -> isize {
        let after: usize = self.inserted(false).map(<[Entry]>::len).sum();
        (self.before_len() + after + self.fate().map_or(1, <[Entry]>::len)) as isize - 1
    }

    /// The permutes listed under the id (their first slot).
    pub(crate) fn permutes(self) -> impl Iterator<Item = Permutation<'a>> {
        self.ops.iter().filter_map(move |(_, op)| match op {
            Op::Permute(run) => Some(Permutation(&self.slots[run.clone()])),
            _ => None,
        })
    }
}

/// The rebuilding apply this module replaced, kept as the oracle the
/// in-place [`MaoUnit::apply`] must match: entries, index structure, and
/// which functions keep their analysis slots. It reads an edit list
/// through the maps the edit set used to be.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeSet;

    /// An edit list as maps: what the rebuilding apply reads.
    #[derive(Default)]
    struct Maps {
        deleted: BTreeSet<EntryId>,
        replaced: HashMap<EntryId, Vec<Entry>>,
        insert_before: HashMap<EntryId, Vec<Entry>>,
        insert_after: HashMap<EntryId, Vec<Entry>>,
        /// `(slot, source)` pairs of each permute, in list order.
        permutes: Vec<Vec<(EntryId, EntryId)>>,
    }

    impl Maps {
        /// The list sorted stably by id, then read op by op: a later
        /// replacement overwrites, inserts concatenate.
        fn of(edits: EditSet) -> Maps {
            let EditSet { mut ops, slots, .. } = edits;
            ops.sort_by_key(|&(id, _)| id);
            let mut maps = Maps::default();
            for (id, op) in ops {
                match op {
                    Op::Delete => {
                        maps.deleted.insert(id);
                    }
                    Op::ReplaceOne(entry) => {
                        maps.replaced.insert(id, vec![entry]);
                    }
                    Op::Replace(new) => {
                        maps.replaced.insert(id, new);
                    }
                    Op::InsertBefore(new) => maps.insert_before.entry(id).or_default().extend(new),
                    Op::InsertAfter(new) => maps.insert_after.entry(id).or_default().extend(new),
                    Op::Permute(run) => maps.permutes.push(slots[run].to_vec()),
                }
            }
            maps
        }

        fn permuted(&self) -> impl Iterator<Item = EntryId> + '_ {
            self.permutes.iter().flatten().map(|&(slot, _)| slot)
        }

        /// All entry ids the edits touch, ascending.
        fn touched_ids(&self) -> Vec<EntryId> {
            let mut ids: Vec<EntryId> = self
                .deleted
                .iter()
                .copied()
                .chain(self.replaced.keys().copied())
                .chain(self.insert_before.keys().copied())
                .chain(self.insert_after.keys().copied())
                .chain(self.permuted())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }
    }

    /// Try to patch the cached index across `edits` without a rebuild.
    ///
    /// Patchable edits touch only entries strictly inside function spans and
    /// neither insert, delete, replace nor permute structural entries
    /// (labels, section directives, `.type`). Such edits can only shift
    /// index boundaries: every boundary `b` moves to `b + shift(b)` where
    /// `shift(b)` sums the net entry-count change of all edits at ids `< b`.
    ///
    /// `ids` are the edits' touched ids, ascending. Returns `None` when the
    /// edits are not patchable and the index must be rebuilt.
    fn patch_index(
        index: &UnitIndex,
        entries: &[Entry],
        edits: &Maps,
        ids: &[EntryId],
    ) -> Option<UnitIndex> {
        // Appending at the end extends the last section/function: rebuild.
        if edits.insert_before.contains_key(&usize::MAX) {
            return None;
        }

        // Net length change contributed by the edit at each touched id,
        // mirroring the exact semantics of `apply`.
        let mut touched: Vec<(EntryId, isize)> = Vec::with_capacity(ids.len());
        for &id in ids {
            if id >= entries.len() {
                // Out-of-range ids are silently ignored by `apply`;
                // don't try to reason about them incrementally.
                return None;
            }
            let mut net = 0isize;
            if let Some(before) = edits.insert_before.get(&id) {
                net += before.len() as isize;
            }
            if edits.deleted.contains(&id) {
                net -= 1;
            } else if let Some(repl) = edits.replaced.get(&id) {
                net += repl.len() as isize - 1;
            }
            if let Some(after) = edits.insert_after.get(&id) {
                net += after.len() as isize;
            }
            touched.push((id, net));
        }

        // No structural entries inserted or produced by replacement.
        let inserted_ok = edits
            .insert_before
            .values()
            .chain(edits.insert_after.values())
            .chain(edits.replaced.values())
            .flatten()
            .all(|e| !is_structural(e));
        if !inserted_ok {
            return None;
        }
        // No structural entries deleted, replaced away or permuted.
        let targets_ok = edits
            .deleted
            .iter()
            .copied()
            .chain(edits.replaced.keys().copied())
            .chain(edits.permuted())
            .all(|id| !is_structural(&entries[id]));
        if !targets_ok {
            return None;
        }

        // Every touched id must sit strictly inside a function span:
        // `span.start < id < span.end` (span starts are the function label
        // or a `.text` re-entry directive — both structural, and inserting
        // before them would land entries outside the span).
        // `insert_after` may additionally target `span.start` itself, since
        // entries after it are unambiguously inside the span.
        // Function spans are disjoint, so the only candidate is the last
        // non-empty span starting at or before `id`.
        let mut spans: Vec<&Range<EntryId>> = index
            .functions
            .iter()
            .flat_map(|f| &f.spans)
            .filter(|s| s.start < s.end)
            .collect();
        spans.sort_unstable_by_key(|s| s.start);
        let permuted: BTreeSet<EntryId> = edits.permuted().collect();
        for &(id, _) in &touched {
            let after_only = !edits.deleted.contains(&id)
                && !edits.replaced.contains_key(&id)
                && !edits.insert_before.contains_key(&id)
                && !permuted.contains(&id);
            let k = spans.partition_point(|s| s.start <= id);
            let inside = k > 0 && {
                let s = spans[k - 1];
                s.start < id && id < s.end || (after_only && id == s.start && id < s.end)
            };
            if !inside {
                return None;
            }
        }
        // A permute's slots all lie in the span of its first.
        for pairs in &edits.permutes {
            let k = spans.partition_point(|s| s.start <= pairs[0].0);
            if pairs
                .last()
                .is_some_and(|&(last, _)| last >= spans[k - 1].end)
            {
                return None;
            }
        }

        // Prefix sums: shift(b) = Σ net(id) over touched ids < b.
        let mut prefix: Vec<isize> = Vec::with_capacity(touched.len() + 1);
        prefix.push(0);
        for &(_, net) in &touched {
            prefix.push(prefix.last().unwrap() + net);
        }
        let shift = |b: EntryId| -> EntryId {
            let k = touched.partition_point(|&(id, _)| id < b);
            (b as isize + prefix[k]) as EntryId
        };
        let shift_range = |r: &Range<EntryId>| shift(r.start)..shift(r.end);
        // An entry AT position `p` (a label) also moves past entries
        // inserted immediately before it; range boundaries do not (inserts
        // before a range start are rejected above).
        let shift_entity =
            |p: EntryId| -> EntryId { shift(p) + edits.insert_before.get(&p).map_or(0, Vec::len) };
        let touches = |f: &Function| {
            f.spans.iter().any(|s| {
                let k = touched.partition_point(|&(id, _)| id < s.start);
                k < touched.len() && touched[k].0 < s.end
            })
        };

        Some(UnitIndex {
            sections: index
                .sections
                .iter()
                .map(|s| Section {
                    name: s.name.clone(),
                    ranges: s.ranges.iter().map(shift_range).collect(),
                })
                .collect(),
            functions: index
                .functions
                .iter()
                .map(|f| Function {
                    name: f.name.clone(),
                    label_id: shift_entity(f.label_id),
                    spans: f.spans.iter().map(shift_range).collect(),
                })
                .collect(),
            labels: index.labels.clone(),
            label_ids: index.label_ids.iter().map(|&id| shift_entity(id)).collect(),
            // A function the edit touched or moved gets an empty slot; one
            // it left where it was keeps its own.
            analyses: index
                .functions
                .iter()
                .zip(&index.analyses)
                .map(|(f, slot)| {
                    if touches(f) || shift_entity(f.label_id) != f.label_id {
                        OnceLock::new()
                    } else {
                        slot.clone()
                    }
                })
                .collect(),
        })
    }

    /// The rebuilding apply: permutes clone their sources into place, then
    /// every entry moves into a new vector and a patchable index is rebuilt
    /// as a new [`UnitIndex`].
    pub(super) fn apply(unit: &mut MaoUnit, edits: EditSet) -> usize {
        if edits.is_empty() {
            return unit.entries.len();
        }
        let mut edits = Maps::of(edits);
        let touched = edits.touched_ids();
        let patched = unit
            .index
            .get()
            .and_then(|idx| patch_index(idx, &unit.entries, &edits, &touched));

        let len = unit.entries.len();
        for pairs in &edits.permutes {
            if pairs.iter().all(|&(slot, _)| slot < len) {
                let moved: Vec<Entry> = pairs
                    .iter()
                    .map(|&(_, src)| unit.entries[src].clone())
                    .collect();
                for (&(slot, _), entry) in pairs.iter().zip(moved) {
                    unit.entries[slot] = entry;
                }
            }
        }

        // Untouched runs move over whole; only touched ids are looked up.
        // The edit set is ours, so its entries move into place too.
        let mut out = Vec::with_capacity(len + 8);
        let mut old = std::mem::take(&mut unit.entries).into_iter();
        let mut next = 0;
        // Ids past the end are ignored (`usize::MAX` appends, below).
        for id in touched.into_iter().take_while(|&id| id < len) {
            out.extend(old.by_ref().take(id - next));
            let entry = old.next().expect("touched id is in range");
            next = id + 1;
            if let Some(before) = edits.insert_before.remove(&id) {
                out.extend(before);
            }
            if !edits.deleted.contains(&id) {
                match edits.replaced.remove(&id) {
                    Some(replacement) => out.extend(replacement),
                    None => out.push(entry),
                }
            }
            if let Some(after) = edits.insert_after.remove(&id) {
                out.extend(after);
            }
        }
        out.extend(old);
        if let Some(at_end) = edits.insert_before.remove(&usize::MAX) {
            out.extend(at_end);
        }
        unit.entries = out;
        unit.relaxed = OnceLock::new();
        unit.index = patched.map(OnceLock::from).unwrap_or_default();
        unit.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_FUNCS: &str = r#"
	.text
	.globl	f
	.type	f, @function
f:
	push %rbp
	pop %rbp
	ret
	.size	f, .-f
	.globl	g
	.type	g, @function
g:
	nop
	ret
	.size	g, .-g
"#;

    #[test]
    fn functions_are_found() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let funcs = unit.functions();
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "f");
        assert_eq!(funcs[1].name, "g");
        // f's body: label + 3 insns + .size + .globl/.type of g.
        let f_insns: Vec<_> = funcs[0]
            .entry_ids()
            .filter_map(|id| unit.insn(id))
            .collect();
        assert_eq!(f_insns.len(), 3);
        let g_insns: Vec<_> = funcs[1]
            .entry_ids()
            .filter_map(|id| unit.insn(id))
            .collect();
        assert_eq!(g_insns.len(), 2);
    }

    /// Function discovery looks symbols up in a set: the function list
    /// equals the linear-scan rule's on a unit mixing `@function` and
    /// `@object` symbols, repeated `.type` lines, a `.type` after its
    /// label, and labels in data sections.
    #[test]
    fn function_discovery_matches_the_linear_scan() {
        let text = "\t.text\n\t.type\tf, @function\n\t.type\tf, @function\nf:\n\tret\n\
            \t.type\tobj, @object\nobj:\n\tnop\n\
            \t.section\t.rodata\n\t.type\tdata_fn, @function\ndata_fn:\n\t.long\t1\n\
            \t.text\ng:\n\tnop\n\t.type\tg, @function\n\
            \t.type\tboth, @object\n\t.type\tboth, @function\nboth:\n\tret\n\
            .Llocal:\n\tret\n\t.section\t.text.hot\n\t.type\th, @function\nh:\n\tret\n";
        let unit = MaoUnit::parse(text).unwrap();
        let names = unit.section_names();
        let symbols: Vec<&str> = unit
            .entries()
            .iter()
            .filter_map(|e| match e {
                Entry::Directive(Directive::Type { symbol, kind }) if kind == "function" => {
                    Some(symbol.as_str())
                }
                _ => None,
            })
            .collect();
        let scanned: Vec<(EntryId, String)> = unit
            .entries()
            .iter()
            .enumerate()
            .filter_map(|(id, e)| match e {
                Entry::Label(l) if is_text_section(names[id]) && symbols.contains(&l.as_str()) => {
                    Some((id, l.to_string()))
                }
                _ => None,
            })
            .collect();
        let found: Vec<(EntryId, String)> = unit
            .functions()
            .into_iter()
            .map(|f| (f.label_id, f.name))
            .collect();
        assert_eq!(found, scanned);
        let found: Vec<&str> = scanned.iter().map(|(_, name)| name.as_str()).collect();
        assert_eq!(found, ["f", "g", "both", "h"]);
    }

    /// The §II scenario: a function split in two by an intermittent data
    /// section must iterate transparently.
    #[test]
    fn function_split_by_data_section() {
        let text = r#"
	.text
	.type	h, @function
h:
	nop
	jmp *.Ltab(,%rax,8)
	.section	.rodata
.Ltab:
	.quad	.L1
	.quad	.L2
	.text
.L1:
	nop
.L2:
	ret
	.size	h, .-h
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let funcs = unit.functions();
        assert_eq!(funcs.len(), 1);
        let h = &funcs[0];
        assert_eq!(h.spans.len(), 2, "split into two spans: {:?}", h.spans);
        let insns: Vec<_> = h.entry_ids().filter_map(|id| unit.insn(id)).collect();
        // nop, jmp, nop, ret — the .quad data is NOT iterated.
        assert_eq!(insns.len(), 4);
        assert!(insns
            .iter()
            .all(|i| !matches!(i.mnemonic, crate::isa::x86::Mnemonic::Movss)));
    }

    #[test]
    fn sections_views() {
        let unit = MaoUnit::parse(".text\nnop\n.section .rodata\n.long 1\n.text\nret\n").unwrap();
        let sections = unit.sections();
        assert_eq!(sections.len(), 2);
        let text = &sections[0];
        assert!(text.is_text());
        assert_eq!(text.ranges.len(), 2); // .text appears twice
        assert_eq!(text.entry_ids().count(), 4);
    }

    #[test]
    fn default_section_is_text() {
        let unit = MaoUnit::parse("nop\n").unwrap();
        assert_eq!(unit.section_names(), vec![".text"]);
    }

    #[test]
    fn labels_map() {
        let unit = MaoUnit::parse("a:\nnop\nb:\nret\n").unwrap();
        assert_eq!(unit.find_label("b"), Some(2));
        assert_eq!(unit.labels().len(), 2);
        assert_eq!(unit.find_label("zz"), None);
    }

    #[test]
    fn edits_apply_in_order() {
        let mut unit = MaoUnit::parse("nop\nnop\nnop\n").unwrap();
        let mut edits = EditSet::new();
        edits.delete(1);
        edits.insert_before(0, vec![Entry::Label("start".into())]);
        edits.insert_after(2, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        let text = unit.emit();
        assert_eq!(text, "start:\n\tnop\n\tnop\n\tnop\n");
    }

    #[test]
    fn edits_stack_at_one_id_and_ignore_ids_past_the_end() {
        let mut unit = MaoUnit::parse("a:\nb:\nc:\nd:\n").unwrap();
        let label = |name: &str| vec![Entry::Label(name.into())];
        let mut edits = EditSet::new();
        edits.insert_before(1, label("x"));
        edits.replace(1, label("y"));
        edits.insert_after(1, label("z"));
        edits.replace(2, label("w"));
        edits.delete(2); // a delete beats a replacement
        edits.insert_before(10, label("late")); // past the end: ignored
        edits.insert_before(usize::MAX, label("end"));
        unit.apply(edits);
        assert_eq!(unit.emit(), "a:\nx:\ny:\nz:\nd:\nend:\n");
    }

    #[test]
    fn replace_edit() {
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let mut edits = EditSet::new();
        edits.replace_insn(0, Instruction::nop_of_len(2));
        unit.apply(edits);
        assert_eq!(unit.emit(), "\tnopw\n");
    }

    #[test]
    fn empty_editset_is_noop() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let before = unit.clone();
        let edits = EditSet::new();
        assert!(edits.is_empty());
        unit.apply(edits);
        assert_eq!(unit, before);
    }

    #[test]
    fn contains_binary_search_matches_linear() {
        let f = Function {
            name: "f".into(),
            label_id: 3,
            spans: vec![3..7, 12..15, 20..21],
        };
        for id in 0..25 {
            let linear = f.spans.iter().any(|r| r.contains(&id));
            assert_eq!(f.contains(id), linear, "id {id}");
        }
    }

    /// An interior edit (delete one insn inside `f`) must keep the cached
    /// index live and correctly shifted — `g`'s boundaries move left by one.
    #[test]
    fn interior_edit_patches_index() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let funcs = unit.functions(); // builds the index
        let g_before = funcs[1].clone();
        let f_insn = funcs[0]
            .entry_ids()
            .find(|&id| unit.insn(id).is_some())
            .unwrap();

        let mut edits = EditSet::new();
        edits.delete(f_insn);
        unit.apply(edits);

        assert!(unit.index.get().is_some(), "interior edit keeps the index");
        let g_after = unit.find_function("g").unwrap();
        assert_eq!(g_after.label_id, g_before.label_id - 1);
        // The patched index must agree with a from-scratch unit.
        let rebuilt = MaoUnit::parse(&unit.emit()).unwrap();
        assert_eq!(unit.functions(), rebuilt.functions());
        assert_eq!(unit.sections(), rebuilt.sections());
    }

    /// Deleting a label is structural: the index must be rebuilt.
    #[test]
    fn structural_edit_drops_the_index() {
        let mut unit = MaoUnit::parse("a:\nnop\nb:\nret\n").unwrap();
        let _ = unit.functions();
        let mut edits = EditSet::new();
        edits.delete(2); // the label `b`
        unit.apply(edits);
        assert!(unit.index.get().is_none());
        assert_eq!(unit.find_label("b"), None);
        assert_eq!(unit.find_label("a"), Some(0));
    }

    /// Inserting after the function label (first probe of an instrumented
    /// function) is patchable; inserting before it is not.
    #[test]
    fn insert_at_span_start_boundary() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let g = unit.find_function("g").unwrap();
        let mut edits = EditSet::new();
        edits.insert_after(g.label_id, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        assert!(
            unit.index.get().is_some(),
            "insert_after label is patchable"
        );
        let g2 = unit.find_function("g").unwrap();
        assert_eq!(
            g2.entry_ids().filter_map(|id| unit.insn(id)).count(),
            3,
            "inserted nop lands inside g"
        );

        let mut edits = EditSet::new();
        edits.insert_before(g2.label_id, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        assert!(
            unit.index.get().is_none(),
            "insert_before a function label falls back to a rebuild"
        );
    }

    /// A permute keeps the index while its slots stay in one span; one that
    /// reaches into the next function's span sends it to a rebuild.
    #[test]
    fn permute_across_function_spans_rebuilds_the_index() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let funcs = unit.functions();
        let insns = |f: &Function| -> Vec<EntryId> {
            f.entry_ids()
                .filter(|&id| unit.insn(id).is_some())
                .collect()
        };
        let (f, g) = (insns(&funcs[0]), insns(&funcs[1]));
        let mut edits = EditSet::new();
        edits.permute(&f[..2], &[1, 0]);
        unit.apply(edits);
        assert!(unit.index.get().is_some(), "one span: patched");
        let mut edits = EditSet::new();
        edits.permute(&[f[0], g[0]], &[1, 0]);
        unit.apply(edits);
        assert!(unit.index.get().is_none(), "two spans: rebuilt");
        let f_then_g = "f:\n\tnop\n\tpushq %rbp\n\tret\n\t.size f, .-f\n\t.globl g\n\t\
                        .type g, @function\ng:\n\tpopq %rbp\n\tret\n";
        assert!(unit.emit().contains(f_then_g), "{}", unit.emit());
    }

    /// Merged edit sets from disjoint functions apply exactly like the
    /// individual sets applied in function order.
    #[test]
    fn editset_merge_matches_sequential_apply() {
        let mut seq = MaoUnit::parse(TWO_FUNCS).unwrap();
        let mut merged = seq.clone();
        let funcs = seq.functions();

        let mut per_fn: Vec<EditSet> = Vec::new();
        for f in &funcs {
            let first_insn = f.entry_ids().find(|&id| seq.insn(id).is_some()).unwrap();
            let mut e = EditSet::new();
            e.replace_insn(first_insn, Instruction::nop_of_len(2));
            e.insert_after(first_insn, vec![Entry::Insn(Instruction::nop().into())]);
            per_fn.push(e);
        }

        // Sequential: apply per function, ids are disjoint so pre-edit ids
        // stay valid only for the FIRST apply — recompute per function the
        // way the sequential driver does.
        for e in per_fn.clone() {
            // ids refer to pre-edit numbering of the ORIGINAL unit; applying
            // f's edits shifts g. Recompute g's edit against the shifted
            // unit by rebuilding it from the merged reference below instead.
            let _ = e;
        }
        let mut all = EditSet::new();
        for e in per_fn.clone() {
            all.merge(e);
        }
        merged.apply(all);

        // Apply the same edits one at a time against ids remapped by hand:
        // f's edits first (ids unchanged), then g's (shifted by +1 from f's
        // net insert).
        let mut e0 = per_fn[0].clone();
        let _ = &mut e0;
        seq.apply(per_fn[0].clone());
        let g = seq.find_function("g").unwrap();
        let first_insn = g.entry_ids().find(|&id| seq.insn(id).is_some()).unwrap();
        let mut e1 = EditSet::new();
        e1.replace_insn(first_insn, Instruction::nop_of_len(2));
        e1.insert_after(first_insn, vec![Entry::Insn(Instruction::nop().into())]);
        seq.apply(e1);

        assert_eq!(merged.emit(), seq.emit());
    }
}

/// The in-place [`MaoUnit::apply`] against the rebuilding oracle, and the
/// allocations it may make.
#[cfg(test)]
mod apply_tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Records the largest allocation the current thread makes, so the
    /// test harness's other threads cannot disturb the measurement.
    struct LargestAlloc;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`, so
    // `System`'s guarantees carry over; recording touches only a
    // const-initialized thread-local `Cell`, which neither allocates nor
    // unwinds.
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: LargestAlloc = LargestAlloc;

    /// xorshift64*: a seeded stream for the edit generators.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn core_library(scale: f64) -> MaoUnit {
        let corpus = mao_corpus::generate(&mao_corpus::GeneratorConfig::core_library(scale));
        MaoUnit::parse(&corpus.asm).unwrap()
    }

    /// A small corpus unit plus a function split by a jump table in
    /// `.rodata`, so edits also land between sections and outside every
    /// function; its index is built, so applies patch it.
    fn mixed_unit() -> MaoUnit {
        let corpus = mao_corpus::generate(&mao_corpus::GeneratorConfig::core_library(0.01));
        let text = format!(
            "\t.globl\tdata\n{}\t.text\n\t.type\th, @function\nh:\n\tnop\n\tjmp *.Ltab(,%rax,8)\n\
             \t.section\t.rodata\n.Ltab:\n\t.quad\t.L1\n\t.text\n.L1:\n\taddl\t$1, %eax\n\tret\n\
             \t.section\t.rodata\n\t.long\t7\n",
            corpus.asm
        );
        let unit = MaoUnit::parse(&text).unwrap();
        unit.index();
        unit
    }

    /// Plain instructions strictly inside a function span: what the
    /// peephole and scheduling passes edit.
    fn plain_inside(unit: &MaoUnit) -> Vec<EntryId> {
        unit.functions_cached()
            .iter()
            .flat_map(|f| f.spans.iter().flat_map(|s| s.start + 1..s.end))
            .filter(|&id| {
                matches!(unit.entry(id), Entry::Insn(_)) && crate::cfg::is_plain(unit.entry(id))
            })
            .collect()
    }

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        OneForOne,
        DeletesOnly,
        Mixed,
        InsertBearing,
        Structural,
        OutOfRange,
        Append,
        Permuted,
        PermuteInsert,
    }

    fn nop(len: usize) -> Entry {
        Entry::Insn(Instruction::nop_of_len(len).into())
    }

    /// A seeded edit set of `shape` against `unit`.
    fn edits(rng: &mut Rng, unit: &MaoUnit, shape: Shape) -> EditSet {
        let plain = plain_inside(unit);
        let mut edits = EditSet::new();
        let pick = |rng: &mut Rng| plain[rng.below(plain.len())];
        let n = 1 + rng.below(40);
        for _ in 0..n {
            let id = pick(rng);
            match shape {
                Shape::OneForOne => {
                    let other = unit.entry(pick(rng)).clone();
                    edits.replace(id, vec![other])
                }
                Shape::DeletesOnly => edits.delete(id),
                Shape::Mixed => match rng.below(4) {
                    0 => edits.delete(id),
                    1 => edits.replace(id, Vec::new()),
                    2 => edits.replace_insn(id, Instruction::nop_of_len(3)),
                    // Any non-structural entry, inside a function or not.
                    _ => {
                        let any = rng.below(unit.len());
                        if is_structural(unit.entry(any)) {
                            edits.replace(id, vec![nop(2)])
                        } else {
                            edits.delete(any)
                        }
                    }
                },
                Shape::InsertBearing => match rng.below(4) {
                    0 => edits.insert_before(id, vec![nop(1)]),
                    1 => edits.insert_after(id, vec![nop(2), nop(1)]),
                    2 => edits.replace(id, vec![nop(1), nop(4)]),
                    _ => edits.delete(id),
                },
                Shape::Structural => match rng.below(3) {
                    0 => edits.insert_after(id, vec![Entry::Label(".Lnew".into())]),
                    1 => {
                        let label = (0..unit.len())
                            .find(|&i| matches!(unit.entry(i), Entry::Label(_)))
                            .unwrap();
                        edits.delete(label)
                    }
                    _ => edits.delete(id),
                },
                Shape::OutOfRange => {
                    edits.delete(unit.len() + rng.below(5));
                    edits.replace_insn(id, Instruction::nop_of_len(2))
                }
                Shape::Append => {
                    edits.insert_before(usize::MAX, vec![nop(1)]);
                    edits.replace_insn(id, Instruction::nop_of_len(2))
                }
                Shape::Permuted => match rng.below(3) {
                    0 => edits.replace_insn(id, Instruction::nop_of_len(3)),
                    _ => permute_run(rng, unit, &plain, &mut edits),
                },
                Shape::PermuteInsert => match rng.below(4) {
                    0 => edits.insert_before(id, vec![nop(1), nop(2)]),
                    1 => edits.insert_after(id, vec![nop(4)]),
                    2 => edits.delete(id),
                    _ => permute_run(rng, unit, &plain, &mut edits),
                },
            };
        }
        edits
    }

    /// Permute a run of up to 6 consecutive `ids` of one function span
    /// into a seeded order.
    fn permute_run<'a>(
        rng: &mut Rng,
        unit: &MaoUnit,
        ids: &[EntryId],
        edits: &'a mut EditSet,
    ) -> &'a mut EditSet {
        let start = rng.below(ids.len());
        let span = unit
            .functions_cached()
            .iter()
            .flat_map(|f| &f.spans)
            .find(|s| s.contains(&ids[start]))
            .unwrap();
        let slots: Vec<EntryId> = ids[start..]
            .iter()
            .take(2 + rng.below(5))
            .take_while(|id| span.contains(id))
            .copied()
            .collect();
        let mut order: Vec<usize> = (0..slots.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        edits.permute(&slots, &order)
    }

    /// Apply `lists` to a copy of `base`, every analysis slot filled, by
    /// the sweep and their concatenation by the oracle: the entries and the
    /// index (against a rebuild) agree, and a function keeps its very slot
    /// (`Arc::ptr_eq`) exactly where the oracle keeps it, that is, where
    /// the edits neither touch nor shift it; every other slot is empty.
    /// Returns whether the index was patched.
    fn matches_the_oracle(base: &MaoUnit, mut lists: Vec<EditSet>, ctx: &str) -> bool {
        let mut unit = base.clone();
        for slot in &unit.index().analyses {
            slot.get_or_init(Default::default);
        }
        let before: Vec<Arc<FunctionAnalyses>> = (unit.index().analyses.iter())
            .map(|slot| slot.get().unwrap().clone())
            .collect();
        let mut oracle = unit.clone();
        let mut all = EditSet::new();
        for list in lists.iter().cloned() {
            all.merge(list);
        }
        assert_eq!(
            unit.apply_lists(&mut lists, false),
            reference::apply(&mut oracle, all),
            "{ctx}"
        );
        assert_eq!(unit.entries, oracle.entries, "{ctx}");
        assert_eq!(
            unit.index.get().is_some(),
            oracle.index.get().is_some(),
            "{ctx}"
        );
        if unit.index.get().is_none() {
            return false;
        }
        assert_eq!(*unit.index(), build_index(&unit.entries), "{ctx}");
        let (ours, theirs) = (&unit.index().analyses, &oracle.index().analyses);
        for (k, old) in before.iter().enumerate() {
            match theirs[k].get() {
                Some(kept) => {
                    assert!(Arc::ptr_eq(kept, old), "{ctx}: the oracle's slot {k}");
                    let ours = ours[k].get();
                    assert!(
                        ours.is_some_and(|ours| Arc::ptr_eq(ours, old)),
                        "{ctx}: function {k} lost its slot"
                    );
                }
                None => assert!(ours[k].get().is_none(), "{ctx}: function {k} kept its slot"),
            }
        }
        true
    }

    /// Seeded edit sets of every shape applied in place and by the oracle
    /// agree (see [`matches_the_oracle`]).
    #[test]
    fn in_place_apply_matches_the_rebuilding_oracle() {
        use Shape::*;
        let base = mixed_unit();
        let mut patched = 0;
        for seed in 1..=12u64 {
            for shape in [
                OneForOne,
                DeletesOnly,
                Mixed,
                InsertBearing,
                Structural,
                OutOfRange,
                Append,
                Permuted,
                PermuteInsert,
            ] {
                let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
                let set = edits(&mut rng, &base, shape);
                patched += matches_the_oracle(&base, vec![set], &format!("seed {seed} {shape:?}"))
                    as usize;
            }
        }
        assert!(patched >= 12 * 6, "only {patched} edit sets kept the index");
    }

    /// What one generated edit does; see [`random_list`].
    type OpSeed = (u8, usize, usize, usize);

    /// An edit list from `seeds`, pushed in the order drawn: ids anywhere
    /// in the unit (structural entries and function boundaries included),
    /// or, for half the lists, inside one 24-entry window, so ids repeat
    /// and inserts stack; permutes of 2–5 ids; labels inserted; edits past
    /// the end; `usize::MAX` appends.
    fn random_list(unit: &MaoUnit, window: usize, seeds: &[OpSeed]) -> EditSet {
        let len = unit.len();
        let pick = |a: usize| match window % 2 {
            0 => a % len,
            _ => (window / 2 % len + a % 24).min(len - 1),
        };
        let mut edits = EditSet::new();
        for &(kind, a, b, n) in seeds {
            let id = pick(a);
            let new = || (0..n).map(|i| nop(1 + (b + i) % 4)).collect::<Vec<_>>();
            match kind {
                0 | 1 => edits.delete(id),
                2 => edits.replace_insn(id, Instruction::nop_of_len(1 + b % 6)),
                3 => edits.replace(id, new().into_iter().take(b % 3).collect()),
                4 => edits.insert_before(id, new()),
                5 => edits.insert_after(id, new()),
                6 | 7 => {
                    let step = 1 + b % 3;
                    let slots: Vec<EntryId> = (0..n + 1)
                        .map(|i| id + i * step)
                        .take_while(|&slot| slot < len + 2)
                        .collect();
                    let mut order: Vec<usize> = (0..slots.len()).collect();
                    order.rotate_left(1 + b % slots.len().max(1));
                    edits.permute(&slots, &order)
                }
                8 => edits.insert_after(id, vec![Entry::Label(".Lnew".into())]),
                9 => match b % 3 {
                    0 => edits.delete(len + b % 4),
                    1 => edits.insert_after(usize::MAX, new()),
                    _ => edits.replace(usize::MAX, new()),
                },
                _ => edits.insert_before(usize::MAX, new()),
            };
        }
        edits
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Random edit lists, applied whole or split into two lists at a
        /// random id no permute straddles, match the oracle.
        #[test]
        fn random_edit_lists_match_the_rebuilding_oracle(
            seeds in proptest::collection::vec(
                (0u8..11, 0usize..1 << 20, 0usize..1 << 20, 1usize..4),
                1..40,
            ),
            window in 0usize..1 << 20,
            split in 0usize..1 << 20,
        ) {
            let base = mixed_unit();
            let list = random_list(&base, window, &seeds);
            let ctx = format!("{seeds:?} window {window}");
            matches_the_oracle(&base, vec![list.clone()], &ctx);
            let EditSet { ops, slots, .. } = list;
            let mut split = split % base.len();
            while let Some(last) = ops.iter().find_map(|(id, op)| match op {
                Op::Permute(run) if *id < split && slots[run.end - 1].0 >= split => {
                    Some(slots[run.end - 1].0)
                }
                _ => None,
            }) {
                split = last + 1;
            }
            let (mut low, mut high) = (EditSet::new(), EditSet::new());
            for (id, op) in ops {
                let side = if id < split { &mut low } else { &mut high };
                match op {
                    Op::Permute(run) => {
                        let pairs = &slots[run];
                        let ids: Vec<EntryId> = pairs.iter().map(|&(slot, _)| slot).collect();
                        let order: Vec<usize> = pairs
                            .iter()
                            .map(|&(_, src)| ids.binary_search(&src).unwrap())
                            .collect();
                        side.permute(&ids, &order)
                    }
                    op => side.push(id, op),
                };
            }
            matches_the_oracle(&base, vec![low, high], &format!("{ctx} split {split}"));
        }
    }

    /// The largest allocation `apply(edits)` makes, with the debug-build
    /// index oracle (a full rebuild by design) paused.
    fn largest_allocation(unit: &mut MaoUnit, edits: EditSet) -> usize {
        work_counts::INDEX_ORACLE_PAUSED.with(|p| p.set(true));
        LARGEST.with(|n| n.set(0));
        unit.apply(edits);
        let largest = LARGEST.with(Cell::get);
        work_counts::INDEX_ORACLE_PAUSED.with(|p| p.set(false));
        largest
    }

    /// A one-for-one edit set allocates nothing that grows with the unit,
    /// and a deletes-only one creates no second entry vector: apply's
    /// largest buffer is bounded by the edit set, far below the unit's.
    #[test]
    fn in_place_apply_allocates_no_unit_sized_buffer() {
        let mut unit = core_library(0.05);
        let unit_bytes = unit.len() * std::mem::size_of::<Entry>();
        assert!(unit_bytes >= 1 << 20, "{unit_bytes} bytes of entries");
        let one_per_function = |unit: &MaoUnit| -> Vec<EntryId> {
            unit.functions_cached()
                .iter()
                .filter_map(|f| {
                    f.entry_ids()
                        .skip(1)
                        .find(|&id| crate::cfg::is_plain(unit.entry(id)))
                })
                .collect()
        };
        let ids = one_per_function(&unit);
        assert!(ids.len() >= 40);
        let mut rewrite = EditSet::new();
        for &id in &ids {
            rewrite.replace_insn(id, Instruction::nop_of_len(2));
        }
        let largest = largest_allocation(&mut unit, rewrite);
        assert!(unit.index.get().is_some(), "the index is kept");
        assert!(
            largest < 4096,
            "a one-for-one apply of {} edits allocated {largest} bytes at once",
            ids.len()
        );

        let mut deletes = EditSet::new();
        for id in one_per_function(&unit) {
            deletes.delete(id);
        }
        let len = unit.len();
        let largest = largest_allocation(&mut unit, deletes);
        assert_eq!(unit.len() + ids.len(), len);
        assert!(unit.index.get().is_some(), "the index is patched");
        assert!(
            largest < 4096,
            "a deletes-only apply allocated {largest} bytes at once ({unit_bytes} of entries)"
        );
        assert_eq!(*unit.index(), build_index(&unit.entries));
    }

    /// `run_functions` applies the per-function lists of a pass whose
    /// edits move nothing with no merged copy: no buffer it allocates grows
    /// with the whole pass's edits. A merged set would hold every
    /// replacement of the pass at once (and grow by doubling): about 7 MB
    /// of `oneshot_build`'s peak RSS at seed 1.
    #[test]
    fn one_for_one_passes_hold_no_merged_edit_set() {
        let mut unit = core_library(0.05);
        let entry = std::mem::size_of::<(EntryId, Entry)>();
        for pass in ["SCHED", "REDMOV"] {
            let invocations = crate::pass::parse_invocations(pass).unwrap();
            work_counts::INDEX_ORACLE_PAUSED.with(|p| p.set(true));
            LARGEST.with(|n| n.set(0));
            let report = crate::pass::run_pipeline(&mut unit, &invocations, None).unwrap();
            let largest = LARGEST.with(Cell::get);
            work_counts::INDEX_ORACLE_PAUSED.with(|p| p.set(false));
            // Any map holding every edit of the pass at once needs at least
            // this many bytes in one table.
            let merged = report.passes[0].1.transformations * entry;
            assert!(merged >= 32 * 1024, "{pass}: only {merged} bytes of edits");
            assert!(
                largest < merged,
                "{pass}: allocated {largest} bytes at once, as much as a merged \
                 edit set ({merged} bytes)"
            );
        }
    }
}
