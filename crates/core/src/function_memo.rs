//! The function-result memo: cross-request reuse of function-level pass
//! results.
//!
//! The paper's pass manager splits function-level passes from unit-level
//! ones (§III.A). A long-lived service sees the same functions again and
//! again — an incremental build resends a unit with one function edited —
//! so the result of the *leading run of function-scope passes* over an
//! unchanged function can be stored and spliced back in instead of being
//! recomputed.
//!
//! * **Prefix.** The memoizable prefix of an invocation list is its leading
//!   run of passes declaring [`PassScope::Function`] that support the unit's
//!   ISA and carry no `dump-before`/`dump-after` option.
//! * **Key.** 128 bits of MurmurHash3 x64-128 (a 64-bit collision would
//!   hand a request wrong code): the ISA tag, the cost-model fingerprint,
//!   the prefix invocations' canonical rendering ([`crate::pass::canonical`],
//!   options by typed value), the entries outside every function span (jump
//!   tables), the function's name, and its body entries span by span. Entry
//!   *positions* are not in the key: the prefix passes produce the same body
//!   wherever the function sits, so a function shifted by an edit elsewhere
//!   in the unit still hits. This is the one content key a function has:
//!   analyses live in each request's unit, so it is what carries work
//!   across `maod` requests.
//! * **Value.** The function's spans after the prefix, each encoded with
//!   [`mao_asm::snapshot::encode`], plus per prefix pass the function's
//!   [`PassStats`] and buffered trace events. [`crate::pass::run_functions`]
//!   skips a hit and folds the stored stats and trace in function order, so
//!   totals, notes and trace lines come out identical.
//! * **Locality.** A function is looked up only when no other function
//!   references a label it defines and it references no label another
//!   function defines (function entry labels excepted). DCE keeps an
//!   unreachable label alive when anything in the unit names it, and the CFG
//!   reads jump tables wherever their label is; with that isolation rule both
//!   reads stay inside the function or the keyed context. Function-scope
//!   passes must edit only the function they are given (checked by a debug
//!   assertion in `run_functions`), neither add nor remove functions, and
//!   call `run_functions` exactly once.
//! * **Admission.** A value is stored on the second miss of its key under
//!   the same whole pass string — a small direct-mapped doorkeeper
//!   remembers (key, pass string) pairs seen once — or at once when another
//!   function of the same request was a hit, which marks an edit of a unit
//!   the memo already holds. One-off pass strings never store anything,
//!   even when they share a prefix with other pass strings. Stored values
//!   are bounded by [`FUNCTION_MEMO_BUDGET_BYTES`], least recently used
//!   first out.
//!
//! A pipeline that fails or panics inside the prefix inserts nothing: values
//! are offered only after the last prefix pass returned.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mao_asm::{DataItem, Directive, Entry};
use mao_obs::{Counter, Metrics, TraceEvent};

use crate::isa::x86::fnv::{FnvHasher, Murmur3};
use crate::isa::x86::sym::Sym;
use crate::isa::{x86, IsaId};
use crate::pass::{canonical, PassDescriptor, PassInvocation, PassScope, PassStats};
use crate::unit::{Function, MaoUnit};

/// Byte budget of the stored values (encoded bodies plus replay records).
/// The benchmark's edit workload (25 units) keeps about 0.7 MB live; the
/// versions its edits replace are the least recently used, so they go
/// first once the budget is reached.
pub const FUNCTION_MEMO_BUDGET_BYTES: usize = 1536 << 10;

/// Slots of the direct-mapped doorkeeper that remembers (key, pass string)
/// pairs seen once. A collision forgets the older pair, which only delays
/// its admission.
pub const DOORKEEPER_SLOTS: usize = 4096;

/// Fixed per-value charge on top of the encoded bytes (map slot, LRU slot,
/// vector headers).
const VALUE_OVERHEAD_BYTES: usize = 128;

/// What one prefix pass produced for one function.
#[derive(Debug, Clone)]
pub(crate) struct FnPassRecord {
    pub(crate) stats: PassStats,
    pub(crate) trace: Vec<TraceEvent>,
}

/// One stored result: the function after the prefix, and what each prefix
/// pass reported for it.
#[derive(Debug)]
pub(crate) struct MemoValue {
    /// Post-prefix entries of each span, snapshot-encoded.
    spans: Vec<Vec<u8>>,
    /// One record per prefix pass, in invocation order.
    passes: Vec<FnPassRecord>,
    /// What the value is charged against the budget.
    bytes: usize,
}

impl MemoValue {
    fn new(spans: Vec<Vec<u8>>, passes: Vec<FnPassRecord>) -> MemoValue {
        let records: usize = passes
            .iter()
            .map(|r| {
                std::mem::size_of::<FnPassRecord>()
                    + r.stats.notes.iter().map(String::len).sum::<usize>()
                    + r.trace.iter().map(event_bytes).sum::<usize>()
            })
            .sum();
        let bytes = VALUE_OVERHEAD_BYTES + spans.iter().map(Vec::len).sum::<usize>() + records;
        MemoValue {
            spans,
            passes,
            bytes,
        }
    }

    /// The stored record of prefix pass `pass`.
    pub(crate) fn record(&self, pass: usize) -> &FnPassRecord {
        &self.passes[pass]
    }
}

fn event_bytes(ev: &TraceEvent) -> usize {
    std::mem::size_of::<TraceEvent>()
        + ev.message.len()
        + ev.scope.len()
        + ev.fields
            .iter()
            .map(|(k, v)| k.len() + v.len())
            .sum::<usize>()
}

/// Point-in-time counters of a [`FunctionMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionMemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups of eligible functions that found nothing.
    pub misses: u64,
    /// Values stored (a key's second miss).
    pub admissions: u64,
    /// Values dropped to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently charged against [`FUNCTION_MEMO_BUDGET_BYTES`].
    pub bytes: u64,
    /// Values currently stored.
    pub entries: u64,
}

#[derive(Debug, Default)]
struct MemoState {
    /// Key → (last-use stamp, value).
    map: HashMap<u128, (u64, Arc<MemoValue>)>,
    /// Last-use stamp → key, oldest first.
    lru: BTreeMap<u64, u128>,
    clock: u64,
    bytes: usize,
    /// Keys seen once, direct-mapped; allocated on first use.
    doorkeeper: Vec<u128>,
}

/// Process-wide store of function-level prefix results, shared by every
/// shard of a `maod` engine (attach it with
/// [`crate::AnalysisCache::set_function_memo`]). One-shot `mao` never
/// attaches one.
#[derive(Debug, Default)]
pub struct FunctionMemo {
    state: Mutex<MemoState>,
    hits: Counter,
    misses: Counter,
    admissions: Counter,
    evictions: Counter,
}

impl FunctionMemo {
    /// An empty memo with private counters.
    pub fn new() -> FunctionMemo {
        FunctionMemo::default()
    }

    /// An empty memo whose counters are the registry families
    /// `mao_function_memo_{hits,misses,admissions,evictions}_total`, so a
    /// metrics scrape and [`FunctionMemo::stats`] read one source.
    pub fn registered(metrics: &Metrics) -> FunctionMemo {
        FunctionMemo {
            state: Mutex::default(),
            hits: metrics.counter("mao_function_memo_hits_total"),
            misses: metrics.counter("mao_function_memo_misses_total"),
            admissions: metrics.counter("mao_function_memo_admissions_total"),
            evictions: metrics.counter("mao_function_memo_evictions_total"),
        }
    }

    /// Counters plus the current size.
    pub fn stats(&self) -> FunctionMemoStats {
        let state = self
            .state
            .lock()
            .expect("no function-memo update panics while holding the lock");
        FunctionMemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            admissions: self.admissions.get(),
            evictions: self.evictions.get(),
            bytes: state.bytes as u64,
            entries: state.map.len() as u64,
        }
    }

    /// Look every key up under one lock (`None` keys are not looked up).
    fn lookup(&self, keys: &[Option<u128>]) -> Vec<Option<Arc<MemoValue>>> {
        let mut state = self
            .state
            .lock()
            .expect("no function-memo update panics while holding the lock");
        let state = &mut *state;
        let (mut hits, mut misses) = (0, 0);
        let found = keys
            .iter()
            .map(|key| {
                let key = (*key)?;
                state.clock += 1;
                let stamp = state.clock;
                match state.map.get_mut(&key) {
                    Some((last, value)) => {
                        state.lru.remove(last);
                        state.lru.insert(stamp, key);
                        *last = stamp;
                        hits += 1;
                        Some(value.clone())
                    }
                    None => {
                        misses += 1;
                        None
                    }
                }
            })
            .collect();
        self.hits.add(hits);
        self.misses.add(misses);
        found
    }

    /// Admission: which of `keys`, computed under the whole invocation
    /// list hashed as `pipeline`, to store now. With `known_unit` (another
    /// function of the same request was a hit: an edit of a unit the memo
    /// already holds) every key is admitted. Otherwise a key is admitted
    /// when the doorkeeper remembers it *from the same pipeline*, and the
    /// doorkeeper remembers it from now on if not. Two pass strings that
    /// share a prefix (`REDZEXT` and `REDZEXT:NOPKILL`) share stored
    /// values, but a one-off pass string never stores anything.
    fn admit(&self, keys: &[u128], pipeline: u128, known_unit: bool) -> Vec<bool> {
        let mut state = self
            .state
            .lock()
            .expect("no function-memo update panics while holding the lock");
        if state.doorkeeper.is_empty() {
            state.doorkeeper = vec![0; DOORKEEPER_SLOTS];
        }
        keys.iter()
            .map(|&key| {
                if state.map.contains_key(&key) {
                    return false;
                }
                if known_unit {
                    return true;
                }
                let sighting = key ^ pipeline;
                let slot = (sighting as u64 % DOORKEEPER_SLOTS as u64) as usize;
                if state.doorkeeper[slot] == sighting {
                    state.doorkeeper[slot] = 0;
                    true
                } else {
                    state.doorkeeper[slot] = sighting;
                    false
                }
            })
            .collect()
    }

    /// Store `value` under `key`, evicting least recently used values past
    /// the budget. A value larger than the whole budget is not stored.
    fn insert(&self, key: u128, value: MemoValue) {
        if value.bytes > FUNCTION_MEMO_BUDGET_BYTES {
            return;
        }
        let mut state = self
            .state
            .lock()
            .expect("no function-memo update panics while holding the lock");
        let state = &mut *state;
        if state.map.contains_key(&key) {
            return;
        }
        state.clock += 1;
        let stamp = state.clock;
        state.bytes += value.bytes;
        state.map.insert(key, (stamp, Arc::new(value)));
        state.lru.insert(stamp, key);
        self.admissions.inc();
        while state.bytes > FUNCTION_MEMO_BUDGET_BYTES {
            let Some((_, oldest)) = state.lru.pop_first() else {
                break;
            };
            if let Some((_, gone)) = state.map.remove(&oldest) {
                state.bytes -= gone.bytes;
                self.evictions.inc();
            }
        }
    }
}

/// The function-result memo's view of one pass inside the prefix, handed to
/// [`crate::pass::run_functions`] through the pass context.
#[derive(Debug, Default)]
pub(crate) struct MemoPass {
    /// Index of the pass within the prefix.
    pass: usize,
    /// Per function, in unit order: the stored result when the memo
    /// answered for it.
    hits: Arc<Vec<Option<Arc<MemoValue>>>>,
    /// Per function: what the pass produced where it ran.
    computed: Vec<Option<FnPassRecord>>,
    /// `run_functions` calls made during the pass.
    calls: usize,
}

impl MemoPass {
    /// Number of functions the pass must see.
    pub(crate) fn functions(&self) -> usize {
        self.hits.len()
    }

    /// The stored record for function `k` when the memo answered for it
    /// (the pass must skip it).
    pub(crate) fn replay(&self, k: usize) -> Option<&FnPassRecord> {
        self.hits[k].as_ref().map(|value| value.record(self.pass))
    }

    /// Keep what the pass produced for function `k`.
    pub(crate) fn record(&mut self, k: usize, record: FnPassRecord) {
        self.computed[k] = Some(record);
    }

    /// One `run_functions` call finished.
    pub(crate) fn called(&mut self) {
        self.calls += 1;
    }
}

/// One pipeline run's use of the memo: the prefix length, the keys and hits
/// of the input's functions, and the records the prefix passes produce.
pub(crate) struct MemoRun {
    memo: Arc<FunctionMemo>,
    /// Number of leading invocations in the prefix (at least 1).
    pub(crate) prefix_len: usize,
    /// Per function: its key, `None` when it is not isolated.
    keys: Vec<Option<u128>>,
    /// Hash of the whole invocation list, for admission.
    pipeline: u128,
    hits: Arc<Vec<Option<Arc<MemoValue>>>>,
    /// Per function: one record per prefix pass that ran it.
    records: Vec<Vec<FnPassRecord>>,
    /// Every prefix pass called `run_functions` exactly once, so every
    /// computed function has a record per prefix pass.
    complete: bool,
    /// Microseconds spent keying, looking up, decoding and splicing.
    pub(crate) lookup_us: u64,
}

impl MemoRun {
    /// Key the unit's functions, look them up, and splice every hit into
    /// `unit` in one pass ([`MaoUnit::splice_ranges`]). `None` when the
    /// invocation list has no memoizable prefix. `passes` are the
    /// invocations' resolved descriptors.
    pub(crate) fn begin(
        memo: &Arc<FunctionMemo>,
        unit: &mut MaoUnit,
        invocations: &[PassInvocation],
        passes: &[PassDescriptor],
    ) -> Option<MemoRun> {
        let started = Instant::now();
        let prefix_len = prefix_len(unit.isa(), invocations, passes);
        if prefix_len == 0 {
            return None;
        }
        let functions = unit.functions_cached().to_vec();
        let prefix = canonical(&invocations[..prefix_len], &passes[..prefix_len]);
        let keys = function_keys(unit, &functions, &prefix);
        let mut hits = memo.lookup(&keys);
        let mut bodies = Vec::new();
        for (function, hit) in functions.iter().zip(hits.iter_mut()) {
            let Some(value) = hit else { continue };
            match decode_spans(value, function) {
                Some(decoded) => bodies.extend(function.spans.iter().cloned().zip(decoded)),
                // Cannot happen for values this module encoded; a miss is
                // the safe answer either way.
                None => *hit = None,
            }
        }
        bodies.sort_unstable_by_key(|(span, _)| span.start);
        unit.splice_ranges(bodies);
        assert_eq!(
            unit.functions_cached().len(),
            functions.len(),
            "splicing stored function bodies changed the function list"
        );
        Some(MemoRun {
            memo: memo.clone(),
            prefix_len,
            pipeline: pipeline_hash(&canonical(invocations, passes)),
            records: vec![Vec::new(); functions.len()],
            keys,
            hits: Arc::new(hits),
            complete: true,
            lookup_us: started.elapsed().as_micros() as u64,
        })
    }

    /// The context for prefix pass `pass`.
    pub(crate) fn pass_ctx(&self, pass: usize) -> MemoPass {
        MemoPass {
            pass,
            hits: self.hits.clone(),
            computed: vec![None; self.hits.len()],
            calls: 0,
        }
    }

    /// Take back the context of a prefix pass that returned.
    pub(crate) fn collect(&mut self, pass: Option<MemoPass>) {
        let Some(pass) = pass else {
            self.complete = false;
            return;
        };
        debug_assert_eq!(
            pass.calls, 1,
            "a function-scope pass must call run_functions exactly once"
        );
        if pass.calls != 1 {
            self.complete = false;
        }
        for (records, computed) in self.records.iter_mut().zip(pass.computed) {
            if let Some(record) = computed {
                records.push(record);
            }
        }
    }

    /// The prefix finished: offer every computed, isolated function's
    /// post-prefix body and records to the memo.
    pub(crate) fn finish(self, unit: &MaoUnit) {
        if !self.complete {
            return;
        }
        let functions = unit.functions_cached();
        let candidates: Vec<usize> = (0..self.keys.len())
            .filter(|&k| self.keys[k].is_some() && self.hits[k].is_none())
            .collect();
        if candidates.is_empty() {
            return;
        }
        let keys: Vec<u128> = candidates
            .iter()
            .map(|&k| self.keys[k].expect("candidates are keyed"))
            .collect();
        let known_unit = self.hits.iter().any(Option::is_some);
        let admitted = self.memo.admit(&keys, self.pipeline, known_unit);
        let mut records = self.records;
        for ((&k, key), admit) in candidates.iter().zip(keys).zip(admitted) {
            if !admit {
                continue;
            }
            let spans = functions[k]
                .spans
                .iter()
                .map(|span| mao_asm::snapshot::encode(&unit.entries()[span.clone()], 0))
                .collect();
            self.memo
                .insert(key, MemoValue::new(spans, std::mem::take(&mut records[k])));
        }
    }
}

/// Hash of a whole invocation list's canonical rendering.
fn pipeline_hash(passes: &str) -> u128 {
    let mut h = Murmur3::new(0x7069_7065_6c69_6e65);
    passes.hash(&mut h);
    h.finish128()
}

/// Decode a value's spans, checking they line up with `function`'s.
fn decode_spans(value: &MemoValue, function: &Function) -> Option<Vec<Vec<Entry>>> {
    if value.spans.len() != function.spans.len() {
        return None;
    }
    value
        .spans
        .iter()
        .map(|bytes| mao_asm::snapshot::decode(bytes, None).ok())
        .collect()
}

/// Length of the memoizable prefix of `invocations` on an `isa` unit.
fn prefix_len(isa: IsaId, invocations: &[PassInvocation], passes: &[PassDescriptor]) -> usize {
    invocations
        .iter()
        .zip(passes)
        .take_while(|(inv, pass)| {
            !inv.options.has("dump-before")
                && !inv.options.has("dump-after")
                && pass.scope == PassScope::Function
                && pass.isas.contains(&isa)
        })
        .count()
}

/// The labels an entry references: branch and call targets, symbolic memory
/// operands and data items (every one an interned [`Sym`]).
fn label_refs(entry: &Entry, mut sink: impl FnMut(Sym)) {
    match entry {
        Entry::Insn(insn) => {
            if let Some(i) = insn.x86() {
                for op in &i.operands {
                    match op {
                        x86::Operand::Label(s) => sink(*s),
                        x86::Operand::Mem(m) | x86::Operand::IndirectMem(m) => {
                            if let x86::Disp::Symbol { name, .. } = &m.disp {
                                sink(*name);
                            }
                        }
                        _ => {}
                    }
                }
            }
            if let Some(i) = insn.a64() {
                for op in &i.operands {
                    if let mao_aarch64::A64Operand::Label(s) = op {
                        sink(*s);
                    }
                }
            }
        }
        Entry::Directive(Directive::Data { items, .. }) => {
            for item in items {
                if let DataItem::Symbol(s) = item {
                    sink(*s);
                }
            }
        }
        _ => {}
    }
}

/// Which functions are isolated: no other function names a label they
/// define, and they name no label another function defines (entry labels
/// aside — no function-level pass deletes or reads through one). Only
/// isolated functions are memoized.
fn isolated(unit: &MaoUnit, functions: &[Function]) -> Vec<bool> {
    let mut ok = vec![true; functions.len()];
    // Interned label id → the function defining it.
    let mut defined: HashMap<u32, usize, BuildHasherDefault<FnvHasher>> = HashMap::default();
    for (k, f) in functions.iter().enumerate() {
        for id in f.entry_ids().filter(|&id| id != f.label_id) {
            if let Entry::Label(l) = unit.entry(id) {
                let owner = *defined.entry(l.id()).or_insert(k);
                if owner != k {
                    ok[k] = false;
                    ok[owner] = false;
                }
            }
        }
    }
    for (k, f) in functions.iter().enumerate() {
        for id in f.entry_ids() {
            label_refs(unit.entry(id), |sym| {
                if let Some(&owner) = defined.get(&sym.id()) {
                    if owner != k {
                        ok[k] = false;
                        ok[owner] = false;
                    }
                }
            });
        }
    }
    ok
}

/// The 128-bit memo key of every isolated function (`None` for the rest):
/// a hash of what every function's key shares — ISA, cost model, the
/// prefix's canonical rendering ([`canonical`]), context — then per
/// function that hash, its name and its body.
fn function_keys(unit: &MaoUnit, functions: &[Function], prefix: &str) -> Vec<Option<u128>> {
    let mut shared = Murmur3::new(0x6d61_6f5f_6d65_6d6f);
    unit.isa().tag().hash(&mut shared);
    x86::cost::current().fingerprint().hash(&mut shared);
    prefix.hash(&mut shared);
    // The context: the entries outside every function span, gap by gap.
    let entries = unit.entries();
    let mut gap_start = 0;
    let gap_ends = functions
        .iter()
        .flat_map(|f| &f.spans)
        .map(|s| (s.start, s.end))
        .chain(std::iter::once((entries.len(), entries.len())));
    for (start, end) in gap_ends {
        entries[gap_start..start].hash(&mut shared);
        gap_start = end;
    }
    let shared = shared.finish128();
    isolated(unit, functions)
        .into_iter()
        .zip(functions)
        .map(|(isolated, f)| {
            if !isolated {
                return None;
            }
            let mut h = Murmur3::new(0x6675_6e63_7469_6f6e);
            shared.hash(&mut h);
            f.name.hash(&mut h);
            f.spans.len().hash(&mut h);
            for span in &f.spans {
                entries[span.clone()].hash(&mut h);
            }
            Some(h.finish128())
        })
        .collect()
}
