//! `SCHED` — basic-block list scheduling (paper §III.F).
//!
//! The paper found a 21% opportunity in a hashing microbenchmark purely from
//! instruction order: an `xorl` feeding three independent consumers stalled
//! the reservation stations (`RESOURCE_STALLS:RS_FULL`) depending on how the
//! consumers were ordered, because result forwarding has limited bandwidth.
//! The pass is *"a framework for list-scheduling at the assembly instruction
//! level. By changing the cost functions associated with the instructions,
//! different scheduling heuristics can be implemented. The current cost
//! function ensures that, when scheduling successors of an instruction with
//! multiple fan-outs, the instructions on the critical path are given a
//! higher priority."*
//!
//! Implementation: per block, build the dependence DAG (registers, flags,
//! memory, barriers), compute critical-path priorities, then issue greedily
//! under a simple port model (the paper's Core-2 anecdote: `lea` only on
//! port 0, shifts on ports 0 and 5).
//!
//! Each instruction's facts (register use/def sets, flag/memory/barrier
//! bits, scheduler latency, port mask) come from a single `def_use` call.
//! The DAG keeps flat successor lists that carry the dependence kind, and
//! issue works from a ready list plus a pending heap, skipping cycles in
//! which nothing can issue. One [`Scheduler`] serves all blocks of a
//! function, so its buffers are allocated once. The original rescanning
//! scheduler is kept as the test oracle (`reference`), and the two produce
//! identical orders.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::isa::x86::cost::CostModel;
use crate::isa::x86::reg::NUM_REG_IDS;
use crate::isa::x86::{def_use, Instruction, Reg};
use mao_obs::TraceEvent;

use crate::pass::{run_functions, PassContext, PassError, PassStats};
use crate::unit::{EditSet, MaoUnit};

/// A dependence edge kind (used for latency assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dep {
    /// Read-after-write: full producer latency.
    Raw,
    /// Ordering only (WAR/WAW/memory/flags): next cycle.
    Order,
}

/// "No instruction" in the index-valued trackers.
const NONE: usize = usize::MAX;

// Register sets are `u64` masks over `RegId::index`.
const _: () = assert!(NUM_REG_IDS <= 64);

/// What the scheduler needs to know about one instruction.
#[derive(Debug, Clone, Copy)]
struct Facts {
    /// Registers read, as a mask over `RegId::index`.
    uses: u64,
    /// Registers written.
    defs: u64,
    flags_use: bool,
    flags_kill: bool,
    mem_read: bool,
    mem_write: bool,
    barrier: bool,
    /// [`CostModel::sched_latency`].
    latency: u64,
    /// [`CostModel::ports`].
    ports: u64,
}

impl Facts {
    fn of(insn: &Instruction, model: &CostModel) -> Facts {
        let du = def_use(insn);
        let mask = |regs: &[Reg]| regs.iter().fold(0u64, |m, r| m | 1 << r.id.index());
        let machine = &model.machine;
        Facts {
            uses: mask(&du.reg_uses),
            defs: mask(&du.reg_defs),
            flags_use: !du.flags_use.is_empty(),
            flags_kill: !du.flags_killed().is_empty(),
            mem_read: du.mem_read,
            mem_write: du.mem_write,
            barrier: du.barrier,
            latency: model.sched_latency_with(insn, &du),
            ports: model.ports_with(
                insn,
                &du,
                machine.num_ports as usize,
                machine.symmetric_ports,
            ),
        }
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let bit = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(bit)
    })
}

/// Clear `buf` to `len` copies of `value`, keeping its allocation.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// List-scheduling state. Every buffer is reused from block to block.
#[derive(Debug, Default)]
struct Scheduler {
    facts: Vec<Facts>,
    /// DAG edges `(from, to, kind)` in the order they were added.
    edges: Vec<(usize, usize, Dep)>,
    /// `edge_to[p] == i` once the edge `p → i` exists. All edges into `i`
    /// are added while `i` is visited, so this is a complete dedupe.
    edge_to: Vec<usize>,
    /// Per register: the last instruction that wrote it.
    last_def: Vec<usize>,
    /// Per register: head of its chain in `readers` — the instructions
    /// that read it since its last write.
    reader_head: Vec<usize>,
    /// Reader chain nodes `(reader, next)`.
    readers: Vec<(usize, usize)>,
    /// Flag readers since the last flag write.
    flag_uses: Vec<usize>,
    /// Loads since the last store.
    loads: Vec<usize>,
    /// Successors of `i` with their edge kind:
    /// `succs[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<usize>,
    succs: Vec<(usize, Dep)>,
    unscheduled_preds: Vec<usize>,
    prio: Vec<u64>,
    /// Earliest cycle each instruction may issue.
    ready_at: Vec<u64>,
    /// Issuable now, sorted by priority (descending), then original index.
    ready: Vec<usize>,
    /// Every predecessor issued, but not yet at `ready_at`.
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    order: Vec<usize>,
}

impl Scheduler {
    /// Greedy cycle-by-cycle list scheduling under the port model.
    /// Returns the new order (indices into `insns`).
    fn schedule(&mut self, insns: &[&Instruction], model: &CostModel) -> &[usize] {
        self.facts.clear();
        self.facts
            .extend(insns.iter().map(|insn| Facts::of(insn, model)));
        self.build_dag();
        self.prioritize();
        self.issue(model.machine.issue_width as usize);
        &self.order
    }

    /// The dependence DAG of the block: registers, flags, memory and
    /// barriers. When several dependences link one pair, the kind added
    /// first wins.
    fn build_dag(&mut self) {
        let n = self.facts.len();
        let Scheduler {
            facts,
            edges,
            edge_to,
            last_def,
            reader_head,
            readers,
            flag_uses,
            loads,
            succ_start,
            succs,
            unscheduled_preds,
            ..
        } = self;
        edges.clear();
        readers.clear();
        flag_uses.clear();
        loads.clear();
        reset(edge_to, n, NONE);
        reset(last_def, NUM_REG_IDS, NONE);
        reset(reader_head, NUM_REG_IDS, NONE);
        let mut last_flag_def = NONE;
        let mut last_store = NONE;
        let mut last_barrier = NONE;

        for (i, f) in facts.iter().enumerate() {
            let mut add = |from: usize, dep: Dep| {
                if from != NONE && edge_to[from] != i {
                    edge_to[from] = i;
                    edges.push((from, i, dep));
                }
            };

            add(last_barrier, Dep::Order);

            // Register dependencies.
            for r in bits(f.uses) {
                add(last_def[r], Dep::Raw);
            }
            for r in bits(f.defs) {
                add(last_def[r], Dep::Order); // WAW
                let mut node = reader_head[r];
                while node != NONE {
                    let (reader, next) = readers[node];
                    add(reader, Dep::Order); // WAR
                    node = next;
                }
            }

            // Flag dependencies.
            if f.flags_use {
                add(last_flag_def, Dep::Raw);
            }
            if f.flags_kill {
                add(last_flag_def, Dep::Order); // flags WAW
                for &r in flag_uses.iter() {
                    add(r, Dep::Order); // flags WAR
                }
            }

            // Memory dependencies (no alias analysis: all stores conflict).
            if f.mem_read {
                add(last_store, Dep::Raw);
            }
            if f.mem_write {
                add(last_store, Dep::Order);
                for &l in loads.iter() {
                    add(l, Dep::Order);
                }
            }

            if f.barrier {
                // Everything before must come before the barrier. What
                // precedes the previous barrier already has a path to it,
                // and it has an ordering edge to `i`, so a direct edge from
                // there would change neither priorities nor readiness.
                let since = if last_barrier == NONE {
                    0
                } else {
                    last_barrier + 1
                };
                for j in since..i {
                    add(j, Dep::Order);
                }
                last_barrier = i;
            }

            // Update trackers.
            for r in bits(f.uses) {
                readers.push((i, reader_head[r]));
                reader_head[r] = readers.len() - 1;
            }
            for r in bits(f.defs) {
                last_def[r] = i;
                reader_head[r] = NONE;
            }
            if f.flags_kill {
                last_flag_def = i;
                flag_uses.clear();
            }
            if f.flags_use {
                flag_uses.push(i);
            }
            if f.mem_write {
                last_store = i;
                loads.clear();
            } else if f.mem_read {
                loads.push(i);
            }
        }

        // Successor lists: count per source, turn the counts into range
        // ends, then fill each range from its end.
        reset(succ_start, n + 1, 0);
        reset(unscheduled_preds, n, 0);
        for &(from, to, _) in edges.iter() {
            succ_start[from] += 1;
            unscheduled_preds[to] += 1;
        }
        let mut end = 0;
        for slot in succ_start.iter_mut() {
            end += *slot;
            *slot = end;
        }
        reset(succs, edges.len(), (0, Dep::Order));
        for &(from, to, dep) in edges.iter().rev() {
            succ_start[from] -= 1;
            succs[succ_start[from]] = (to, dep);
        }
    }

    /// Critical-path priority: longest latency-weighted path to any DAG
    /// sink.
    fn prioritize(&mut self) {
        let n = self.facts.len();
        reset(&mut self.prio, n, 0);
        for i in (0..n).rev() {
            let best_succ = self.succs[self.succ_start[i]..self.succ_start[i + 1]]
                .iter()
                .map(|&(s, _)| self.prio[s])
                .max()
                .unwrap_or(0);
            self.prio[i] = self.facts[i].latency + best_succ;
        }
    }

    /// Issue up to `issue_width` instructions per cycle, each time the
    /// highest-priority ready one that still has a free port.
    fn issue(&mut self, issue_width: usize) {
        let n = self.facts.len();
        let Scheduler {
            facts,
            succ_start,
            succs,
            unscheduled_preds,
            prio,
            ready_at,
            ready,
            pending,
            order,
            ..
        } = self;
        reset(ready_at, n, 0);
        ready.clear();
        pending.clear();
        order.clear();
        // Highest priority first; stable on original position.
        let key = |i: usize| (Reverse(prio[i]), i);
        let enqueue = |ready: &mut Vec<usize>, i: usize| {
            let at = ready.partition_point(|&j| key(j) < key(i));
            ready.insert(at, i);
        };
        ready.extend((0..n).filter(|&i| unscheduled_preds[i] == 0));
        ready.sort_unstable_by_key(|&i| key(i));

        let mut cycle: u64 = 0;
        while order.len() < n {
            while let Some(&Reverse((at, i))) = pending.peek() {
                if at > cycle {
                    break;
                }
                pending.pop();
                enqueue(ready, i);
            }
            if ready.is_empty() {
                // Nothing issues before the earliest pending instruction.
                let Reverse((at, _)) = pending.peek().expect("a DAG always has a next instruction");
                cycle = *at;
                continue;
            }
            let mut ports_busy: u64 = 0;
            let mut issued = 0usize;
            while issued < issue_width {
                let Some(pos) = ready
                    .iter()
                    .position(|&i| facts[i].ports & !ports_busy != 0)
                else {
                    break;
                };
                let pick = ready.remove(pos);
                // Claim the least-capable available port (greedy fit).
                let port = (facts[pick].ports & !ports_busy).trailing_zeros();
                ports_busy |= 1 << port;
                issued += 1;
                order.push(pick);
                for &(s, dep) in &succs[succ_start[pick]..succ_start[pick + 1]] {
                    let lat = match dep {
                        Dep::Raw => facts[pick].latency,
                        Dep::Order => 1,
                    };
                    ready_at[s] = ready_at[s].max(cycle + lat);
                    unscheduled_preds[s] -= 1;
                    if unscheduled_preds[s] == 0 {
                        if ready_at[s] <= cycle {
                            // A zero-latency RAW edge: issuable this cycle.
                            enqueue(ready, s);
                        } else {
                            pending.push(Reverse((ready_at[s], s)));
                        }
                    }
                }
            }
            cycle += 1;
        }
    }
}

/// Scheduling priority policy — the paper: "By changing the cost functions
/// associated with the instructions, different scheduling heuristics can be
/// implemented."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// The paper's cost function: critical-path instructions first.
    #[default]
    CriticalPath,
    /// Ablation baseline: keep source order among ready instructions.
    SourceOrder,
}

/// The list-scheduling pass.
pub(crate) fn run(unit: &mut MaoUnit, ctx: &mut PassContext) -> Result<PassStats, PassError> {
    let model = crate::isa::x86::cost::current();
    let policy = match ctx.options.get("policy") {
        Some("source-order") => Policy::SourceOrder,
        _ => Policy::CriticalPath,
    };
    let stats = run_functions(unit, ctx, |unit, function, fctx| {
        let cfg = fctx.cfg(unit, function);
        let mut edits = EditSet::new();
        if policy == Policy::SourceOrder {
            // The ablation baseline: no re-ranking at all.
            return Ok(edits);
        }
        let mut scheduler = Scheduler::default();
        let mut ids = Vec::new();
        let mut insns: Vec<&Instruction> = Vec::new();
        for block in &cfg.blocks {
            ids.clear();
            insns.clear();
            for (id, insn) in block.insns(unit) {
                ids.push(id);
                insns.push(insn);
            }
            if insns.len() < 3 {
                continue;
            }
            // Keep a block-terminating control-flow instruction pinned.
            if insns
                .last()
                .is_some_and(|last| last.mnemonic.is_control_flow())
            {
                ids.pop();
                insns.pop();
            }
            if insns.len() < 2 {
                continue;
            }
            let order = scheduler.schedule(&insns, &model);
            let moved = order
                .iter()
                .enumerate()
                .filter(|&(slot, &src)| slot != src)
                .count();
            if moved == 0 {
                continue;
            }
            fctx.stats.matched(1);
            fctx.stats.transformed(moved);
            edits.permute(&ids, order);
        }
        Ok(edits)
    })?;
    ctx.trace(1, || {
        TraceEvent::new(format!(
            "SCHED: moved {} instructions in {} blocks",
            stats.transformations, stats.matches
        ))
        .field("moved", stats.transformations)
        .field("blocks", stats.matches)
    });
    Ok(stats)
}

/// The original scheduler: it rescans every instruction for every issue
/// slot and re-derives costs on each visit. Kept as the oracle that
/// [`Scheduler`] must match order for order.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::Dep;
    use crate::isa::x86::cost::CostModel;
    use crate::isa::x86::{def_use, Instruction, RegId};

    /// The dependence DAG of one schedulable run of instructions.
    struct Dag {
        /// preds[i] = list of (producer index, dep kind).
        preds: Vec<Vec<(usize, Dep)>>,
        /// succs[i] = consumer indices.
        succs: Vec<Vec<usize>>,
    }

    fn build_dag(insns: &[&Instruction]) -> Dag {
        let n = insns.len();
        let mut preds: Vec<Vec<(usize, Dep)>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Last writer / readers per register.
        let mut last_def: HashMap<RegId, usize> = HashMap::new();
        let mut last_uses: HashMap<RegId, Vec<usize>> = HashMap::new();
        let mut last_flag_def: Option<usize> = None;
        let mut flag_uses_since: Vec<usize> = Vec::new();
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();
        let mut last_barrier: Option<usize> = None;

        let add_edge = |preds: &mut Vec<Vec<(usize, Dep)>>,
                        succs: &mut Vec<Vec<usize>>,
                        from: usize,
                        to: usize,
                        dep: Dep| {
            if from != to && !preds[to].iter().any(|&(p, _)| p == from) {
                preds[to].push((from, dep));
                succs[from].push(to);
            }
        };

        for (i, insn) in insns.iter().enumerate() {
            let du = def_use(insn);

            if let Some(b) = last_barrier {
                add_edge(&mut preds, &mut succs, b, i, Dep::Order);
            }

            // Register dependencies.
            for u in &du.reg_uses {
                if let Some(&d) = last_def.get(&u.id) {
                    add_edge(&mut preds, &mut succs, d, i, Dep::Raw);
                }
            }
            for d in &du.reg_defs {
                if let Some(&prev) = last_def.get(&d.id) {
                    add_edge(&mut preds, &mut succs, prev, i, Dep::Order); // WAW
                }
                if let Some(readers) = last_uses.get(&d.id) {
                    for &r in readers {
                        add_edge(&mut preds, &mut succs, r, i, Dep::Order); // WAR
                    }
                }
            }

            // Flag dependencies.
            if !du.flags_use.is_empty() {
                if let Some(d) = last_flag_def {
                    add_edge(&mut preds, &mut succs, d, i, Dep::Raw);
                }
            }
            if !du.flags_killed().is_empty() {
                if let Some(d) = last_flag_def {
                    add_edge(&mut preds, &mut succs, d, i, Dep::Order); // flags WAW
                }
                for &r in &flag_uses_since {
                    add_edge(&mut preds, &mut succs, r, i, Dep::Order); // flags WAR
                }
            }

            // Memory dependencies (no alias analysis: all stores conflict).
            if du.mem_read {
                if let Some(s) = last_store {
                    add_edge(&mut preds, &mut succs, s, i, Dep::Raw);
                }
            }
            if du.mem_write {
                if let Some(s) = last_store {
                    add_edge(&mut preds, &mut succs, s, i, Dep::Order);
                }
                for &l in &loads_since_store {
                    add_edge(&mut preds, &mut succs, l, i, Dep::Order);
                }
            }

            // Update trackers.
            if du.barrier {
                last_barrier = Some(i);
                // Everything before must come before the barrier.
                for j in 0..i {
                    add_edge(&mut preds, &mut succs, j, i, Dep::Order);
                }
            }
            for u in &du.reg_uses {
                last_uses.entry(u.id).or_default().push(i);
            }
            for d in &du.reg_defs {
                last_def.insert(d.id, i);
                last_uses.insert(d.id, Vec::new());
            }
            if !du.flags_killed().is_empty() {
                last_flag_def = Some(i);
                flag_uses_since.clear();
            }
            if !du.flags_use.is_empty() {
                flag_uses_since.push(i);
            }
            if du.mem_write {
                last_store = Some(i);
                loads_since_store.clear();
            } else if du.mem_read {
                loads_since_store.push(i);
            }
        }
        Dag { preds, succs }
    }

    /// Critical-path priority: longest latency-weighted path to any DAG sink.
    fn priorities(dag: &Dag, insns: &[&Instruction], model: &CostModel) -> Vec<u64> {
        let n = insns.len();
        let mut prio = vec![0u64; n];
        for i in (0..n).rev() {
            let own = model.sched_latency(insns[i]);
            let best_succ = dag.succs[i].iter().map(|&s| prio[s]).max().unwrap_or(0);
            prio[i] = own + best_succ;
        }
        prio
    }

    /// Greedy cycle-by-cycle list scheduling under the port model.
    /// Returns the new order (indices into the original sequence).
    pub(super) fn schedule(insns: &[&Instruction], model: &CostModel) -> Vec<usize> {
        let n = insns.len();
        if n <= 1 {
            return (0..n).collect();
        }
        let dag = build_dag(insns);
        let prio = priorities(&dag, insns, model);

        let mut unscheduled_preds: Vec<usize> = dag.preds.iter().map(Vec::len).collect();
        let mut ready_at = vec![0u64; n]; // earliest cycle each instruction may issue
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut done = vec![false; n];
        let mut cycle: u64 = 0;

        while order.len() < n {
            // Ready set at this cycle.
            let mut issued_this_cycle = 0usize;
            let mut ports_busy: u64 = 0;
            loop {
                let mut candidates: Vec<usize> = (0..n)
                    .filter(|&i| {
                        !done[i]
                            && unscheduled_preds[i] == 0
                            && ready_at[i] <= cycle
                            && (model.ports(insns[i]) & !ports_busy) != 0
                    })
                    .collect();
                if issued_this_cycle >= model.machine.issue_width as usize || candidates.is_empty()
                {
                    break;
                }
                // Highest priority first; stable on original position.
                candidates.sort_by_key(|&i| (std::cmp::Reverse(prio[i]), i));
                let pick = candidates[0];
                // Claim the least-capable available port (greedy fit).
                let avail = model.ports(insns[pick]) & !ports_busy;
                let port = avail.trailing_zeros();
                ports_busy |= 1 << port;
                issued_this_cycle += 1;
                done[pick] = true;
                order.push(pick);
                for &s in &dag.succs[pick] {
                    unscheduled_preds[s] -= 1;
                    let dep = dag.preds[s]
                        .iter()
                        .find(|&&(p, _)| p == pick)
                        .map(|&(_, d)| d)
                        .unwrap_or(Dep::Order);
                    let lat = match dep {
                        Dep::Raw => model.sched_latency(insns[pick]),
                        Dep::Order => 1,
                    };
                    ready_at[s] = ready_at[s].max(cycle + lat);
                }
            }
            cycle += 1;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassContext;

    fn mnemonic_order(unit: &MaoUnit) -> Vec<String> {
        unit.entries()
            .iter()
            .filter_map(|e| e.insn())
            .map(|i| i.to_string())
            .collect()
    }

    /// The paper's hashing kernel: xorl feeding three consumers.
    const HASH_KERNEL: &str = r#"
	.type	f, @function
f:
	xorl %edi, %ebx
	subl %ebx, %ecx
	subl %ebx, %edx
	movl %ebx, %edi
	shrl $12, %edi
	xorl %edi, %edx
	ret
"#;

    #[test]
    fn respects_dependencies() {
        let mut unit = MaoUnit::parse(HASH_KERNEL).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let order = mnemonic_order(&unit);
        // The producing xorl must stay first; the final xorl must stay after
        // shrl (RAW on %edi) and after subl %ebx,%edx (WAW-ish on %edx).
        assert_eq!(order[0], "xorl %edi, %ebx");
        let shr = order.iter().position(|s| s.starts_with("shrl")).unwrap();
        let last_xor = order.iter().position(|s| s == "xorl %edi, %edx").unwrap();
        assert!(shr < last_xor);
        let mov = order.iter().position(|s| s.starts_with("movl")).unwrap();
        assert!(mov < shr, "shrl reads %edi written by movl");
        // ret stays the terminator.
        assert_eq!(order.last().unwrap(), "ret");
    }

    #[test]
    fn critical_path_is_prioritized() {
        // Chain: mov -> imul -> imul (long); independent: add, add (short).
        // Critical-path scheduling starts the chain before the adds.
        let text = r#"
	.type	f, @function
f:
	movl %edi, %eax
	imull %esi, %eax
	imull %edx, %eax
	addl $1, %r8d
	addl $1, %r9d
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let order = mnemonic_order(&unit);
        assert_eq!(order[0], "movl %edi, %eax", "chain head first: {order:?}");
    }

    #[test]
    fn loads_hoisted_above_independent_alu() {
        // The load has higher latency; the scheduler should start it early.
        let text = r#"
	.type	f, @function
f:
	addl $1, %ecx
	movq (%rdi), %rax
	addq %rax, %rbx
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let order = mnemonic_order(&unit);
        assert_eq!(order[0], "movq (%rdi), %rax", "{order:?}");
    }

    #[test]
    fn stores_and_loads_not_reordered() {
        let text = r#"
	.type	f, @function
f:
	movq %rax, (%rdi)
	movq (%rdi), %rbx
	movq %rbx, (%rsi)
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        let before = mnemonic_order(&unit);
        run(&mut unit, &mut PassContext::default()).unwrap();
        assert_eq!(mnemonic_order(&unit), before);
    }

    #[test]
    fn flags_producer_consumer_kept_in_order() {
        let text = r#"
	.type	f, @function
f:
	cmpl $5, %edi
	sete %al
	addl $3, %esi
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        run(&mut unit, &mut PassContext::default()).unwrap();
        let order = mnemonic_order(&unit);
        let cmp = order.iter().position(|s| s.starts_with("cmpl")).unwrap();
        let sete = order.iter().position(|s| s.starts_with("sete")).unwrap();
        assert!(cmp < sete);
    }

    #[test]
    fn calls_are_scheduling_barriers() {
        let text = r#"
	.type	f, @function
f:
	movl $1, %edi
	call g
	movl $2, %edi
	ret
"#;
        let mut unit = MaoUnit::parse(text).unwrap();
        let before = mnemonic_order(&unit);
        run(&mut unit, &mut PassContext::default()).unwrap();
        assert_eq!(mnemonic_order(&unit), before);
    }

    #[test]
    fn semantics_preserving_permutation_only() {
        // Whatever order comes out, it must be a permutation of the input.
        let mut unit = MaoUnit::parse(HASH_KERNEL).unwrap();
        let mut before = mnemonic_order(&unit);
        run(&mut unit, &mut PassContext::default()).unwrap();
        let mut after = mnemonic_order(&unit);
        before.sort();
        after.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn port_model_matches_paper_anecdote() {
        let m = CostModel::core2();
        let lea = MaoUnit::parse("leal (%r8,%rdi), %ebx\n").unwrap();
        assert_eq!(m.ports(lea.insn(0).unwrap()), 0b00_0001, "lea: port 0 only");
        let sar = MaoUnit::parse("sarl %ecx\n").unwrap();
        assert_eq!(
            m.ports(sar.insn(0).unwrap()),
            0b10_0001,
            "sar: ports 0 and 5"
        );
    }

    /// xorshift64*: a seeded stream for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// A random straight-line block over a small register pool, so that
    /// RAW/WAR/WAW chains, flag producers and consumers, loads, stores and
    /// barriers all occur and often link the same pair of instructions.
    fn random_block(rng: &mut Rng, len: usize) -> String {
        const R32: [&str; 6] = ["eax", "ebx", "ecx", "edx", "esi", "r8d"];
        const R64: [&str; 6] = ["rax", "rbx", "rcx", "rdx", "rsi", "r8"];
        const R8: [&str; 6] = ["al", "bl", "cl", "dl", "sil", "r8b"];
        let mut text = String::new();
        for _ in 0..len {
            let (a, b) = (R32[rng.below(6)], R32[rng.below(6)]);
            let (p, q) = (R64[rng.below(6)], R64[rng.below(6)]);
            let line = match rng.below(20) {
                0 | 1 => format!("addl %{a}, %{b}"),
                2 | 3 => format!("movl %{a}, %{b}"),
                4 => format!("imull %{a}, %{b}"),
                5 => format!("leal (%{p},%{q}), %{b}"),
                6 => format!("shrl $3, %{b}"),
                7 => format!("cmpl %{a}, %{b}"),
                8 => format!("sete %{}", R8[rng.below(6)]),
                9 => format!("adcl %{a}, %{b}"),
                10 => format!("cmovl %{a}, %{b}"),
                11 | 12 => format!("movl 8(%{p}), %{b}"),
                13 => format!("movl %{a}, 16(%{p})"),
                14 => format!("addl 4(%{p}), %{b}"),
                15 => "call g".to_string(),
                16 => format!("divl %{a}"),
                17 => format!("mulsd %xmm{}, %xmm{}", rng.below(3), rng.below(3)),
                18 => format!("pushq %{p}"),
                _ => format!("movl ${}, %{b}", rng.below(100)),
            };
            text.push('\t');
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// The machines the differential test runs under: the default table,
    /// a three-port machine (issue anywhere), symmetric lanes, zero-latency
    /// producers (same-cycle readiness) and a one-wide machine.
    fn machines() -> Vec<(&'static str, CostModel)> {
        use crate::isa::x86::{Mnemonic, MnemonicCost};
        let mut three_ports = CostModel::core2();
        three_ports.machine.num_ports = 3;
        let mut zero_latency = CostModel::core2();
        for m in [Mnemonic::Mov, Mnemonic::Add, Mnemonic::Lea, Mnemonic::Cmp] {
            zero_latency.set(
                m,
                MnemonicCost {
                    latency: 0,
                    recip_tp_x100: 33,
                    port_mask: 0b10_0011,
                },
            );
        }
        zero_latency.machine.load_latency = 0;
        let mut one_wide = CostModel::core2();
        one_wide.machine.issue_width = 1;
        vec![
            ("core2", CostModel::core2()),
            ("three ports", three_ports),
            ("symmetric", CostModel::opteron()),
            ("zero latency", zero_latency),
            ("one wide", one_wide),
        ]
    }

    fn block_insns(unit: &MaoUnit) -> Vec<&Instruction> {
        unit.entries().iter().filter_map(|e| e.insn()).collect()
    }

    #[test]
    fn matches_reference_on_random_blocks() {
        for (name, model) in machines() {
            let mut rng = Rng(0x5eed_0000 ^ name.len() as u64);
            let mut scheduler = Scheduler::default();
            for round in 0..48 {
                // Mostly block-sized runs, with a few large hand-written ones.
                let len = if round % 12 == 0 {
                    100 + rng.below(201)
                } else {
                    2 + rng.below(39)
                };
                let text = random_block(&mut rng, len);
                let unit = MaoUnit::parse(&text).unwrap();
                let insns = block_insns(&unit);
                assert_eq!(insns.len(), len);
                let expected = reference::schedule(&insns, &model);
                assert_eq!(
                    scheduler.schedule(&insns, &model),
                    &expected[..],
                    "{name}, round {round}:\n{text}"
                );
            }
        }
    }

    #[test]
    fn narrowest_legal_machine_terminates() {
        // One port, one instruction per cycle: the smallest machine a
        // `.mpt` table may describe.
        let mut narrow = CostModel::core2();
        narrow.machine.issue_width = 1;
        narrow.machine.num_ports = 1;
        let narrow = CostModel::from_mpt_bytes(&narrow.to_mpt_bytes()).unwrap();
        let unit =
            MaoUnit::parse("\tmovl (%rdi), %eax\n\taddl $1, %ecx\n\timull %eax, %edx\n").unwrap();
        let insns = block_insns(&unit);
        let order = Scheduler::default().schedule(&insns, &narrow).to_vec();
        assert_eq!(order, reference::schedule(&insns, &narrow));
        assert_eq!(order, [0, 1, 2]);
    }
}
