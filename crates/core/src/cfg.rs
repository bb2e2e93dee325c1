//! Per-function control-flow graph.
//!
//! The paper (§II): in the presence of indirect jumps CFG construction is
//! undecidable in general, but compiler-generated assembly uses a handful of
//! recognizable patterns — chiefly jump tables for `switch`. MAO recognizes
//! those; if a branch cannot be resolved the function is *flagged* and each
//! pass decides whether to proceed.
//!
//! Two resolution patterns are implemented, mirroring the paper's story of
//! going from 246/320 unresolved branches to 4/320 by adding one
//! reaching-definitions-assisted pattern:
//!
//! 1. **Direct**: `jmp *TABLE(,%reg,8)` where `TABLE` labels a run of
//!    `.quad .Lx` items.
//! 2. **Through a register**: `jmp *%reg` where the (unique, possibly
//!    cross-block) reaching definition of `%reg` is a load from such a
//!    table.

use std::collections::HashMap;

use mao_asm::{DataItem, Directive, Entry};

use crate::isa::aarch64::A64Mnemonic;
use crate::isa::x86::operand::{Disp, Operand};
use crate::isa::x86::{def_use, Mnemonic, RegId};
use crate::isa::Insn;
use crate::unit::{is_structural, EntryId, Function, MaoUnit};

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// A basic block: a run of entries with a single entry point and a single
/// exit point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BasicBlock {
    /// Entries in this block (labels, instructions, non-section directives).
    pub entries: Vec<EntryId>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

impl BasicBlock {
    /// Entry id of the block's last x86 instruction, if any. x86-only
    /// consumers (dataflow, scheduling) see through this; use
    /// [`BasicBlock::terminator_any`] for ISA-neutral construction.
    pub fn terminator<'u>(
        &self,
        unit: &'u MaoUnit,
    ) -> Option<(EntryId, &'u crate::isa::x86::Instruction)> {
        for &id in self.entries.iter().rev() {
            if let Some(i) = unit.insn(id) {
                return Some((id, i));
            }
        }
        None
    }

    /// Entry id of the block terminator instruction regardless of ISA.
    pub fn terminator_any<'u>(&self, unit: &'u MaoUnit) -> Option<(EntryId, &'u Insn)> {
        for &id in self.entries.iter().rev() {
            if let Some(i) = unit.insn_any(id) {
                return Some((id, i));
            }
        }
        None
    }

    /// Iterate the x86 instruction entries of this block.
    pub fn insns<'a, 'u: 'a>(
        &'a self,
        unit: &'u MaoUnit,
    ) -> impl Iterator<Item = (EntryId, &'u crate::isa::x86::Instruction)> + 'a {
        self.entries
            .iter()
            .filter_map(move |&id| unit.insn(id).map(|i| (id, i)))
    }
}

/// Control-flow graph of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cfg {
    /// Basic blocks in layout order; block 0 is the function entry.
    pub blocks: Vec<BasicBlock>,
    /// True if some indirect branch could not be resolved; passes decide
    /// whether to proceed on flagged functions.
    pub unresolved_indirect: bool,
    /// Number of indirect branches resolved through a jump-table pattern.
    pub resolved_indirect: usize,
}

impl Cfg {
    /// Build the CFG for `function` with both jump-table patterns enabled.
    pub fn build(unit: &MaoUnit, function: &Function) -> Cfg {
        Cfg::build_with_options(unit, function, true)
    }

    /// Build the CFG, optionally disabling the reaching-definitions-assisted
    /// pattern (pattern 2). The paper measured its value: without it,
    /// 246 of 320 indirect branches in a complex code base were unresolved;
    /// with it, 4 (see `exp_indirect`).
    pub fn build_with_options(
        unit: &MaoUnit,
        function: &Function,
        resolve_through_registers: bool,
    ) -> Cfg {
        let body: Vec<EntryId> = function.entry_ids().collect();

        // 1. Find leaders: the first entry, every label, and every entry
        //    following a control-flow instruction.
        let mut is_leader = vec![false; body.len()];
        if !body.is_empty() {
            is_leader[0] = true;
        }
        for (pos, &id) in body.iter().enumerate() {
            match unit.entry(id) {
                Entry::Label(_) => is_leader[pos] = true,
                Entry::Insn(i) if i.is_control_flow() && !i.is_call() => {
                    if pos + 1 < body.len() {
                        is_leader[pos + 1] = true;
                    }
                }
                _ => {}
            }
        }

        // 2. Cut into blocks.
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of_pos: Vec<BlockId> = vec![0; body.len()];
        for (pos, &id) in body.iter().enumerate() {
            if is_leader[pos] || blocks.is_empty() {
                blocks.push(BasicBlock::default());
            }
            let b = blocks.len() - 1;
            blocks[b].entries.push(id);
            block_of_pos[pos] = b;
        }

        // Label -> block map.
        let mut label_block: HashMap<&str, BlockId> = HashMap::new();
        for (pos, &id) in body.iter().enumerate() {
            if let Entry::Label(l) = unit.entry(id) {
                label_block.entry(l.as_str()).or_insert(block_of_pos[pos]);
            }
        }

        // 3. Edges.
        let mut cfg = Cfg {
            blocks,
            unresolved_indirect: false,
            resolved_indirect: 0,
        };
        let nblocks = cfg.blocks.len();
        for b in 0..nblocks {
            let term = cfg.blocks[b].terminator_any(unit);
            let mut succs: Vec<BlockId> = Vec::new();
            let mut fallthrough = true;
            if let Some((term_id, Insn::X86(insn))) = term {
                // Only a *final* control-flow instruction terminates;
                // a call in the middle falls through.
                let is_last_insn = cfg.blocks[b]
                    .entries
                    .iter()
                    .rev()
                    .find_map(|&id| unit.insn(id).map(|_| id))
                    == Some(term_id);
                if is_last_insn {
                    match insn.mnemonic {
                        Mnemonic::Jmp => {
                            fallthrough = false;
                            if let Some(target) = insn.target_label() {
                                if let Some(&t) = label_block.get(target) {
                                    succs.push(t);
                                }
                                // Tail-call to external symbol: exit edge.
                            } else {
                                // Indirect jump: try the jump-table patterns.
                                match resolve_indirect(
                                    unit,
                                    function,
                                    term_id,
                                    resolve_through_registers,
                                ) {
                                    Some(labels) => {
                                        cfg.resolved_indirect += 1;
                                        for l in labels {
                                            if let Some(&t) = label_block.get(l.as_str()) {
                                                succs.push(t);
                                            }
                                        }
                                    }
                                    None => cfg.unresolved_indirect = true,
                                }
                            }
                        }
                        Mnemonic::Jcc(_) => {
                            if let Some(target) = insn.target_label() {
                                if let Some(&t) = label_block.get(target) {
                                    succs.push(t);
                                }
                            }
                        }
                        Mnemonic::Ret | Mnemonic::Ud2 | Mnemonic::Hlt | Mnemonic::Int3 => {
                            fallthrough = false;
                        }
                        _ => {}
                    }
                }
            } else if let Some((term_id, Insn::A64(insn))) = term {
                // AArch64 terminators: `b` is unconditional, `b.cond` falls
                // through, `ret` exits; `bl` is a call and falls through.
                // There are no indirect branches in the A64 subset, so no
                // jump-table resolution is needed.
                let is_last_insn = cfg.blocks[b]
                    .entries
                    .iter()
                    .rev()
                    .find_map(|&id| unit.insn_any(id).map(|_| id))
                    == Some(term_id);
                if is_last_insn {
                    match insn.mnemonic {
                        A64Mnemonic::B => {
                            fallthrough = false;
                            if let Some(target) = insn.target_label() {
                                if let Some(&t) = label_block.get(target.as_str()) {
                                    succs.push(t);
                                }
                            }
                        }
                        A64Mnemonic::BCond(_) => {
                            if let Some(target) = insn.target_label() {
                                if let Some(&t) = label_block.get(target.as_str()) {
                                    succs.push(t);
                                }
                            }
                        }
                        A64Mnemonic::Ret => fallthrough = false,
                        _ => {}
                    }
                }
            }
            if fallthrough && b + 1 < nblocks {
                succs.push(b + 1);
            }
            succs.dedup();
            cfg.blocks[b].succs = succs;
        }
        for b in 0..nblocks {
            let succs = cfg.blocks[b].succs.clone();
            for s in succs {
                cfg.blocks[s].preds.push(b);
            }
        }
        cfg
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the CFG empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks reachable from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(b) = stack.pop() {
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// The block containing entry `id`, if any.
    pub fn block_of(&self, id: EntryId) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.entries.contains(&id))
    }

    /// Re-base the CFG of a one-span function onto the span's new start
    /// after an edit that changed no block's shape: block `b` keeps its
    /// edges and grows by `net[b]` entries, and the blocks are laid end to
    /// end from `start`. Each block's id list is refilled in place, so the
    /// update allocates nothing.
    pub(crate) fn rebase(&mut self, start: EntryId, net: &[isize]) {
        let mut next = start;
        for (block, &delta) in self.blocks.iter_mut().zip(net) {
            let len = block.entries.len().wrapping_add_signed(delta);
            block.entries.clear();
            block.entries.extend(next..next + len);
            next += len;
        }
    }
}

/// Can an edit remove, insert or produce `entry` without changing the block
/// structure around it? Control-flow instructions (calls included) end or
/// redirect blocks; the index's structural entries (labels, section and
/// `.type` directives) start blocks or move function spans.
pub(crate) fn is_plain(entry: &Entry) -> bool {
    match entry {
        Entry::Insn(i) => !i.is_control_flow() && !i.is_call(),
        _ => !is_structural(entry),
    }
}

/// Read the jump-table labels starting at `table_label`.
fn table_labels(unit: &MaoUnit, table_label: &str) -> Option<Vec<String>> {
    let start = unit.find_label(table_label)?;
    let mut labels = Vec::new();
    for e in &unit.entries()[start + 1..] {
        match e {
            Entry::Directive(Directive::Data { items, .. }) => {
                for item in items {
                    match item {
                        DataItem::Symbol(s) => labels.push(s.as_str().to_string()),
                        DataItem::Imm(_) => {}
                    }
                }
            }
            Entry::Directive(Directive::Align(_)) => continue,
            _ => break,
        }
    }
    if labels.is_empty() {
        None
    } else {
        Some(labels)
    }
}

/// Does this memory operand look like a scaled jump-table access, and if so,
/// through which symbol?
fn table_symbol(mem: &crate::isa::x86::Mem) -> Option<&str> {
    match &mem.disp {
        Disp::Symbol { name, .. } if mem.scale == 8 || mem.is_rip_relative() => Some(name),
        _ => None,
    }
}

/// Resolve an indirect jump at `jmp_id` to its possible target labels.
fn resolve_indirect(
    unit: &MaoUnit,
    function: &Function,
    jmp_id: EntryId,
    through_registers: bool,
) -> Option<Vec<String>> {
    let insn = unit.insn(jmp_id)?;
    match insn.operands.first() {
        // Pattern 1: jmp *TABLE(,%reg,8)
        Some(Operand::IndirectMem(mem)) => {
            let sym = table_symbol(mem)?;
            table_labels(unit, sym)
        }
        // Pattern 2: jmp *%reg — walk definitions of %reg backwards. This is
        // the "single pattern that uses the data flow framework's reaching
        // definitions functionality" from §II: it follows the unique
        // reaching definition chain across plain moves until it finds the
        // table load.
        Some(Operand::IndirectReg(r)) => {
            if !through_registers {
                return None;
            }
            let mut wanted: RegId = r.id;
            let body: Vec<EntryId> = function.entry_ids().collect();
            let pos = body.iter().position(|&id| id == jmp_id)?;
            for &id in body[..pos].iter().rev() {
                let Some(def) = unit.insn(id) else { continue };
                let du = def_use(def);
                if du.barrier {
                    return None;
                }
                if !du.defs_reg(wanted) {
                    continue;
                }
                // Found the reaching definition of the jump register.
                match (def.mnemonic, def.operands.first()) {
                    (Mnemonic::Mov, Some(Operand::Mem(mem))) => {
                        let sym = table_symbol(mem)?;
                        return table_labels(unit, sym);
                    }
                    (Mnemonic::Mov, Some(Operand::Reg(src))) => {
                        // Plain register copy: keep following.
                        wanted = src.id;
                        continue;
                    }
                    _ => return None,
                }
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(text: &str) -> (MaoUnit, Cfg) {
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().expect("a function");
        let cfg = Cfg::build(&unit, &f);
        (unit, cfg)
    }

    const DIAMOND: &str = r#"
	.type	f, @function
f:
	cmpl $0, %eax
	je .Lelse
	movl $1, %ebx
	jmp .Ldone
.Lelse:
	movl $2, %ebx
.Ldone:
	ret
"#;

    #[test]
    fn diamond_structure() {
        let (_unit, cfg) = cfg_for(DIAMOND);
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2); // je: target + fallthrough
        assert_eq!(cfg.blocks[1].succs, vec![3]); // jmp .Ldone
        assert_eq!(cfg.blocks[2].succs, vec![3]); // fallthrough
        assert!(cfg.blocks[3].succs.is_empty()); // ret
        assert_eq!(cfg.blocks[3].preds.len(), 2);
        assert!(!cfg.unresolved_indirect);
    }

    #[test]
    fn loop_back_edge() {
        let (_unit, cfg) = cfg_for(
            ".type f, @function\nf:\n\tmovl $0, %eax\n.L1:\n\taddl $1, %eax\n\tcmpl $10, %eax\n\tjne .L1\n\tret\n",
        );
        assert_eq!(cfg.len(), 3);
        assert!(cfg.blocks[1].succs.contains(&1), "self loop on .L1 block");
    }

    #[test]
    fn call_does_not_end_block() {
        let (_unit, cfg) = cfg_for(".type f, @function\nf:\n\tcall g\n\tmovl $1, %eax\n\tret\n");
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn jump_table_direct_pattern() {
        let text = r#"
	.type	f, @function
f:
	jmp *.Ltab(,%rax,8)
.Lc0:
	ret
.Lc1:
	ret
	.section	.rodata
.Ltab:
	.quad	.Lc0
	.quad	.Lc1
"#;
        let (_unit, cfg) = cfg_for(text);
        assert!(!cfg.unresolved_indirect);
        assert_eq!(cfg.resolved_indirect, 1);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
    }

    #[test]
    fn jump_table_through_register() {
        let text = r#"
	.type	f, @function
f:
	movq .Ltab(,%rdi,8), %rax
	movq %rax, %rcx
	jmp *%rcx
.Lc0:
	ret
.Lc1:
	ret
	.section	.rodata
.Ltab:
	.quad	.Lc0
	.quad	.Lc1
"#;
        let (_unit, cfg) = cfg_for(text);
        assert!(!cfg.unresolved_indirect, "reaching-def pattern resolves");
        assert_eq!(cfg.resolved_indirect, 1);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
    }

    #[test]
    fn unresolvable_indirect_flags_function() {
        let (_unit, cfg) = cfg_for(".type f, @function\nf:\n\tjmp *%rax\n\tret\n");
        assert!(cfg.unresolved_indirect);
    }

    #[test]
    fn barrier_stops_register_resolution() {
        let text = r#"
	.type	f, @function
f:
	movq .Ltab(,%rdi,8), %rax
	call clobber
	jmp *%rax
	.section	.rodata
.Ltab:
	.quad	f
"#;
        let (_unit, cfg) = cfg_for(text);
        assert!(cfg.unresolved_indirect, "call may clobber %rax");
    }

    #[test]
    fn reachability() {
        let (_unit, cfg) = cfg_for(".type f, @function\nf:\n\tret\n.Ldead:\n\tnop\n\tret\n");
        let reach = cfg.reachable();
        assert!(reach[0]);
        assert!(!reach[1], "code after ret with no incoming edge is dead");
    }

    #[test]
    fn tail_call_has_no_successors() {
        let (_unit, cfg) = cfg_for(".type f, @function\nf:\n\tjmp g_external\n");
        assert_eq!(cfg.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(!cfg.unresolved_indirect);
    }

    #[test]
    fn block_of_lookup() {
        let (unit, cfg) = cfg_for(DIAMOND);
        let je = unit
            .entries()
            .iter()
            .position(|e| e.insn().is_some_and(|i| i.mnemonic.is_cond_branch()))
            .unwrap();
        assert_eq!(cfg.block_of(je), Some(0));
        assert_eq!(cfg.block_of(9999), None);
    }
}
