//! Simple register/flag data-flow analyses.
//!
//! The paper (§II): *"MAO offers a simple data flow apparatus, but no alias
//! or points-to analysis. Since many assembly instructions work on
//! registers, this data flow mechanism is powerful and solves many otherwise
//! difficult to reason about problems."*
//!
//! Provided analyses:
//! * [`Liveness`] — per-block live-in/live-out register sets and flag sets
//!   (backward may-analysis). Calls are barriers: everything is live across
//!   them except that flags die (the SysV ABI does not preserve EFLAGS).
//! * [`ReachingDefs`] — per-block sets of instruction entry-ids whose
//!   register definition reaches the block boundary (forward may-analysis).

use std::collections::HashMap;

use crate::isa::x86::{def_use, DefUse, Flags, RegId};

use crate::cfg::{BlockId, Cfg};
use crate::unit::{EntryId, MaoUnit};

/// A dense bitset over the 33 [`RegId`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(u64);

impl RegSet {
    /// Empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// All registers.
    pub const ALL: RegSet = RegSet((1 << crate::isa::x86::reg::NUM_REG_IDS) - 1);

    /// Insert a register.
    pub fn insert(&mut self, id: RegId) {
        self.0 |= 1 << id.index();
    }

    /// Remove a register.
    pub fn remove(&mut self, id: RegId) {
        self.0 &= !(1 << id.index());
    }

    /// Membership test.
    pub fn contains(self, id: RegId) -> bool {
        self.0 & (1 << id.index()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference.
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate members.
    pub fn iter(self) -> impl Iterator<Item = RegId> {
        (0..crate::isa::x86::reg::NUM_REG_IDS)
            .filter(move |i| self.0 & (1 << i) != 0)
            .filter_map(RegId::from_index)
    }

    /// Build from an iterator of registers.
    pub fn from_iter(ids: impl IntoIterator<Item = RegId>) -> RegSet {
        let mut s = RegSet::EMPTY;
        for id in ids {
            s.insert(id);
        }
        s
    }
}

/// Defs/uses of one instruction, reduced to sets.
#[derive(Debug, Clone, Default)]
pub struct InsnEffects {
    /// Registers read.
    pub uses: RegSet,
    /// Registers fully or partially written.
    pub defs: RegSet,
    /// Registers whose 64-bit value is *fully* defined (64/32-bit writes);
    /// only these kill for liveness/reaching purposes.
    pub full_defs: RegSet,
    /// Flags read.
    pub flags_use: Flags,
    /// Flags written (defined or undefined).
    pub flags_kill: Flags,
    /// Barrier (call etc.).
    pub barrier: bool,
    /// Explicit or implicit load / store.
    pub mem_read: bool,
    /// Store.
    pub mem_write: bool,
}

impl InsnEffects {
    /// Compute from a raw [`DefUse`].
    pub fn from_def_use(du: &DefUse) -> InsnEffects {
        let mut fx = InsnEffects {
            uses: RegSet::from_iter(du.reg_uses.iter().map(|r| r.id)),
            defs: RegSet::from_iter(du.reg_defs.iter().map(|r| r.id)),
            full_defs: RegSet::EMPTY,
            flags_use: du.flags_use,
            flags_kill: du.flags_killed(),
            barrier: du.barrier,
            mem_read: du.mem_read,
            mem_write: du.mem_write,
        };
        for r in &du.reg_defs {
            if r.write_defines_parent() {
                fx.full_defs.insert(r.id);
            }
        }
        // A partial (8/16-bit) write merges into the old value: it is also a
        // use of the register.
        for r in &du.reg_defs {
            if !r.write_defines_parent() {
                fx.uses.insert(r.id);
            }
        }
        fx
    }

    /// Compute for an instruction.
    pub fn of(insn: &crate::isa::x86::Instruction) -> InsnEffects {
        InsnEffects::from_def_use(&def_use(insn))
    }
}

/// Backward liveness over a CFG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: Vec<RegSet>,
    /// Registers live at block exit.
    pub live_out: Vec<RegSet>,
    /// Flags live at block entry.
    pub flags_in: Vec<Flags>,
    /// Flags live at block exit.
    pub flags_out: Vec<Flags>,
}

impl Liveness {
    /// Compute liveness for `cfg`.
    ///
    /// Exit blocks (no successors) conservatively treat the ABI
    /// return/callee-saved registers — and, for flagged CFGs, everything —
    /// as live-out. Flags are never live across function exit.
    pub fn compute(unit: &MaoUnit, cfg: &Cfg) -> Liveness {
        let n = cfg.len();
        // Per-block gen (upward-exposed uses) and kill (full defs).
        let mut gen = vec![RegSet::EMPTY; n];
        let mut kill = vec![RegSet::EMPTY; n];
        let mut fgen = vec![Flags::NONE; n];
        let mut fkill = vec![Flags::NONE; n];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for (_, insn) in block.insns(unit) {
                let fx = InsnEffects::of(insn);
                gen[b] = gen[b].union(fx.uses.difference(kill[b]));
                kill[b] = kill[b].union(fx.full_defs);
                fgen[b] |= fx.flags_use - fkill[b];
                fkill[b] |= fx.flags_kill;
                if fx.barrier {
                    // A call reads argument registers we cannot see; treat
                    // all non-killed registers as upward-exposed.
                    gen[b] = gen[b].union(RegSet::ALL.difference(kill[b]));
                    // And kills the flags (not preserved across calls).
                    fkill[b] |= Flags::ALL;
                }
            }
        }

        // At function exit everything may be observed by the caller except
        // flags.
        let exit_live = RegSet::ALL;

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        let mut flags_in = vec![Flags::NONE; n];
        let mut flags_out = vec![Flags::NONE; n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let mut out = RegSet::EMPTY;
                let mut fout = Flags::NONE;
                if cfg.blocks[b].succs.is_empty() || cfg.unresolved_indirect {
                    out = exit_live;
                }
                for &s in &cfg.blocks[b].succs {
                    out = out.union(live_in[s]);
                    fout |= flags_in[s];
                }
                let inn = gen[b].union(out.difference(kill[b]));
                let finn = fgen[b] | (fout - fkill[b]);
                if inn != live_in[b]
                    || out != live_out[b]
                    || finn != flags_in[b]
                    || fout != flags_out[b]
                {
                    changed = true;
                    live_in[b] = inn;
                    live_out[b] = out;
                    flags_in[b] = finn;
                    flags_out[b] = fout;
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            flags_in,
            flags_out,
        }
    }

    /// Flags live immediately *after* the instruction at `pos` within block
    /// `b` (walking the block backwards from its end).
    pub fn flags_live_after(&self, unit: &MaoUnit, cfg: &Cfg, b: BlockId, entry: EntryId) -> Flags {
        let mut live = self.flags_out[b];
        let insns: Vec<_> = cfg.blocks[b].insns(unit).collect();
        for &(id, insn) in insns.iter().rev() {
            if id == entry {
                return live;
            }
            let fx = InsnEffects::of(insn);
            live = fx.flags_use | (live - fx.flags_kill);
        }
        live
    }
}

/// A register definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Instruction entry id.
    pub entry: EntryId,
    /// Register defined.
    pub reg: RegId,
}

/// Forward reaching definitions over a CFG.
#[derive(Debug, Clone, Default)]
pub struct ReachingDefs {
    /// Definitions reaching each block's entry.
    pub reach_in: Vec<Vec<DefSite>>,
    /// Definitions reaching each block's exit.
    pub reach_out: Vec<Vec<DefSite>>,
}

impl ReachingDefs {
    /// Compute reaching definitions for `cfg`.
    pub fn compute(unit: &MaoUnit, cfg: &Cfg) -> ReachingDefs {
        let n = cfg.len();
        // Per block: defs generated (last def of each reg) and regs killed.
        let mut gen: Vec<HashMap<RegId, EntryId>> = vec![HashMap::new(); n];
        let mut kill = vec![RegSet::EMPTY; n];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for (id, insn) in block.insns(unit) {
                let fx = InsnEffects::of(insn);
                for reg in fx.defs.iter() {
                    gen[b].insert(reg, id);
                    if fx.full_defs.contains(reg) {
                        kill[b].insert(reg);
                    }
                }
            }
        }

        let mut reach_in: Vec<Vec<DefSite>> = vec![Vec::new(); n];
        let mut reach_out: Vec<Vec<DefSite>> = vec![Vec::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                let mut inn: Vec<DefSite> = Vec::new();
                for &p in &cfg.blocks[b].preds {
                    for &d in &reach_out[p] {
                        if !inn.contains(&d) {
                            inn.push(d);
                        }
                    }
                }
                let mut out: Vec<DefSite> = inn
                    .iter()
                    .copied()
                    .filter(|d| !kill[b].contains(d.reg))
                    .collect();
                for (&reg, &entry) in &gen[b] {
                    let site = DefSite { entry, reg };
                    if !out.contains(&site) {
                        out.push(site);
                    }
                }
                out.sort_by_key(|d| (d.entry, d.reg.index()));
                inn.sort_by_key(|d| (d.entry, d.reg.index()));
                if inn != reach_in[b] || out != reach_out[b] {
                    changed = true;
                    reach_in[b] = inn;
                    reach_out[b] = out;
                }
            }
        }
        ReachingDefs {
            reach_in,
            reach_out,
        }
    }

    /// The definitions of `reg` reaching the *start* of block `b`.
    pub fn defs_of(&self, b: BlockId, reg: RegId) -> Vec<EntryId> {
        self.reach_in[b]
            .iter()
            .filter(|d| d.reg == reg)
            .map(|d| d.entry)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::x86::Cond;
    use crate::unit::MaoUnit;

    fn analyse(text: &str) -> (MaoUnit, Cfg, Liveness) {
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let live = Liveness::compute(&unit, &cfg);
        (unit, cfg, live)
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(RegId::Rax);
        s.insert(RegId::R15);
        assert!(s.contains(RegId::Rax));
        assert_eq!(s.len(), 2);
        s.remove(RegId::Rax);
        assert!(!s.contains(RegId::Rax));
        let t = RegSet::from_iter([RegId::Rbx, RegId::R15]);
        assert_eq!(s.union(t).len(), 2);
        assert_eq!(t.difference(s).iter().next(), Some(RegId::Rbx));
    }

    #[test]
    fn partial_write_is_also_use() {
        // movb $1, %al merges into rax: uses rax.
        let unit = MaoUnit::parse("movb $1, %al\n").unwrap();
        let fx = InsnEffects::of(unit.insn(0).unwrap());
        assert!(fx.defs.contains(RegId::Rax));
        assert!(!fx.full_defs.contains(RegId::Rax));
        assert!(fx.uses.contains(RegId::Rax));
        // movl $1, %eax zero-extends: full def, not a use.
        let unit = MaoUnit::parse("movl $1, %eax\n").unwrap();
        let fx = InsnEffects::of(unit.insn(0).unwrap());
        assert!(fx.full_defs.contains(RegId::Rax));
        assert!(!fx.uses.contains(RegId::Rax));
    }

    #[test]
    fn liveness_through_diamond() {
        let (_u, _cfg, live) = analyse(
            r#"
	.type	f, @function
f:
	movl $1, %ecx
	cmpl $0, %eax
	je .Le
	movl %ecx, %ebx
	jmp .Ld
.Le:
	movl $2, %ebx
.Ld:
	ret
"#,
        );
        // %ecx defined in block 0, used in block 1: live-in of block 1.
        assert!(live.live_in[1].contains(RegId::Rcx));
        // Not upward-exposed into block 0 (defined there first).
        assert!(!live.live_in[0].contains(RegId::Rcx));
    }

    #[test]
    fn flags_liveness() {
        let (_u, _cfg, live) = analyse(
            r#"
	.type	f, @function
f:
	subl $16, %r15d
	je .Lx
	nop
.Lx:
	ret
"#,
        );
        // Block 0 consumes ZF internally via je; nothing after needs flags.
        assert_eq!(live.flags_out[1], Flags::NONE);
        assert_eq!(live.flags_in[0], Flags::NONE);
    }

    #[test]
    fn flags_live_across_blocks() {
        // cmp in block 0; jcc consuming in block 1 -> flags live across edge.
        let (_u, _cfg, live) = analyse(
            r#"
	.type	f, @function
f:
	cmpl $0, %eax
	nop
.Lmid:
	jg .Lend
	nop
.Lend:
	ret
"#,
        );
        assert!(live.flags_out[0].contains(Cond::G.flags_read()));
    }

    #[test]
    fn flags_live_after_walks_block() {
        let text = r#"
	.type	f, @function
f:
	subl $16, %r15d
	testl %r15d, %r15d
	jne .Lx
	nop
.Lx:
	ret
"#;
        let (unit, cfg, live) = analyse(text);
        let sub_id = unit
            .entries()
            .iter()
            .position(|e| {
                e.insn()
                    .is_some_and(|i| i.mnemonic == crate::isa::x86::Mnemonic::Sub)
            })
            .unwrap();
        // After the subl, the testl and jne follow: ZF is read (by jne) but
        // killed first by testl, so only testl's uses count — nothing.
        let after = live.flags_live_after(&unit, &cfg, 0, sub_id);
        assert_eq!(after, Flags::NONE);
        let test_id = sub_id + 1;
        let after = live.flags_live_after(&unit, &cfg, 0, test_id);
        assert_eq!(after, Flags::ZF);
    }

    #[test]
    fn reaching_defs_merge() {
        let text = r#"
	.type	f, @function
f:
	cmpl $0, %edi
	je .Le
	movl $1, %eax
	jmp .Ld
.Le:
	movl $2, %eax
.Ld:
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let rd = ReachingDefs::compute(&unit, &cfg);
        let merge_block = 3;
        let defs = rd.defs_of(merge_block, RegId::Rax);
        assert_eq!(defs.len(), 2, "both movs reach the merge: {defs:?}");
    }

    #[test]
    fn reaching_defs_kill() {
        let text = r#"
	.type	f, @function
f:
	movl $1, %eax
	nop
.Lb:
	movl $2, %eax
	nop
.Lc:
	ret
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let f = unit.functions().into_iter().next().unwrap();
        let cfg = Cfg::build(&unit, &f);
        let rd = ReachingDefs::compute(&unit, &cfg);
        let last = cfg.len() - 1;
        let defs = rd.defs_of(last, RegId::Rax);
        assert_eq!(defs.len(), 1, "second def kills the first");
    }
}
