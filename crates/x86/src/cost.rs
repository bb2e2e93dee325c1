//! The machine cost-model provider.
//!
//! Every port/latency-sensitive layer — the `mao-sim` timing pipeline, the
//! `SCHED` cost function, the LOOP16/LSDFIT/BRALIGN thresholds, the
//! superoptimizer's candidate ranking — used to carry its own hand-set
//! copy of the same numbers. This module is the single source: a
//! [`CostModel`] maps mnemonics to latency / reciprocal throughput / port
//! masks and carries the machine parameters those passes key off
//! (decode-line size, LSD window, predictor index shift, load-to-use
//! latency). Built-in tables reproduce the historical hand-set values
//! exactly; measured tables come out of `mao-probe`'s characterization
//! sweep as versioned `.mpt` files (serve-style magic + version +
//! checksum) and load through the same type.
//!
//! A process-global provider ([`current`] / [`install`]) hands the active
//! model to pass pipelines without threading a parameter through every
//! call site; it defaults to the built-in Core-2-like table, so behavior
//! is unchanged until a table is explicitly installed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

use crate::effects::{def_use, DefUse};
use crate::flags::Cond;
use crate::fnv::fnv1a64;
use crate::insn::Instruction;
use crate::mnemonic::Mnemonic;

/// Per-mnemonic execution costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnemonicCost {
    /// Result latency in cycles.
    pub latency: u32,
    /// Reciprocal throughput × 100 (cycles per instruction when issued
    /// back-to-back with no dependences; 33 = three per cycle).
    pub recip_tp_x100: u32,
    /// Execution-port mask under the model's `num_ports`. Bit p set means
    /// the instruction may issue on port p.
    pub port_mask: u64,
}

/// Machine parameters the alignment and scheduling passes key off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineParams {
    /// Instructions issued per cycle by the scheduler's machine model.
    pub issue_width: u32,
    /// Number of execution ports.
    pub num_ports: u32,
    /// All ports identical (AMD-K8-style lanes)?
    pub symmetric_ports: bool,
    /// Instruction fetch/decode chunk in bytes (LOOP16's line).
    pub decode_line: u32,
    /// Loop-stream-detector window in decode lines (LSDFIT's budget).
    pub lsd_max_lines: u32,
    /// Branch-predictor index shift — the `PC >> k` of §III.C.g
    /// (BRALIGN's bucket size is `1 << k`).
    pub predictor_shift: u32,
    /// L1 load-to-use latency added to a memory-reading instruction.
    pub load_latency: u32,
    /// Cycles lost on a mispredicted branch.
    pub mispredict_penalty: u32,
    /// Port mask for memory-writing instructions (store address + data).
    pub store_ports: u64,
    /// Port mask for pure loads (`mov` from memory).
    pub load_ports: u64,
}

/// The instruction set every table in this crate costs. `.mpt` containers
/// for other ISAs are rejected at load with [`MptError::WrongIsa`].
pub const MPT_ISA: &str = "x86-64";

/// Where a table's numbers came from — written into `.mpt` files and
/// surfaced through the maod stats schema (v6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Producer: `hand-set` for built-ins, `probe/<backend>` for sweeps.
    pub source: String,
    /// The machine that was measured (profile name or host description).
    pub target: String,
    /// Generator identity, e.g. `mao-probe sweep v1`.
    pub generator: String,
    /// RNG seed the sweep ran with (0 for hand-set tables).
    pub seed: u64,
    /// Instruction set the per-mnemonic costs describe. Container v1
    /// predates the field and implies [`MPT_ISA`]; v2 stamps it
    /// explicitly so a table measured for one ISA can never be installed
    /// into an optimizer instantiation for another.
    pub isa: String,
}

impl Default for Provenance {
    fn default() -> Provenance {
        Provenance {
            source: String::new(),
            target: String::new(),
            generator: String::new(),
            seed: 0,
            isa: MPT_ISA.to_string(),
        }
    }
}

/// A complete machine cost model: per-mnemonic table + machine parameters
/// + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Human-readable model name.
    pub name: String,
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// Machine parameters.
    pub machine: MachineParams,
    /// Cost assumed for mnemonics with no table entry.
    pub default_cost: MnemonicCost,
    /// Per-mnemonic entries, keyed by [`Mnemonic::snapshot_code`] of the
    /// condition-normalized mnemonic.
    table: BTreeMap<u16, MnemonicCost>,
}

/// Condition families share one entry (as in the effects tables). This is
/// the `.mpt` table key: [`Mnemonic::snapshot_code`] of the normalized
/// mnemonic.
pub fn table_key(m: Mnemonic) -> u16 {
    match m {
        Mnemonic::Jcc(_) => Mnemonic::Jcc(Cond::E),
        Mnemonic::Setcc(_) => Mnemonic::Setcc(Cond::E),
        Mnemonic::Cmovcc(_) => Mnemonic::Cmovcc(Cond::E),
        other => other,
    }
    .snapshot_code()
}

impl CostModel {
    /// An empty model over `machine` (every mnemonic gets `default_cost`).
    pub fn new(name: &str, machine: MachineParams, default_cost: MnemonicCost) -> CostModel {
        CostModel {
            name: name.to_string(),
            provenance: Provenance::default(),
            machine,
            default_cost,
            table: BTreeMap::new(),
        }
    }

    /// Set the cost entry for a mnemonic (condition families collapse).
    pub fn set(&mut self, m: Mnemonic, cost: MnemonicCost) {
        self.table.insert(table_key(m), cost);
    }

    /// The cost entry for a mnemonic, falling back to the default.
    pub fn get(&self, m: Mnemonic) -> MnemonicCost {
        self.table
            .get(&table_key(m))
            .copied()
            .unwrap_or(self.default_cost)
    }

    /// Mnemonics with explicit entries.
    pub fn entries(&self) -> impl Iterator<Item = (Mnemonic, MnemonicCost)> + '_ {
        self.table
            .iter()
            .filter_map(|(&code, &cost)| Mnemonic::from_snapshot_code(code).map(|m| (m, cost)))
    }

    /// Number of explicit per-mnemonic entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the table empty (default-only)?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Execution latency of an instruction in cycles (no memory term —
    /// the simulator charges cache latency separately).
    pub fn latency(&self, insn: &Instruction) -> u64 {
        u64::from(self.get(insn.mnemonic).latency)
    }

    /// Scheduler latency: execution latency plus the L1 load-to-use
    /// latency for memory-reading instructions.
    pub fn sched_latency(&self, insn: &Instruction) -> u64 {
        self.sched_latency_with(insn, &def_use(insn))
    }

    /// [`CostModel::sched_latency`] over an already-computed `def_use`
    /// of `insn` — the one implementation of the rule.
    pub fn sched_latency_with(&self, insn: &Instruction, du: &DefUse) -> u64 {
        let base = self.latency(insn);
        if du.mem_read {
            base + u64::from(self.machine.load_latency)
        } else {
            base
        }
    }

    /// Port mask under an explicit port count. Machines with three or
    /// fewer ports, or symmetric lanes, issue anywhere; otherwise stores
    /// and pure loads take the dedicated memory ports and everything else
    /// takes its table mask, clipped to the available ports (an empty clip
    /// falls back to "anywhere" so narrow machines stay schedulable).
    pub fn ports_for(&self, insn: &Instruction, num_ports: usize, symmetric: bool) -> u64 {
        self.ports_with(insn, &def_use(insn), num_ports, symmetric)
    }

    /// [`CostModel::ports_for`] over an already-computed `def_use` of
    /// `insn` — the one implementation of the rule, shared by the timing
    /// simulator and `SCHED`.
    pub fn ports_with(
        &self,
        insn: &Instruction,
        du: &DefUse,
        num_ports: usize,
        symmetric: bool,
    ) -> u64 {
        let all = (1u64 << num_ports) - 1;
        if symmetric || num_ports <= 3 {
            return all;
        }
        let mask = if du.mem_write {
            self.machine.store_ports
        } else if du.mem_read && insn.mnemonic == Mnemonic::Mov {
            self.machine.load_ports
        } else {
            self.get(insn.mnemonic).port_mask
        };
        let clipped = mask & all;
        if clipped == 0 {
            all
        } else {
            clipped
        }
    }

    /// Port mask under the model's own port count.
    pub fn ports(&self, insn: &Instruction) -> u64 {
        self.ports_for(
            insn,
            self.machine.num_ports as usize,
            self.machine.symmetric_ports,
        )
    }

    /// The built-in Intel-Core-2-like table — the historical hand-set
    /// numbers from the timing simulator and the `SCHED` cost function.
    pub fn core2() -> CostModel {
        let machine = MachineParams {
            issue_width: 3,
            num_ports: 6,
            symmetric_ports: false,
            decode_line: 16,
            lsd_max_lines: 4,
            predictor_shift: 5,
            load_latency: 3,
            mispredict_penalty: 15,
            store_ports: 0b01_1000,
            load_ports: 0b00_0100,
        };
        let mut model = CostModel::new("intel-core2-like", machine, cost(1, 0b10_0011));
        model.provenance = Provenance {
            source: "hand-set".to_string(),
            target: "intel-core2-like".to_string(),
            generator: "builtin".to_string(),
            seed: 0,
            isa: MPT_ISA.to_string(),
        };
        use Mnemonic as M;
        // Latencies and port bindings follow the paper's Core-2 anecdotes:
        // lea on port 0 only, shifts on ports 0 and 5, multiplies on port 1.
        model.set(M::Lea, cost(1, 0b00_0001));
        for m in [M::Shl, M::Shr, M::Sar] {
            model.set(m, cost(1, 0b10_0001));
        }
        for m in [M::Imul, M::Mul] {
            model.set(m, cost(3, 0b00_0010));
        }
        for m in [M::Idiv, M::Div] {
            model.set(m, cost(20, 0b00_0001));
        }
        for m in [M::Mulss, M::Mulsd] {
            model.set(m, cost(4, 0b00_0010));
        }
        for m in [M::Addss, M::Addsd, M::Subss, M::Subsd] {
            model.set(m, cost(3, 0b00_0001));
        }
        for m in [M::Divss, M::Divsd, M::Sqrtss, M::Sqrtsd] {
            model.set(m, cost(12, 0b00_0001));
        }
        for m in [
            M::Cvtsi2ss,
            M::Cvtsi2sd,
            M::Cvttss2si,
            M::Cvttsd2si,
            M::Cvtss2sd,
            M::Cvtsd2ss,
        ] {
            model.set(m, cost(3, 0b10_0011));
        }
        model
    }

    /// The built-in AMD-Opteron-like table: same latency ranking, but a
    /// symmetric 4-port backend, 32-byte fetch windows, a one-window loop
    /// buffer and `PC >> 4` predictor indexing.
    pub fn opteron() -> CostModel {
        let mut model = CostModel::core2();
        model.name = "amd-opteron-like".to_string();
        model.provenance.target = "amd-opteron-like".to_string();
        model.machine.num_ports = 4;
        model.machine.symmetric_ports = true;
        model.machine.decode_line = 32;
        model.machine.lsd_max_lines = 1;
        model.machine.predictor_shift = 4;
        model.machine.mispredict_penalty = 12;
        model
    }
}

/// Entry constructor: reciprocal throughput is derived from the port
/// count (a fully pipelined unit retires one instruction per port per
/// cycle), which is exactly what the measurement sweep recovers.
fn cost(latency: u32, port_mask: u64) -> MnemonicCost {
    let ports = port_mask.count_ones().max(1);
    MnemonicCost {
        latency,
        recip_tp_x100: (100 / ports).max(1),
        port_mask,
    }
}

// ---------------------------------------------------------------------------
// The `.mpt` container: magic + version + checksum. It is a calibrated
// interchange file users keep, not a cache, so it keeps its own stable
// layout instead of the shared artifact container (which lives above this
// crate). A file that fails any check is rejected before a single field
// is interpreted.
// ---------------------------------------------------------------------------

/// File magic (8 bytes).
pub const MPT_MAGIC: [u8; 8] = *b"MAOMPT\x1a\x00";
/// Container version this build writes. Version 2 added the ISA
/// identifier to the provenance block; v1 files (which predate it) are
/// still accepted and imply [`MPT_ISA`].
pub const MPT_VERSION: u16 = 2;
/// Oldest container version this build still reads.
pub const MPT_MIN_VERSION: u16 = 1;

/// Why a `.mpt` file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MptError {
    /// Filesystem error.
    Io(String),
    /// Wrong magic: not a parameter table at all.
    BadMagic,
    /// Container version this build does not speak.
    BadVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build expects.
        expected: u16,
    },
    /// File shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// Payload checksum mismatch (bit rot or a torn write).
    BadChecksum,
    /// The table costs a different instruction set than this optimizer
    /// instantiation: structurally valid, semantically unusable.
    WrongIsa {
        /// ISA identifier stamped in the file's provenance block.
        found: String,
    },
    /// Structurally invalid payload.
    Malformed(String),
}

impl std::fmt::Display for MptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MptError::Io(m) => write!(f, "i/o error: {m}"),
            MptError::BadMagic => write!(f, "not a .mpt parameter table (bad magic)"),
            MptError::BadVersion { found, expected } => {
                write!(f, "unsupported .mpt version {found} (expected {expected})")
            }
            MptError::Truncated { needed, have } => {
                write!(f, "truncated .mpt: need {needed} bytes, have {have}")
            }
            MptError::BadChecksum => write!(f, "corrupt .mpt: payload checksum mismatch"),
            MptError::WrongIsa { found } => write!(
                f,
                "wrong ISA: table costs `{found}` instructions, this optimizer needs `{MPT_ISA}`"
            ),
            MptError::Malformed(m) => write!(f, "malformed .mpt payload: {m}"),
        }
    }
}

impl std::error::Error for MptError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MptError> {
        if self.pos + n > self.bytes.len() {
            return Err(MptError::Malformed(format!(
                "field overruns payload at offset {}",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, MptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, MptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, MptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, MptError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(MptError::Malformed(format!("string length {len} absurd")));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| MptError::Malformed("non-utf8 string".into()))
    }
}

impl CostModel {
    /// Serialize to the `.mpt` container format.
    pub fn to_mpt_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_str(&mut payload, &self.name);
        put_str(&mut payload, &self.provenance.source);
        put_str(&mut payload, &self.provenance.target);
        put_str(&mut payload, &self.provenance.generator);
        payload.extend_from_slice(&self.provenance.seed.to_le_bytes());
        put_str(&mut payload, &self.provenance.isa);
        let m = &self.machine;
        for v in [
            m.issue_width,
            m.num_ports,
            u32::from(m.symmetric_ports),
            m.decode_line,
            m.lsd_max_lines,
            m.predictor_shift,
            m.load_latency,
            m.mispredict_penalty,
        ] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(&m.store_ports.to_le_bytes());
        payload.extend_from_slice(&m.load_ports.to_le_bytes());
        for c in [&self.default_cost] {
            payload.extend_from_slice(&c.latency.to_le_bytes());
            payload.extend_from_slice(&c.recip_tp_x100.to_le_bytes());
            payload.extend_from_slice(&c.port_mask.to_le_bytes());
        }
        payload.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        for (&code, c) in &self.table {
            payload.extend_from_slice(&code.to_le_bytes());
            payload.extend_from_slice(&c.latency.to_le_bytes());
            payload.extend_from_slice(&c.recip_tp_x100.to_le_bytes());
            payload.extend_from_slice(&c.port_mask.to_le_bytes());
        }

        let mut out = Vec::with_capacity(payload.len() + 30);
        out.extend_from_slice(&MPT_MAGIC);
        out.extend_from_slice(&MPT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parse a `.mpt` container; every integrity check (magic, version,
    /// length, checksum) runs before any field is interpreted.
    pub fn from_mpt_bytes(bytes: &[u8]) -> Result<CostModel, MptError> {
        const HEADER: usize = 8 + 2 + 4 + 8;
        if bytes.len() < HEADER {
            return Err(MptError::Truncated {
                needed: HEADER,
                have: bytes.len(),
            });
        }
        if bytes[..8] != MPT_MAGIC {
            return Err(MptError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        if !(MPT_MIN_VERSION..=MPT_VERSION).contains(&version) {
            return Err(MptError::BadVersion {
                found: version,
                expected: MPT_VERSION,
            });
        }
        let payload_len = u32::from_le_bytes(bytes[10..14].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(bytes[14..22].try_into().unwrap());
        if bytes.len() != HEADER + payload_len {
            return Err(MptError::Truncated {
                needed: HEADER + payload_len,
                have: bytes.len(),
            });
        }
        let payload = &bytes[HEADER..];
        if fnv1a64(payload) != checksum {
            return Err(MptError::BadChecksum);
        }

        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        let name = r.string()?;
        let provenance = Provenance {
            source: r.string()?,
            target: r.string()?,
            generator: r.string()?,
            seed: r.u64()?,
            // v1 containers predate the identifier; every v1 table ever
            // written costed x86-64 instructions.
            isa: if version >= 2 {
                r.string()?
            } else {
                MPT_ISA.to_string()
            },
        };
        if provenance.isa != MPT_ISA {
            return Err(MptError::WrongIsa {
                found: provenance.isa,
            });
        }
        let machine = MachineParams {
            issue_width: r.u32()?,
            num_ports: r.u32()?,
            symmetric_ports: r.u32()? != 0,
            decode_line: r.u32()?,
            lsd_max_lines: r.u32()?,
            predictor_shift: r.u32()?,
            load_latency: r.u32()?,
            mispredict_penalty: r.u32()?,
            store_ports: r.u64()?,
            load_ports: r.u64()?,
        };
        // A machine that can never issue would stall every scheduler on it
        // forever; a port count of 64 or more overflows the port masks.
        if machine.issue_width == 0 {
            return Err(MptError::Malformed("issue width 0".into()));
        }
        if machine.num_ports == 0 || machine.num_ports >= 64 {
            return Err(MptError::Malformed(format!(
                "port count {} outside 1..=63",
                machine.num_ports
            )));
        }
        let mut entry = || -> Result<MnemonicCost, MptError> {
            Ok(MnemonicCost {
                latency: r.u32()?,
                recip_tp_x100: r.u32()?,
                port_mask: r.u64()?,
            })
        };
        let default_cost = entry()?;
        let count = r.u32()? as usize;
        let mut table = BTreeMap::new();
        for _ in 0..count {
            let code = r.u16()?;
            if Mnemonic::from_snapshot_code(code).is_none() {
                return Err(MptError::Malformed(format!("unknown mnemonic code {code}")));
            }
            let cost = MnemonicCost {
                latency: r.u32()?,
                recip_tp_x100: r.u32()?,
                port_mask: r.u64()?,
            };
            table.insert(code, cost);
        }
        if r.pos != payload.len() {
            return Err(MptError::Malformed(format!(
                "{} trailing bytes after table",
                payload.len() - r.pos
            )));
        }
        Ok(CostModel {
            name,
            provenance,
            machine,
            default_cost,
            table,
        })
    }

    /// Write atomically (temp file + rename): a reader never observes a
    /// torn table.
    pub fn write_mpt(&self, path: &Path) -> Result<(), MptError> {
        let bytes = self.to_mpt_bytes();
        let tmp = path.with_extension("mpt.tmp");
        let io = |e: std::io::Error| MptError::Io(format!("{}: {e}", path.display()));
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Load and fully validate a `.mpt` file.
    pub fn load_mpt(path: &Path) -> Result<CostModel, MptError> {
        let bytes =
            std::fs::read(path).map_err(|e| MptError::Io(format!("{}: {e}", path.display())))?;
        CostModel::from_mpt_bytes(&bytes)
    }

    /// Checksum of the serialized table — the provenance fingerprint the
    /// stats schema reports.
    pub fn fingerprint(&self) -> u64 {
        let bytes = self.to_mpt_bytes();
        u64::from_le_bytes(bytes[14..22].try_into().unwrap())
    }
}

// ---------------------------------------------------------------------------
// The process-global provider.
// ---------------------------------------------------------------------------

fn slot() -> &'static RwLock<Arc<CostModel>> {
    static CURRENT: OnceLock<RwLock<Arc<CostModel>>> = OnceLock::new();
    CURRENT.get_or_init(|| RwLock::new(Arc::new(CostModel::core2())))
}

/// The active cost model (defaults to the built-in Core-2-like table).
pub fn current() -> Arc<CostModel> {
    slot().read().expect("cost model lock").clone()
}

/// Install `model` as the process-wide cost model. Pipelines pick it up on
/// their next cost query; installing before any pipeline runs (the CLI
/// flag path) makes the whole process consistent.
pub fn install(model: Arc<CostModel>) {
    *slot().write().expect("cost model lock") = model;
}

/// Reset the provider to the built-in table (tests).
pub fn install_builtin() {
    install(Arc::new(CostModel::core2()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Instruction;
    use crate::reg::{Reg, RegId};

    fn insn(att: &str, ops: Vec<crate::operand::Operand>) -> Instruction {
        Instruction::from_att(att, ops).unwrap()
    }

    #[test]
    fn builtin_matches_hand_set_latencies() {
        let m = CostModel::core2();
        let imul = insn(
            "imull",
            vec![Reg::l(RegId::Rcx).into(), Reg::l(RegId::Rax).into()],
        );
        let add = insn(
            "addl",
            vec![Reg::l(RegId::Rcx).into(), Reg::l(RegId::Rax).into()],
        );
        assert_eq!(m.latency(&imul), 3);
        assert_eq!(m.latency(&add), 1);
        assert_eq!(m.get(Mnemonic::Idiv).latency, 20);
        assert_eq!(m.get(Mnemonic::Mulsd).latency, 4);
        assert_eq!(m.get(Mnemonic::Sqrtss).latency, 12);
        assert_eq!(m.get(Mnemonic::Cvtss2sd).latency, 3);
    }

    #[test]
    fn builtin_matches_paper_port_anecdote() {
        let m = CostModel::core2();
        let lea = insn(
            "leal",
            vec![
                crate::operand::Mem::base_disp(Reg::q(RegId::Rax), 0).into(),
                Reg::l(RegId::Rbx).into(),
            ],
        );
        assert_eq!(m.ports_for(&lea, 6, false), 0b00_0001, "lea: port 0 only");
        let sar = insn("sarl", vec![Reg::l(RegId::Rax).into()]);
        assert_eq!(m.ports_for(&sar, 6, false), 0b10_0001, "sar: ports 0+5");
        // Clipping to fewer ports keeps a nonempty mask.
        assert_ne!(m.ports_for(&sar, 3, false), 0);
        // Symmetric machines issue anywhere.
        assert_eq!(m.ports_for(&sar, 4, true), 0b1111);
    }

    #[test]
    fn sched_latency_adds_load_to_use() {
        let m = CostModel::core2();
        let load = insn(
            "movq",
            vec![
                crate::operand::Mem::base_disp(Reg::q(RegId::Rdi), 0).into(),
                Reg::q(RegId::Rax).into(),
            ],
        );
        assert_eq!(m.latency(&load), 1);
        assert_eq!(m.sched_latency(&load), 4, "1 + 3 load-to-use");
    }

    #[test]
    fn cond_families_collapse() {
        let mut m = CostModel::core2();
        m.set(
            Mnemonic::Cmovcc(Cond::L),
            MnemonicCost {
                latency: 2,
                recip_tp_x100: 100,
                port_mask: 1,
            },
        );
        assert_eq!(m.get(Mnemonic::Cmovcc(Cond::E)).latency, 2);
        assert_eq!(m.get(Mnemonic::Cmovcc(Cond::Ne)).latency, 2);
    }

    #[test]
    fn mpt_round_trip() {
        for model in [CostModel::core2(), CostModel::opteron()] {
            let bytes = model.to_mpt_bytes();
            let back = CostModel::from_mpt_bytes(&bytes).unwrap();
            assert_eq!(back, model);
            // Serialization is canonical: same model, same bytes.
            assert_eq!(back.to_mpt_bytes(), bytes);
        }
    }

    #[test]
    fn mpt_v1_frames_load_with_the_implied_isa() {
        // Re-encode a v2 container as v1: drop the isa string from the
        // payload, stamp version 1, refresh length and checksum. This is
        // exactly the byte layout every pre-ISA-boundary table used.
        let model = CostModel::core2();
        let v2 = model.to_mpt_bytes();
        let payload = &v2[22..];
        let mut r = Reader {
            bytes: payload,
            pos: 0,
        };
        for _ in 0..4 {
            r.string().unwrap(); // name, source, target, generator
        }
        r.u64().unwrap(); // seed
        let isa_start = r.pos;
        r.string().unwrap(); // the v2 isa field
        let mut v1_payload = payload[..isa_start].to_vec();
        v1_payload.extend_from_slice(&payload[r.pos..]);
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MPT_MAGIC);
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&(v1_payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&fnv1a64(&v1_payload).to_le_bytes());
        v1.extend_from_slice(&v1_payload);

        let loaded = CostModel::from_mpt_bytes(&v1).expect("v1 container still loads");
        assert_eq!(loaded.provenance.isa, MPT_ISA);
        assert_eq!(loaded, model);
    }

    #[test]
    fn mpt_rejects_a_wrong_isa_table() {
        let mut model = CostModel::core2();
        model.provenance.isa = "aarch64".to_string();
        let bytes = model.to_mpt_bytes();
        let err = CostModel::from_mpt_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            MptError::WrongIsa {
                found: "aarch64".to_string()
            }
        );
        assert!(err.to_string().contains("aarch64"), "{err}");
        assert!(err.to_string().contains(MPT_ISA), "{err}");
    }

    #[test]
    fn mpt_rejects_bad_magic() {
        let mut bytes = CostModel::core2().to_mpt_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(CostModel::from_mpt_bytes(&bytes), Err(MptError::BadMagic));
    }

    #[test]
    fn mpt_rejects_version_skew() {
        let mut bytes = CostModel::core2().to_mpt_bytes();
        bytes[8] = 0x7f; // version low byte
        assert!(matches!(
            CostModel::from_mpt_bytes(&bytes),
            Err(MptError::BadVersion { found: 0x7f, .. })
        ));
    }

    #[test]
    fn mpt_rejects_truncation() {
        let bytes = CostModel::core2().to_mpt_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(matches!(
                CostModel::from_mpt_bytes(&bytes[..cut]),
                Err(MptError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn mpt_rejects_corruption() {
        let clean = CostModel::core2().to_mpt_bytes();
        // Flip one payload byte: checksum must catch it.
        let mut bytes = clean.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            CostModel::from_mpt_bytes(&bytes),
            Err(MptError::BadChecksum)
        );
        // Appending garbage is a length mismatch.
        let mut bytes = clean;
        bytes.push(0);
        assert!(matches!(
            CostModel::from_mpt_bytes(&bytes),
            Err(MptError::Truncated { .. })
        ));
    }

    /// A degenerate machine serializes fine but must never load.
    fn reload_with(edit: impl FnOnce(&mut MachineParams)) -> Result<CostModel, MptError> {
        let mut model = CostModel::core2();
        edit(&mut model.machine);
        CostModel::from_mpt_bytes(&model.to_mpt_bytes())
    }

    #[test]
    fn mpt_rejects_zero_issue_width() {
        let err = reload_with(|m| m.issue_width = 0).unwrap_err();
        assert!(matches!(err, MptError::Malformed(ref m) if m.contains("issue width")));
    }

    #[test]
    fn mpt_rejects_zero_ports() {
        let err = reload_with(|m| m.num_ports = 0).unwrap_err();
        assert!(matches!(err, MptError::Malformed(ref m) if m.contains("port count 0")));
    }

    #[test]
    fn mpt_rejects_port_counts_that_overflow_the_mask() {
        for ports in [64, 65, u32::MAX] {
            let err = reload_with(|m| m.num_ports = ports).unwrap_err();
            assert!(matches!(err, MptError::Malformed(ref m) if m.contains("port count")));
        }
        // The edges of the legal range still load.
        for ports in [1, 63] {
            let model = reload_with(|m| m.num_ports = ports).unwrap();
            assert_eq!(model.machine.num_ports, ports);
        }
        reload_with(|m| m.issue_width = 1).unwrap();
    }

    #[test]
    fn mpt_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("mpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("core2.mpt");
        let model = CostModel::core2();
        model.write_mpt(&path).unwrap();
        assert_eq!(CostModel::load_mpt(&path).unwrap(), model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provider_defaults_to_builtin() {
        assert_eq!(current().name, "intel-core2-like");
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = CostModel::core2();
        let mut b = CostModel::core2();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.set(
            Mnemonic::Add,
            MnemonicCost {
                latency: 2,
                recip_tp_x100: 50,
                port_mask: 0b11,
            },
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
