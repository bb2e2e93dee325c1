//! x86-64 ISA model for the MAO reproduction.
//!
//! This crate is the stand-in for the parts of GNU binutils that the
//! original MAO (CGO 2011) reused: a single-struct instruction
//! representation, register/flag models, a table-driven side-effect
//! database generated from a tiny configuration language, and a binary
//! encoder that yields real x86-64 instruction lengths — the property the
//! relaxation and alignment machinery in the `mao` crate depends on.
//!
//! # Quick tour
//!
//! ```
//! use mao_x86::insn::{build, Instruction};
//! use mao_x86::reg::{Reg, RegId, Width};
//! use mao_x86::encode::{encoded_length, BranchForm};
//! use mao_x86::effects::def_use;
//!
//! // push %rbp
//! let push = Instruction::from_att("push", vec![Reg::q(RegId::Rbp).into()]).unwrap();
//! assert_eq!(encoded_length(&push, BranchForm::Rel32).unwrap(), 1);
//!
//! // addl %eax, %ebx — reads eax+ebx, writes ebx, defines all six flags.
//! let add = build::add(Width::B4, Reg::l(RegId::Rax), Reg::l(RegId::Rbx));
//! let du = def_use(&add);
//! assert!(du.defs_reg(RegId::Rbx));
//! assert!(!du.flags_def.is_empty());
//! ```

pub mod cost;
pub mod effects;
pub mod encode;
pub mod flags;
pub mod fnv;
pub mod insn;
pub mod mnemonic;
pub mod operand;
pub mod reg;
pub mod sym;
pub mod text;

pub use cost::{CostModel, MachineParams, MnemonicCost, MptError};
pub use effects::{def_use, effects, DefUse, Effects};
pub use encode::{encode, encoded_length, BranchForm, EncodeError};
pub use flags::{Cond, Flags};
pub use insn::Instruction;
pub use mnemonic::{parse_mnemonic, Mnemonic};
pub use operand::{Disp, Mem, Operand, Operands};
pub use reg::{Reg, RegId, Width};
pub use sym::Sym;
