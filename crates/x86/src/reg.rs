//! Architectural register model for x86-64.
//!
//! Registers are identified by a *physical id* ([`RegId`], the 64-bit
//! architectural register they alias) plus an access [`Width`]. The AT&T
//! names (`%al`, `%ax`, `%eax`, `%rax`, ...) map onto `(RegId, Width)` pairs;
//! the legacy high-byte registers (`%ah`..`%bh`) are modeled with a separate
//! [`Reg::high8`] marker since they alias bits 8..16 of their parent.

use std::fmt;
use std::str::FromStr;

/// Access width of a register or operation, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 8-bit (`b` suffix).
    B1,
    /// 16-bit (`w` suffix).
    B2,
    /// 32-bit (`l` suffix).
    B4,
    /// 64-bit (`q` suffix).
    B8,
    /// 128-bit (XMM).
    B16,
}

impl Width {
    /// Number of bytes accessed.
    pub fn bytes(self) -> u8 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
            Width::B16 => 16,
        }
    }

    /// Number of bits accessed.
    pub fn bits(self) -> u32 {
        u32::from(self.bytes()) * 8
    }

    /// The AT&T operand-size suffix letter, if one exists for this width.
    pub fn att_suffix(self) -> Option<char> {
        match self {
            Width::B1 => Some('b'),
            Width::B2 => Some('w'),
            Width::B4 => Some('l'),
            Width::B8 => Some('q'),
            Width::B16 => None,
        }
    }

    /// Parse an AT&T suffix letter.
    pub fn from_att_suffix(c: char) -> Option<Width> {
        match c {
            'b' => Some(Width::B1),
            'w' => Some(Width::B2),
            'l' => Some(Width::B4),
            'q' => Some(Width::B8),
            _ => None,
        }
    }

    /// Mask covering the low `self` bytes of a 64-bit value.
    pub fn mask(self) -> u64 {
        match self {
            Width::B1 => 0xff,
            Width::B2 => 0xffff,
            Width::B4 => 0xffff_ffff,
            Width::B8 | Width::B16 => u64::MAX,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// Physical register identity: the widest architectural register of an
/// aliasing group. `%eax`, `%ax`, `%al` and `%ah` all have id [`RegId::Rax`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum RegId {
    Rax = 0,
    Rcx,
    Rdx,
    Rbx,
    Rsp,
    Rbp,
    Rsi,
    Rdi,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
    /// Instruction pointer (only valid as a memory base, RIP-relative).
    Rip,
    Xmm0,
    Xmm1,
    Xmm2,
    Xmm3,
    Xmm4,
    Xmm5,
    Xmm6,
    Xmm7,
    Xmm8,
    Xmm9,
    Xmm10,
    Xmm11,
    Xmm12,
    Xmm13,
    Xmm14,
    Xmm15,
}

/// Total number of [`RegId`] values (for dense bitset/array indexing).
pub const NUM_REG_IDS: usize = 33;

impl RegId {
    /// All general-purpose register ids, in encoding order.
    pub const GPRS: [RegId; 16] = [
        RegId::Rax,
        RegId::Rcx,
        RegId::Rdx,
        RegId::Rbx,
        RegId::Rsp,
        RegId::Rbp,
        RegId::Rsi,
        RegId::Rdi,
        RegId::R8,
        RegId::R9,
        RegId::R10,
        RegId::R11,
        RegId::R12,
        RegId::R13,
        RegId::R14,
        RegId::R15,
    ];

    /// Dense index suitable for array/bitset indexing.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstruct a `RegId` from [`RegId::index`].
    pub fn from_index(idx: usize) -> Option<RegId> {
        if idx < NUM_REG_IDS {
            // SAFETY-free approach: match through the GPR/XMM tables.
            let all = [
                RegId::Rax,
                RegId::Rcx,
                RegId::Rdx,
                RegId::Rbx,
                RegId::Rsp,
                RegId::Rbp,
                RegId::Rsi,
                RegId::Rdi,
                RegId::R8,
                RegId::R9,
                RegId::R10,
                RegId::R11,
                RegId::R12,
                RegId::R13,
                RegId::R14,
                RegId::R15,
                RegId::Rip,
                RegId::Xmm0,
                RegId::Xmm1,
                RegId::Xmm2,
                RegId::Xmm3,
                RegId::Xmm4,
                RegId::Xmm5,
                RegId::Xmm6,
                RegId::Xmm7,
                RegId::Xmm8,
                RegId::Xmm9,
                RegId::Xmm10,
                RegId::Xmm11,
                RegId::Xmm12,
                RegId::Xmm13,
                RegId::Xmm14,
                RegId::Xmm15,
            ];
            Some(all[idx])
        } else {
            None
        }
    }

    /// True for the sixteen general-purpose registers (not RIP, not XMM).
    pub fn is_gpr(self) -> bool {
        (self as u8) < 16
    }

    /// True for the sixteen XMM registers.
    pub fn is_xmm(self) -> bool {
        (self as u8) >= RegId::Xmm0 as u8
    }

    /// Hardware encoding number (0-15) within the register file.
    ///
    /// For GPRs this is the ModRM/REX number; for XMM likewise.
    pub fn encoding(self) -> u8 {
        let v = self as u8;
        if self.is_xmm() {
            v - RegId::Xmm0 as u8
        } else {
            v
        }
    }
}

/// An architectural register reference: physical id + access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    /// Aliasing group (widest register).
    pub id: RegId,
    /// Access width.
    pub width: Width,
    /// True for the legacy high-byte registers `%ah`, `%ch`, `%dh`, `%bh`
    /// (bits 8..16 of the parent). Only meaningful when `width == B1`.
    pub high8: bool,
}

impl Reg {
    /// Construct a plain (non-high-byte) register reference.
    pub fn new(id: RegId, width: Width) -> Reg {
        Reg {
            id,
            width,
            high8: false,
        }
    }

    /// 64-bit GPR reference.
    pub fn q(id: RegId) -> Reg {
        Reg::new(id, Width::B8)
    }

    /// 32-bit GPR reference.
    pub fn l(id: RegId) -> Reg {
        Reg::new(id, Width::B4)
    }

    /// 16-bit GPR reference.
    pub fn w(id: RegId) -> Reg {
        Reg::new(id, Width::B2)
    }

    /// 8-bit (low-byte) GPR reference.
    pub fn b(id: RegId) -> Reg {
        Reg::new(id, Width::B1)
    }

    /// XMM register reference.
    pub fn xmm(n: u8) -> Reg {
        let id = RegId::from_index(RegId::Xmm0.index() + n as usize)
            .expect("xmm register number out of range");
        Reg::new(id, Width::B16)
    }

    /// Does this reference alias (overlap) `other`?
    ///
    /// All widths of the same [`RegId`] alias each other; on x86-64 a 32-bit
    /// write also zeroes the upper half, so treating any overlap as aliasing
    /// is the conservative and correct model for data-flow.
    pub fn aliases(self, other: Reg) -> bool {
        self.id == other.id
    }

    /// Does a write to this register fully define the whole 64-bit parent?
    ///
    /// True for 64-bit writes and — by the x86-64 zero-extension rule — for
    /// 32-bit writes. 8/16-bit writes merge into the old value.
    pub fn write_defines_parent(self) -> bool {
        matches!(self.width, Width::B4 | Width::B8 | Width::B16)
    }

    /// The AT&T spelling, without the `%` sigil (`<invalid-reg>` for a
    /// combination no spelling denotes, such as a high-byte 32-bit access).
    pub fn att_name(self) -> &'static str {
        REG_NAME_TABLE[self.id.index()][name_column(self.width, self.high8)]
    }

    /// Append the AT&T spelling, `%` sigil included.
    pub fn write_text(self, out: &mut String) {
        out.push('%');
        out.push_str(self.att_name());
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::text::display_via(f, |out| self.write_text(out))
    }
}

/// Error returned when a register name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

macro_rules! reg_names {
    ($(($name:literal, $id:ident, $width:ident, $high8:literal)),+ $(,)?) => {
        /// Every AT&T register spelling and the register it denotes.
        pub const REG_NAME_LIST: &[(&str, Reg)] = &[
            $(
                ($name, Reg { id: RegId::$id, width: Width::$width, high8: $high8 }),
            )+
        ];
    };
}

/// Columns of [`REG_NAME_TABLE`]: one per [`Width`], then the same widths
/// again with the high-byte marker set (only `B1` + high8 has spellings).
const NAME_COLUMNS: usize = 10;

const fn name_column(width: Width, high8: bool) -> usize {
    width as usize + if high8 { NAME_COLUMNS / 2 } else { 0 }
}

/// The spelling of every `(RegId, Width, high8)`, indexed by
/// [`RegId::index`] and [`name_column`], built from [`REG_NAME_LIST`] at
/// compile time. Emission prints a register with one load.
static REG_NAME_TABLE: [[&str; NAME_COLUMNS]; NUM_REG_IDS] = {
    let mut table = [["<invalid-reg>"; NAME_COLUMNS]; NUM_REG_IDS];
    let mut i = 0;
    while i < REG_NAME_LIST.len() {
        let (name, r) = REG_NAME_LIST[i];
        table[r.id as usize][name_column(r.width, r.high8)] = name;
        i += 1;
    }
    table
};

/// Pack a ≤8-byte name into a u64 key (little-endian, zero-padded). Every
/// register spelling fits; longer inputs are not register names.
#[inline]
fn pack_reg_name(b: &[u8]) -> Option<u64> {
    if b.is_empty() || b.len() > 8 {
        return None;
    }
    let mut v = 0u64;
    for (i, &c) in b.iter().enumerate() {
        v |= u64::from(c) << (8 * i as u32);
    }
    Some(v)
}

const REG_TABLE_SLOTS: usize = 256;

#[inline]
fn reg_slot(v: u64) -> usize {
    (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// Open-addressed name table keyed by the packed spelling. A key of 0 marks
/// an empty slot (no spelling packs to 0: names are non-empty ASCII).
static REG_TABLE: std::sync::OnceLock<[(u64, Reg); REG_TABLE_SLOTS]> = std::sync::OnceLock::new();

fn reg_table() -> &'static [(u64, Reg); REG_TABLE_SLOTS] {
    REG_TABLE.get_or_init(|| {
        let nil = Reg {
            id: RegId::Rax,
            width: Width::B8,
            high8: false,
        };
        let mut t = [(0u64, nil); REG_TABLE_SLOTS];
        for &(name, reg) in REG_NAME_LIST {
            let v = pack_reg_name(name.as_bytes()).expect("register name fits in 8 bytes");
            let mut slot = reg_slot(v);
            while t[slot].0 != 0 {
                slot = (slot + 1) % REG_TABLE_SLOTS;
            }
            t[slot] = (v, reg);
        }
        t
    })
}

/// Parse an AT&T register name (without the `%` sigil).
///
/// One multiply-shift hash and (almost always) one probe over the packed
/// spelling — the parser calls this for every register operand, so the
/// str-match the seed parser used was a measurable share of parse time.
pub fn parse_reg_name(name: &str) -> Option<Reg> {
    let v = pack_reg_name(name.as_bytes())?;
    let table = reg_table();
    let mut slot = reg_slot(v);
    loop {
        let (k, r) = table[slot];
        if k == v {
            return Some(r);
        }
        if k == 0 {
            return None;
        }
        slot = (slot + 1) % REG_TABLE_SLOTS;
    }
}

reg_names! {
    ("rax", Rax, B8, false), ("eax", Rax, B4, false), ("ax", Rax, B2, false), ("al", Rax, B1, false), ("ah", Rax, B1, true),
    ("rcx", Rcx, B8, false), ("ecx", Rcx, B4, false), ("cx", Rcx, B2, false), ("cl", Rcx, B1, false), ("ch", Rcx, B1, true),
    ("rdx", Rdx, B8, false), ("edx", Rdx, B4, false), ("dx", Rdx, B2, false), ("dl", Rdx, B1, false), ("dh", Rdx, B1, true),
    ("rbx", Rbx, B8, false), ("ebx", Rbx, B4, false), ("bx", Rbx, B2, false), ("bl", Rbx, B1, false), ("bh", Rbx, B1, true),
    ("rsp", Rsp, B8, false), ("esp", Rsp, B4, false), ("sp", Rsp, B2, false), ("spl", Rsp, B1, false),
    ("rbp", Rbp, B8, false), ("ebp", Rbp, B4, false), ("bp", Rbp, B2, false), ("bpl", Rbp, B1, false),
    ("rsi", Rsi, B8, false), ("esi", Rsi, B4, false), ("si", Rsi, B2, false), ("sil", Rsi, B1, false),
    ("rdi", Rdi, B8, false), ("edi", Rdi, B4, false), ("di", Rdi, B2, false), ("dil", Rdi, B1, false),
    ("r8", R8, B8, false), ("r8d", R8, B4, false), ("r8w", R8, B2, false), ("r8b", R8, B1, false),
    ("r9", R9, B8, false), ("r9d", R9, B4, false), ("r9w", R9, B2, false), ("r9b", R9, B1, false),
    ("r10", R10, B8, false), ("r10d", R10, B4, false), ("r10w", R10, B2, false), ("r10b", R10, B1, false),
    ("r11", R11, B8, false), ("r11d", R11, B4, false), ("r11w", R11, B2, false), ("r11b", R11, B1, false),
    ("r12", R12, B8, false), ("r12d", R12, B4, false), ("r12w", R12, B2, false), ("r12b", R12, B1, false),
    ("r13", R13, B8, false), ("r13d", R13, B4, false), ("r13w", R13, B2, false), ("r13b", R13, B1, false),
    ("r14", R14, B8, false), ("r14d", R14, B4, false), ("r14w", R14, B2, false), ("r14b", R14, B1, false),
    ("r15", R15, B8, false), ("r15d", R15, B4, false), ("r15w", R15, B2, false), ("r15b", R15, B1, false),
    ("rip", Rip, B8, false),
    ("xmm0", Xmm0, B16, false), ("xmm1", Xmm1, B16, false), ("xmm2", Xmm2, B16, false), ("xmm3", Xmm3, B16, false),
    ("xmm4", Xmm4, B16, false), ("xmm5", Xmm5, B16, false), ("xmm6", Xmm6, B16, false), ("xmm7", Xmm7, B16, false),
    ("xmm8", Xmm8, B16, false), ("xmm9", Xmm9, B16, false), ("xmm10", Xmm10, B16, false), ("xmm11", Xmm11, B16, false),
    ("xmm12", Xmm12, B16, false), ("xmm13", Xmm13, B16, false), ("xmm14", Xmm14, B16, false), ("xmm15", Xmm15, B16, false),
}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Reg, ParseRegError> {
        let name = s.strip_prefix('%').unwrap_or(s);
        parse_reg_name(name).ok_or_else(|| ParseRegError {
            name: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_roundtrip() {
        for name in [
            "rax", "eax", "ax", "al", "ah", "r8d", "r15b", "sil", "xmm7", "rip",
        ] {
            let r = parse_reg_name(name).unwrap();
            assert_eq!(r.att_name(), name);
        }
    }

    #[test]
    fn name_table_covers_every_spelling() {
        for &(name, reg) in REG_NAME_LIST {
            assert_eq!(reg.att_name(), name);
            assert_eq!(reg.to_string(), format!("%{name}"));
            assert_eq!(format!("%{name}").parse::<Reg>(), Ok(reg));
        }
        // Every combination the list does not name reads `<invalid-reg>`.
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8, Width::B16];
        for idx in 0..NUM_REG_IDS {
            let id = RegId::from_index(idx).unwrap();
            for width in widths {
                for high8 in [false, true] {
                    let reg = Reg { id, width, high8 };
                    if !REG_NAME_LIST.iter().any(|&(_, r)| r == reg) {
                        assert_eq!(reg.att_name(), "<invalid-reg>", "{reg:?}");
                    }
                }
            }
        }
        let high_dword = Reg {
            id: RegId::Rax,
            width: Width::B4,
            high8: true,
        };
        assert_eq!(high_dword.att_name(), "<invalid-reg>");
    }

    #[test]
    fn fromstr_accepts_sigil() {
        let r: Reg = "%eax".parse().unwrap();
        assert_eq!(r, Reg::l(RegId::Rax));
        assert!("%".parse::<Reg>().is_err());
        assert!("foo".parse::<Reg>().is_err());
    }

    #[test]
    fn aliasing() {
        let eax = Reg::l(RegId::Rax);
        let rax = Reg::q(RegId::Rax);
        let ah = parse_reg_name("ah").unwrap();
        assert!(eax.aliases(rax));
        assert!(ah.aliases(rax));
        assert!(!eax.aliases(Reg::l(RegId::Rbx)));
    }

    #[test]
    fn width_properties() {
        assert_eq!(Width::B4.bytes(), 4);
        assert_eq!(Width::B4.att_suffix(), Some('l'));
        assert_eq!(Width::from_att_suffix('q'), Some(Width::B8));
        assert_eq!(Width::B2.mask(), 0xffff);
    }

    #[test]
    fn encoding_numbers() {
        assert_eq!(RegId::Rax.encoding(), 0);
        assert_eq!(RegId::R15.encoding(), 15);
        assert_eq!(RegId::Xmm0.encoding(), 0);
        assert_eq!(RegId::Xmm15.encoding(), 15);
        assert!(RegId::Xmm3.is_xmm());
        assert!(!RegId::Rip.is_gpr());
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..NUM_REG_IDS {
            let id = RegId::from_index(i).unwrap();
            assert_eq!(id.index(), i);
        }
        assert!(RegId::from_index(NUM_REG_IDS).is_none());
    }

    #[test]
    fn write_defines_parent_rule() {
        assert!(Reg::l(RegId::Rax).write_defines_parent());
        assert!(Reg::q(RegId::Rax).write_defines_parent());
        assert!(!Reg::w(RegId::Rax).write_defines_parent());
        assert!(!Reg::b(RegId::Rax).write_defines_parent());
    }
}
