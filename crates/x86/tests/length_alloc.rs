//! Length queries in relaxation's hot loop: `encoded_length` and
//! `branch_lengths` assemble an instruction's parts in inline buffers and
//! add their sizes, so they must not touch the heap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mao_x86::encode::branch_lengths;
use mao_x86::insn::build;
use mao_x86::{
    encoded_length, BranchForm, Cond, Instruction, Mem, Mnemonic, Operand, Reg, RegId, Width,
};

/// Counts allocations made by the current thread, so the test harness's
/// other threads cannot disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; counting touches only a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Instructions covering every buffer the assembler fills: one- to
/// three-byte opcodes, REX and operand-size prefixes, ModRM with SIB and
/// both displacement sizes, 8/16/32/64-bit immediates, and branches.
fn sample() -> Vec<Instruction> {
    let (rax, rbp, rdi, r8) = (
        Reg::q(RegId::Rax),
        Reg::q(RegId::Rbp),
        Reg::q(RegId::Rdi),
        Reg::q(RegId::R8),
    );
    let att = |m: &str, ops: Vec<Operand>| Instruction::from_att(m, ops).expect(m);
    vec![
        Instruction::new(Mnemonic::Push, vec![Operand::Reg(rbp)]),
        Instruction::new(Mnemonic::Ret, Vec::<Operand>::new()),
        build::mov(Width::B8, Reg::q(RegId::Rsp), rbp),
        build::mov(Width::B4, Operand::Imm(5), Mem::base_disp(rbp, -4)),
        build::add(Width::B4, Operand::Imm(1), Mem::base_disp(rbp, 4096)),
        build::add(Width::B8, Operand::Imm(1), r8),
        build::sub(Width::B2, Operand::Imm(300), Reg::w(RegId::Rax)),
        build::cmp(Width::B1, Operand::Imm(7), Reg::b(RegId::Rdi)),
        att("movabsq", vec![Operand::Imm(1 << 40), Operand::Reg(rax)]),
        att(
            "movsbl",
            vec![
                Operand::Mem(Mem::base_index(rdi, r8, 4, 1)),
                Operand::Reg(Reg::l(RegId::Rdx)),
            ],
        ),
        Instruction::nop_of_len(5),
        Instruction::new(Mnemonic::Mfence, Vec::<Operand>::new()),
        build::jmp(".L1"),
        build::jcc(Cond::Ne, ".L2"),
    ]
}

#[test]
fn length_queries_allocate_nothing() {
    let insns = sample();
    let before = allocations();
    let mut total = 0usize;
    for insn in &insns {
        for form in [BranchForm::Rel8, BranchForm::Rel32] {
            total += encoded_length(insn, form).unwrap();
        }
        if insn.target_label().is_some() {
            let (short, near) = branch_lengths(insn).unwrap();
            total += (short + near) as usize;
        }
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated,
        0,
        "{} length queries allocated {allocated} times",
        insns.len()
    );
    assert!(total > insns.len() * 2);
}
