// The x86-64 fiber switch declared in fiber.hpp.  Other targets switch with
// swapcontext and need nothing from this file.
#include "mprt/fiber.hpp"

#ifdef RSMPI_FIBER_ASM_SWITCH

// System V x86-64: rdi = save_sp, rsi = load_sp.  The pushes and the
// 8-byte MXCSR / x87-control-word slot form Fiber::SwitchFrame; a new
// fiber's stack is seeded with one whose return address is
// rsmpi_fiber_entry.  MXCSR and the x87 control word are callee-saved
// under the ABI, so each fiber keeps its own rounding mode and exception
// masks; their status flags travel along with the control bits.
__asm__(R"(
    .text
    .p2align 4
    .globl rsmpi_fiber_switch
    .type rsmpi_fiber_switch, @function
rsmpi_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size rsmpi_fiber_switch, .-rsmpi_fiber_switch

    .p2align 4
    .globl rsmpi_fiber_entry
    .type rsmpi_fiber_entry, @function
rsmpi_fiber_entry:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size rsmpi_fiber_entry, .-rsmpi_fiber_entry
)");

#endif
