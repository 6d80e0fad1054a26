// x86-64 System V context switch for des::Process fibers. This file is the
// whole port: another target needs its own switch_context and prepare()
// here, and stops at the #error below until it has them. The swap keeps no
// CET shadow stack, so a process that turns user shadow stacks on would
// fault at its first switch.
#include "des/fiber.hpp"

#include <cstdint>
#include <new>

#if !defined(__x86_64__) || !defined(__ELF__)
#error "des fibers switch contexts on x86-64 ELF targets only: port src/des/fiber.cpp"
#endif

namespace chk::des::fiber {

// The frame switch_context leaves on a stack it switches away from, lowest
// address first; prepare() writes the same layout by hand.
//
//   +0  MXCSR (4 bytes), x87 control word (2 bytes), padding (2 bytes)
//   +8  r15, r14, r13, r12, rbx, rbp
//   +56 return address
//
// A fresh stack "returns" into chk_des_fiber_start, which calls r12(r13):
// entry(arg). Its .cfi_undefined rip marks it as the outermost frame.
__asm__(R"(
  .pushsection .text, "ax", @progbits
  .globl chk_des_fiber_switch
  .hidden chk_des_fiber_switch
  .type chk_des_fiber_switch, @function
  .p2align 4
chk_des_fiber_switch:
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
  .size chk_des_fiber_switch, .-chk_des_fiber_switch

  .globl chk_des_fiber_start
  .hidden chk_des_fiber_start
  .type chk_des_fiber_start, @function
  .p2align 4
chk_des_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size chk_des_fiber_start, .-chk_des_fiber_start
  .popsection
)");

// The trampoline above; only its address is used.
void fiber_start() __asm__("chk_des_fiber_start");

namespace {

struct FirstFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t padding;
  std::uintptr_t r15, r14, r13, r12, rbx, rbp;
  std::uintptr_t return_address;
};
static_assert(sizeof(FirstFrame) == 64);

}  // namespace

void* prepare(std::byte* stack_top, void (*entry)(void*) noexcept, void* arg) noexcept {
  FirstFrame frame{};
  __asm__ volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(frame.mxcsr), "=m"(frame.x87_cw));
  frame.r12 = reinterpret_cast<std::uintptr_t>(entry);
  frame.r13 = reinterpret_cast<std::uintptr_t>(arg);
  frame.return_address = reinterpret_cast<std::uintptr_t>(&fiber_start);
  // 16 bytes of headroom above the frame: after the swap's ret the stack
  // pointer sits 16-byte aligned, as the trampoline's call requires.
  return ::new (stack_top - 16 - sizeof(FirstFrame)) FirstFrame(frame);
}

}  // namespace chk::des::fiber
