// Context switch behind des::Process fibers (private to des/).
//
// Each process runs on its own stack on the simulator's OS thread. A switch
// is a hand-rolled register swap: it saves what the System V ABI makes
// callee-saved (rbx, rbp, r12-r15, the MXCSR control bits and the x87
// control word) on the current stack and loads the same set from the
// target's. There is no signal-mask syscall, unlike swapcontext(3). The
// swap and the first-frame layout are the only target-specific code;
// fiber.cpp holds both.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define CHK_DES_ASAN 1
#endif

namespace chk::des::fiber {

/// Saves the current context on the current stack, stores that stack's
/// pointer in *save_sp, then resumes the context saved at load_sp.
void switch_context(void** save_sp, void* load_sp) noexcept __asm__("chk_des_fiber_switch");

/// Lays out a first frame below `stack_top` (16-byte aligned) and returns
/// its stack pointer: the first switch to it calls entry(arg), with the
/// floating-point control state of the caller of prepare(). entry must
/// never return.
void* prepare(std::byte* stack_top, void (*entry)(void*) noexcept, void* arg) noexcept;

// AddressSanitizer's fiber hooks, no-ops in other builds. Every switch is
// bracketed: start_switch on the old stack names the new one, finish_switch
// on the new stack restores its fake stack (see ASan's
// common_interface_defs.h). A null fake_stack_save in start_switch tells
// ASan the old fiber is dying and frees its fake stack, so that last
// switch must save its stack pointer into memory that outlives the fiber.

inline void start_switch([[maybe_unused]] void** fake_stack_save,
                         [[maybe_unused]] const void* bottom,
                         [[maybe_unused]] std::size_t size) noexcept {
#ifdef CHK_DES_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

inline void finish_switch([[maybe_unused]] void* fake_stack_save,
                          [[maybe_unused]] const void** bottom_old,
                          [[maybe_unused]] std::size_t* size_old) noexcept {
#ifdef CHK_DES_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

/// Clears ASan's shadow of a stack about to be unmapped or handed to the
/// next process: the frame that never returns keeps its redzones poisoned,
/// and the address range may run another fiber or be mapped again.
inline void forget_stack([[maybe_unused]] const void* bottom,
                         [[maybe_unused]] std::size_t size) noexcept {
#ifdef CHK_DES_ASAN
  __asan_unpoison_memory_region(bottom, size);
#endif
}

}  // namespace chk::des::fiber
