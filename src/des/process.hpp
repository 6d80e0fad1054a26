// Simulated process.
//
// A Process runs a user-supplied body as a stackful fiber on the
// simulator's own OS thread: the kernel switches into it and it switches
// back when it parks or finishes, so exactly one of them runs at a time.
// Each process owns a kStackBytes stack with a PROT_NONE guard region below
// it, so an overflow faults instead of writing into a neighbouring mapping.
// A finished process hands the mapping to its thread's free list, and the
// next process spawned on that thread takes it from there (simulator.cpp's
// StackList), so a spawn on a warm thread makes no system call.
// The ASan build brackets every switch with
// __sanitizer_{start,finish}_switch_fiber (des/fiber.hpp).
//
// A blocked process is parked in suspend(), either by its own delay() or by
// a WaitQueue (des/sync.hpp); nothing else can park or wake it. Killing a
// process throws ProcessKilled at its current suspension point so that
// stack unwinding runs RAII cleanups; any other exception escaping the body
// fails the run (Simulator::run rethrows it).
//
// All fibers share their thread's C++ exception state (the caught-exception
// stack and the uncaught count), so a process must not park inside a catch
// handler: another process leaving its own handler would pop this one's
// exception. suspend() refuses with a SimError naming the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "des/simulator.hpp"
#include "des/time.hpp"

namespace chk::des {

class Process {
 public:
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] TimePoint now() const noexcept { return sim_->now(); }

  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFinished; }

  // ---- Blocking primitives; callable only from this process's own body ----

  /// Advance simulated time by `d` without consuming any modelled resource.
  void delay(Duration d);

  /// Yield to other work scheduled at the current instant.
  void yield();

 private:
  friend class Simulator;
  friend class WaitQueue;

  enum class State : std::uint8_t {
    kCreated,   ///< spawn event scheduled, body not yet entered
    kRunning,   ///< currently executing on its fiber
    kReady,     ///< resume event scheduled
    kBlocked,   ///< parked in suspend()
    kFinished,  ///< body returned / unwound
  };

  /// Usable stack per process. The deepest body measured (tier-1, every
  /// bench, the examples and the three perfbench workloads) touched 7.8 KB.
  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;
  /// PROT_NONE region mapped below each stack.
  static constexpr std::size_t kGuardBytes = std::size_t{64} << 10;

  /// Hands a guard region plus stack back to its thread's StackList.
  struct ReturnStack {
    void operator()(std::byte* mapping) const noexcept;
  };
  friend class StackList;

  Process(Simulator& sim, std::uint64_t id, std::string name, ProcessFn body);

  /// First frame on the process's own stack: runs the body, destroys it,
  /// and switches to the kernel for the last time.
  [[noreturn]] static void fiber_main(void* self) noexcept;
  void check_in_body() const;

  /// Park until resumed. `cancel` must undo the external wake source (e.g.
  /// remove this process from a wait queue); the kernel invokes it if the
  /// process is killed while parked, so that no stale waker fires later.
  /// Throws ProcessKilled after a kill, and SimError inside a catch handler.
  void suspend(InlineFn cancel);

  /// Drop the pending suspend-cancel callback. A WaitQueue calls this from
  /// its destructor for every process still parked on it: if the queue
  /// dies before the parked process is killed (owner destroyed before the
  /// simulator shuts down), the callback would otherwise touch the queue's
  /// freed storage.
  void detach_cancel() noexcept { cancel_.reset(); }

  Simulator* sim_;
  std::uint64_t id_;
  std::string name_;
  State state_ = State::kCreated;
  bool killed_ = false;
  InlineFn cancel_;  // valid while kBlocked
  ProcessFn body_;   // destroyed on the fiber when it ends
  /// Guard region, then the stack; back on its thread's free list once
  /// the process finishes.
  std::unique_ptr<std::byte, ReturnStack> stack_;
  void* sp_ = nullptr;  // saved stack pointer while switched out
};

}  // namespace chk::des
