// Simulated process.
//
// A Process runs a user-supplied body on a dedicated std::jthread, but the
// kernel guarantees that at most one simulated thread executes at any wall
// instant: the process and the kernel hand a baton back and forth through
// two binary semaphores. A blocked process is parked on its own semaphore,
// either by its own delay() or by a WaitQueue (des/sync.hpp); nothing else
// can park or wake it. Killing a process throws ProcessKilled at its current
// suspension point so that stack unwinding runs RAII cleanups; any other
// exception escaping the body fails the run (Simulator::run rethrows it).
#pragma once

#include <cstdint>
#include <functional>
#include <semaphore>
#include <string>
#include <thread>

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
    kRunning,   ///< currently holds the baton
    kReady,     ///< resume event scheduled
    kBlocked,   ///< parked in suspend()
    kFinished,  ///< body returned / unwound
  };

  Process(Simulator& sim, std::uint64_t id, std::string name, ProcessFn body);

  void thread_main(ProcessFn body) noexcept;
  void check_in_body() const;

  /// Park until resumed. `cancel` must undo the external wake source (e.g.
  /// remove this process from a wait queue); the kernel invokes it if the
  /// process is killed while parked, so that no stale waker fires later.
  /// Throws ProcessKilled after a kill.
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
  InlineFn cancel_;                       // valid while kBlocked
  std::binary_semaphore run_baton_{0};    // kernel -> process
  std::jthread thread_;                   // last member: starts running in ctor
};

}  // namespace chk::des
