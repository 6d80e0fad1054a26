// Simulated-domain synchronization primitives.
//
// All primitives operate purely on simulator state (never on OS state).
// Every one of them blocks through a WaitQueue: it is the only code that
// parks a process and the only code that wakes a parked one (a process's
// own delay() aside), so a kill can always unhook the victim and no stale
// waker can fire later. Wait queues are strict FIFO, which both matches the
// FIFO service disciplines of the modelled hardware and keeps runs
// deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "des/process.hpp"

namespace chk::des {

/// FIFO of parked processes.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  /// A queue can die while processes are still parked on it (its owner may
  /// be destroyed before the simulator shuts down and kills them); their
  /// eventual kill then skips the unhook from this (dead) queue.
  ~WaitQueue();

  /// Park `self` at the back until a wake. A kill removes it from the
  /// queue and throws ProcessKilled here.
  void park(Process& self);
  /// Wake the oldest parked process; false if none was parked.
  bool wake_one();
  /// Wake every parked process, oldest first.
  void wake_all();
  /// Remove `p` if it is still parked here and wake it. False, with
  /// nothing scheduled, if it was not (already woken, or killed).
  bool wake(Process& p);

 private:
  std::deque<Process*> parked_;
};

/// Counting semaphore with FIFO wakeups.
class SimSemaphore {
 public:
  explicit SimSemaphore(std::int64_t initial = 0) : count_(initial) {}

  /// Block the calling process until a unit is available.
  void acquire(Process& self);

  /// True if a unit was available; never blocks.
  bool try_acquire() noexcept;

  /// Release one unit; wakes the oldest waiter if any.
  void release();

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

 private:
  std::int64_t count_;
  WaitQueue waiters_;
};

/// Multi-slot typed message queue; receivers block.
template <typename T>
class SimMailbox {
 public:
  /// Deposit a message; callable from kernel or process context.
  void send(T message) {
    items_.push_back(std::move(message));
    receivers_.wake_one();
  }

  /// Block until a message is available, then take the oldest one.
  T recv(Process& self) {
    while (items_.empty()) receivers_.park(self);
    T message = std::move(items_.front());
    items_.pop_front();
    return message;
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  /// Drop all queued messages (used when flushing channels on rollback).
  void clear() noexcept { items_.clear(); }

 private:
  std::deque<T> items_;
  WaitQueue receivers_;
};

/// Completion token bridging a callback-style operation (FifoServer,
/// Network) to blocking process style: the operation invokes callback()
/// exactly once, in kernel context; the waiting process parks until then.
/// The shared state outlives the waiter's stack frame, so a callback that
/// fires after its waiter was killed is a safe no-op.
class Completion {
 public:
  Completion() : state_(std::make_shared<State>()) {}

  /// The callback to hand to the async operation. Copyable.
  [[nodiscard]] std::function<void()> callback() const {
    return [state = state_] {
      state->fired = true;
      state->waiter.wake_one();
    };
  }

  /// Block `self` until the callback has fired. Throws ProcessKilled if
  /// the process is killed first.
  void await(Process& self) {
    while (!state_->fired) state_->waiter.park(self);
  }

 private:
  struct State {
    bool fired = false;
    WaitQueue waiter;
  };
  std::shared_ptr<State> state_;
};

}  // namespace chk::des
