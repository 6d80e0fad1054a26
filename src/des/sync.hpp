// Simulated-domain synchronization primitives.
//
// All primitives operate purely on simulator state (never on OS state): a
// blocked simulated process is parked via Process::suspend and woken by a
// kernel event. Wait lists are strict FIFO, which both matches the FIFO
// service disciplines of the modelled hardware and keeps runs deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "des/process.hpp"
#include "des/simulator.hpp"

namespace chk::des {

/// Counting semaphore with FIFO wakeups.
class SimSemaphore {
 public:
  explicit SimSemaphore(Simulator& sim, std::int64_t initial = 0)
      : sim_(&sim), count_(initial) {}
  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;
  ~SimSemaphore();

  /// Block the calling process until a unit is available.
  void acquire(Process& self);

  /// True if a unit was available; never blocks.
  bool try_acquire() noexcept;

  /// Release one unit; wakes the oldest waiter if any.
  void release();

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiters() const noexcept { return wait_queue_.size(); }

 private:
  Simulator* sim_;
  std::int64_t count_;
  std::deque<Process*> wait_queue_;
};

/// Single-slot or multi-slot typed message queue; receivers block.
template <typename T>
class SimMailbox {
 public:
  explicit SimMailbox(Simulator& sim) : sim_(&sim) {}
  SimMailbox(const SimMailbox&) = delete;
  SimMailbox& operator=(const SimMailbox&) = delete;
  ~SimMailbox() {
    for (Process* receiver : receivers_) receiver->detach_cancel();
  }

  /// Deposit a message; callable from kernel or process context.
  void send(T message) {
    items_.push_back(std::move(message));
    if (!receivers_.empty()) {
      Process* receiver = receivers_.front();
      receivers_.pop_front();
      sim_->wake(*receiver);
    }
  }

  /// Block until a message is available, then take the oldest one.
  T recv(Process& self) {
    while (items_.empty()) {
      receivers_.push_back(&self);
      self.suspend([this, &self] { remove_receiver(self); });
    }
    T message = std::move(items_.front());
    items_.pop_front();
    return message;
  }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  /// Drop all queued messages (used when flushing channels on rollback).
  void clear() noexcept { items_.clear(); }

 private:
  void remove_receiver(Process& self) { std::erase(receivers_, &self); }

  Simulator* sim_;
  std::deque<T> items_;
  std::deque<Process*> receivers_;
};

}  // namespace chk::des
