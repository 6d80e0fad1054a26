#include "des/sync.hpp"

namespace chk::des {

// A primitive can die while processes are still parked on it (its owner
// may be destroyed before the simulator shuts down and kills them). The
// parked processes' cancel callbacks reference our wait list, so detach
// them: the eventual kill then skips the (dangling) unhook.
SimSemaphore::~SimSemaphore() {
  for (Process* waiter : wait_queue_) waiter->detach_cancel();
}

void SimSemaphore::acquire(Process& self) {
  if (count_ > 0) {
    --count_;
    return;
  }
  wait_queue_.push_back(&self);
  // A releaser that wakes us has already consumed the unit on our behalf
  // (it does not increment count_), so no re-check loop is needed; but a
  // kill while queued must remove us so the unit is not lost on a later
  // release.
  self.suspend([this, &self] { std::erase(wait_queue_, &self); });
}

bool SimSemaphore::try_acquire() noexcept {
  if (count_ > 0) {
    --count_;
    return true;
  }
  return false;
}

void SimSemaphore::release() {
  if (!wait_queue_.empty()) {
    Process* waiter = wait_queue_.front();
    wait_queue_.pop_front();
    sim_->wake(*waiter);  // unit transfers directly to the waiter
    return;
  }
  ++count_;
}

}  // namespace chk::des
