#include "des/sync.hpp"

namespace chk::des {

WaitQueue::~WaitQueue() {
  for (Process* p : parked_) p->detach_cancel();
}

void WaitQueue::park(Process& self) {
  parked_.push_back(&self);
  self.suspend([this, &self] { std::erase(parked_, &self); });
}

bool WaitQueue::wake_one() {
  if (parked_.empty()) return false;
  Process* p = parked_.front();
  parked_.pop_front();
  p->sim().wake(*p);
  return true;
}

void WaitQueue::wake_all() {
  while (wake_one()) {}
}

bool WaitQueue::wake(Process& p) {
  if (std::erase(parked_, &p) == 0) return false;
  p.sim().wake(p);
  return true;
}

void SimSemaphore::acquire(Process& self) {
  if (count_ > 0) {
    --count_;
    return;
  }
  // A releaser that wakes us has already consumed the unit on our behalf
  // (it does not increment count_), so no re-check loop is needed; a kill
  // while parked removes us, so the unit is not lost on a later release.
  waiters_.park(self);
}

bool SimSemaphore::try_acquire() noexcept {
  if (count_ > 0) {
    --count_;
    return true;
  }
  return false;
}

void SimSemaphore::release() {
  if (waiters_.wake_one()) return;  // the unit transfers directly to the waiter
  ++count_;
}

}  // namespace chk::des
