#include "des/simulator.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <new>
#include <system_error>
#include <utility>

#include "des/fiber.hpp"
#include "des/process.hpp"
#include "util/format.hpp"

namespace chk::des {

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kIdle: return "idle";
    case StopReason::kDeadlock: return "deadlock";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kEventLimit: return "event-limit";
    case StopReason::kStopped: return "stopped";
  }
  return "?";
}

Simulator::Simulator() = default;

Simulator::~Simulator() { shutdown(); }

void Simulator::shutdown() noexcept {
  assert(current_ == nullptr && "shutdown must run in kernel context");
  // Tear down any processes that are still alive: switch into each with the
  // kill flag set so its stack unwinds (running destructors) and its fiber
  // ends.
  for (auto& proc : processes_) {
    if (proc->state_ == Process::State::kFinished) continue;
    proc->killed_ = true;
    // Unhook a parked process from its wait list. A kReady process was
    // already removed by its waker (only the resume event is pending), so
    // its cancel callback is stale — and the wait list it names may be
    // gone by now; drop it without running it, exactly as kill() does.
    if (proc->state_ == Process::State::kBlocked && proc->cancel_) {
      auto cancel = std::move(proc->cancel_);
      cancel();
    }
    proc->cancel_.reset();
    // The cancel callback above ran arbitrary wait-list code. If anything in
    // it finished this process (it must not), its fiber has ended and
    // switching into it again would resume a dead stack: skip it.
    if (proc->state_ == Process::State::kFinished) continue;
    enter(*proc);
    assert(proc->state_ == Process::State::kFinished &&
           "process failed to unwind during shutdown");
  }
}

// ---------------------------------------------------------------------------
// Event pool + ready queue
// ---------------------------------------------------------------------------

std::uint32_t Simulator::alloc_record() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  const std::size_t slot = pool_.size();
  assert(slot < kNilSlot && "event pool slot space exhausted");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(slot);
}

void Simulator::release_record(std::uint32_t slot) noexcept {
  EventRec& rec = pool_[slot];
  rec.seq = kFreeSeq;  // invalidates every outstanding handle to this slot
  rec.cancelled = false;
  rec.fn.reset();
  rec.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::Lane::push_back(const QueueEntry& entry) {
  if (size == ring.size()) {
    std::vector<QueueEntry> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = entry;
  ++size;
}

void Simulator::enqueue(const QueueEntry& entry) {
  const Duration delay = entry.time - now_;
  Lane* empty = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.size == 0) {
      if (empty == nullptr) empty = &lane;
    } else if (lane.delay == delay) {
      lane.push_back(entry);
      return;
    }
  }
  if (empty != nullptr) {
    empty->push_back(entry);
    empty->delay = delay;
    return;
  }
  heap_push(entry);
}

void Simulator::heap_push(const QueueEntry& entry) {
  heap_.push_back(entry);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(heap_[hole], heap_[parent])) break;
    std::swap(heap_[hole], heap_[parent]);
    hole = parent;
  }
}

void Simulator::sift_down(std::size_t hole) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * hole + 1;
    if (left >= n) break;
    std::size_t best = left;
    const std::size_t right = left + 1;
    if (right < n && earlier(heap_[right], heap_[left])) best = right;
    if (!earlier(heap_[best], heap_[hole])) break;
    std::swap(heap_[hole], heap_[best]);
    hole = best;
  }
}

void Simulator::heap_pop_top() noexcept {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::cancel_event(std::uint32_t slot, std::uint64_t seq) noexcept {
  if (!event_pending(slot, seq)) return;
  EventRec& rec = pool_[slot];
  rec.cancelled = true;
  // Release captured resources immediately — a cancelled timer must not pin
  // its captures until the (possibly distant) fire time is popped.
  rec.fn.reset();
  ++dead_queued_;
  // Reclaim in bulk once dead entries dominate. The floor keeps tiny queues
  // from compacting on every cancel; the 50% ratio amortizes the O(n) sweep
  // against the cancellations that earned it, keeping the queue O(live).
  // Destroying a capture above can itself cancel events — never recurse.
  if (!compacting_ && dead_queued_ >= kCompactMinDead && dead_queued_ * 2 >= queued_) {
    compact();
  }
}

void Simulator::compact() noexcept {
  compacting_ = true;
  // Phase 1: drop dead entries, keeping each lane's order and restoring the
  // heap invariant. Pop order depends only on the unique (time, seq) keys of
  // the surviving entries, so the schedule — and trace_hash() — is
  // unaffected.
  std::erase_if(heap_, [this](const QueueEntry& e) { return pool_[e.slot].cancelled; });
  // Bottom-up heapify over the survivors: O(n).
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  for (Lane& lane : lanes_) {
    const std::size_t mask = lane.ring.size() - 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lane.size; ++i) {
      const QueueEntry entry = lane.ring[(lane.head + i) & mask];
      if (!pool_[entry.slot].cancelled) lane.ring[(lane.head + kept++) & mask] = entry;
    }
    lane.size = kept;
  }
  queued_ -= static_cast<std::size_t>(dead_queued_);
  // Phase 2: recycle the records (their callbacks are already destroyed).
  for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].cancelled) release_record(static_cast<std::uint32_t>(slot));
  }
  dead_queued_ = 0;
  ++compactions_;
  compacting_ = false;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

EventHandle Simulator::schedule_at(TimePoint when, InlineFn fn) {
  if (when < now_) {
    throw SimError(util::format("schedule_at: {} is in the past (now={})", when.str(), now_.str()));
  }
  const std::uint32_t slot = alloc_record();
  const std::uint64_t seq = next_seq_;
  try {
    enqueue(QueueEntry{when, seq, slot});
  } catch (...) {
    release_record(slot);
    throw;
  }
  ++next_seq_;
  EventRec& rec = pool_[slot];
  rec.seq = seq;
  rec.fn = std::move(fn);
  if (++queued_ > queue_peak_) queue_peak_ = queued_;
  return EventHandle{this, slot, seq};
}

EventHandle Simulator::schedule_after(Duration delay, InlineFn fn) {
  if (delay < Duration::zero()) throw SimError("schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Process& Simulator::spawn(std::string name, ProcessFn body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

Process& Simulator::spawn_at(TimePoint start, std::string name, ProcessFn body) {
  auto proc = std::unique_ptr<Process>(
      new Process(*this, processes_.size(), std::move(name), std::move(body)));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  if (tracer_) {
    tracer_->instant(obs::EventKind::kProcSpawn, obs::kMetaRank, start.to_nanos(), ref.id());
  }
  schedule_at(start, [this, &ref] {
    if (ref.state_ == Process::State::kCreated) {
      ref.state_ = Process::State::kReady;
      switch_to(ref);
    }
  });
  return ref;
}

void Simulator::kill(Process& process) {
  if (process.state_ == Process::State::kFinished || process.killed_) return;
  process.killed_ = true;
  if (current_ == &process) throw ProcessKilled{};  // self-kill unwinds now
  if (process.state_ == Process::State::kBlocked) {
    if (process.cancel_) {
      auto cancel = std::move(process.cancel_);
      cancel();
    }
    process.cancel_.reset();
    resume(process);
  }
  // kCreated: its start event notices the kill when the body is entered.
  // kReady: a resume event is already queued; suspend() throws on return.
}

void Simulator::resume(Process& process) {
  if (process.state_ == Process::State::kFinished) return;
  if (process.state_ != Process::State::kBlocked && process.state_ != Process::State::kCreated) {
    throw SimError(util::format("resume: process '{}' is not blocked", process.name_));
  }
  process.state_ = Process::State::kReady;
  // The state re-check mirrors the spawn event: shutdown() can finish the
  // process between scheduling and firing, and run()-after-shutdown must
  // not switch into a fiber that has already ended.
  schedule_now([this, &process] {
    if (process.state_ == Process::State::kReady) switch_to(process);
  });
}

void Simulator::switch_to(Process& process) {
  assert(current_ == nullptr && "switch_to from non-kernel context");
  assert(process.state_ == Process::State::kReady);
  current_ = &process;
  process.state_ = Process::State::kRunning;
  enter(process);
  current_ = nullptr;
  if (!process_failure_.empty()) throw SimError(std::exchange(process_failure_, {}));
}

void Simulator::enter(Process& process) noexcept {
  void* fake_stack = nullptr;
  fiber::start_switch(&fake_stack, process.stack_.get() + Process::kGuardBytes,
                      Process::kStackBytes);
  fiber::switch_context(&kernel_sp_, process.sp_);
  fiber::finish_switch(fake_stack, nullptr, nullptr);
  if (process.state_ == Process::State::kFinished) process.stack_.reset();
}

void Simulator::on_process_exit(Process& process) noexcept {
  process.state_ = Process::State::kFinished;
  process.cancel_.reset();
  if (tracer_) {
    tracer_->instant(obs::EventKind::kProcExit, obs::kMetaRank, now_.to_nanos(), process.id());
  }
}

std::size_t Simulator::live_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& proc : processes_) {
    if (proc->state_ != Process::State::kFinished) ++n;
  }
  return n;
}

namespace {
/// splitmix64 finalizer: mixes one word into the trace hash.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

RunResult Simulator::run(TimePoint until, std::uint64_t max_events) {
  if (running_) throw SimError("run: reentrant call");
  running_ = true;
  // An event callback may throw (e.g. a deferred invariant violation);
  // reset the reentrancy flag on every exit path so the simulator stays
  // usable for inspection and teardown.
  struct RunningGuard {
    bool* flag;
    ~RunningGuard() { *flag = false; }
  } guard{&running_};
  stop_requested_ = false;
  RunResult result;
  while (true) {
    if (stop_requested_) { result.reason = StopReason::kStopped; break; }
    if (queued_ == 0) {
      result.reason = live_processes() > 0 ? StopReason::kDeadlock : StopReason::kIdle;
      break;
    }
    if (result.events_executed >= max_events) { result.reason = StopReason::kEventLimit; break; }
    // The earliest entry is the heap top or a lane head.
    const QueueEntry* next = heap_.empty() ? nullptr : &heap_[0];
    Lane* next_lane = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.size != 0 && (next == nullptr || earlier(lane.front(), *next))) {
        next = &lane.front();
        next_lane = &lane;
      }
    }
    const QueueEntry top = *next;
    if (top.time > until) { result.reason = StopReason::kTimeLimit; break; }
    if (next_lane != nullptr) {
      next_lane->pop_front();
    } else {
      heap_pop_top();
    }
    --queued_;
    EventRec& rec = pool_[top.slot];
    if (rec.cancelled) {
      // Dead entry that compaction had not reclaimed yet: discard without
      // advancing time or touching the trace hash.
      assert(dead_queued_ > 0);
      --dead_queued_;
      release_record(top.slot);
      continue;
    }
    now_ = top.time;
    ++result.events_executed;
    ++events_executed_;
    trace_hash_ = mix64(trace_hash_ ^ static_cast<std::uint64_t>(now_.to_nanos()) ^ (top.seq << 1));
    InlineFn fn = std::move(rec.fn);
    // Recycle the record BEFORE invoking: handles to this event report
    // !pending() (the seq tag is retired) and cancel() is a no-op from
    // inside its own callback. NB: `rec` must not be touched after this —
    // the callback may schedule and grow the pool.
    release_record(top.slot);
    fn();
  }
  result.end_time = now_;
  return result;
}

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

/// The guard-plus-stack mappings that finished processes left on one
/// thread, for the processes spawned there next. Each thread has its own,
/// so simulations that run side by side never share one, and a list holds
/// no more than its thread's largest simulation had live at once. Thread
/// exit unmaps it; a stack freed after that is unmapped directly.
class StackList {
 public:
  StackList() = default;
  StackList(const StackList&) = delete;
  StackList& operator=(const StackList&) = delete;
  ~StackList() {
    for (std::byte* mapping : free_) unmap(mapping);
    gone_ = true;
  }

  /// A mapping from this thread's list, or a new one if the list is empty.
  static std::byte* take() {
    if (!gone_ && !this_thread_.free_.empty()) {
      std::byte* mapping = this_thread_.free_.back();
      this_thread_.free_.pop_back();
      return mapping;
    }
    void* mapping = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) {
      throw std::system_error(errno, std::generic_category(), "des: mapping a process stack");
    }
    if (::mprotect(mapping, Process::kGuardBytes, PROT_NONE) != 0) {
      const int error = errno;
      ::munmap(mapping, kBytes);
      throw std::system_error(error, std::generic_category(), "des: protecting a stack guard");
    }
    return static_cast<std::byte*>(mapping);
  }

  /// Puts a finished process's mapping on this thread's list.
  static void give(std::byte* mapping) noexcept {
    fiber::forget_stack(mapping + Process::kGuardBytes, Process::kStackBytes);
    if (gone_) {
      unmap(mapping);
      return;
    }
    try {
      this_thread_.free_.push_back(mapping);
    } catch (const std::bad_alloc&) {
      unmap(mapping);
    }
  }

 private:
  static constexpr std::size_t kBytes = Process::kGuardBytes + Process::kStackBytes;

  static void unmap(std::byte* mapping) noexcept { ::munmap(mapping, kBytes); }

  static thread_local StackList this_thread_;
  static thread_local bool gone_;

  std::vector<std::byte*> free_;
};

thread_local StackList StackList::this_thread_;
thread_local bool StackList::gone_ = false;

Process::Process(Simulator& sim, std::uint64_t id, std::string name, ProcessFn body)
    : sim_(&sim),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(StackList::take()) {
  sp_ = fiber::prepare(stack_.get() + kGuardBytes + kStackBytes, &Process::fiber_main, this);
}

Process::~Process() = default;

void Process::ReturnStack::operator()(std::byte* mapping) const noexcept {
  StackList::give(mapping);
}

void Process::fiber_main(void* self_ptr) noexcept {
  Process& self = *static_cast<Process*>(self_ptr);
  Simulator& sim = *self.sim_;
  fiber::finish_switch(nullptr, &sim.kernel_stack_bottom_, &sim.kernel_stack_size_);
  if (!self.killed_) {
    try {
      self.body_(self);
    } catch (const ProcessKilled&) {
      // normal teardown path
    } catch (const std::exception& e) {
      sim.process_failure_ = util::format("process '{}' died: {}", self.name_, e.what());
    } catch (...) {
      sim.process_failure_ = util::format("process '{}' died: unknown exception", self.name_);
    }
  }
  self.body_ = nullptr;  // its captures die here, while the kernel waits
  sim.on_process_exit(self);
  // The last switch frees this fiber's fake stack, so it saves the stack
  // pointer into the Process, never into a local.
  fiber::start_switch(nullptr, sim.kernel_stack_bottom_, sim.kernel_stack_size_);
  fiber::switch_context(&self.sp_, sim.kernel_sp_);
  std::abort();  // the kernel never switches into a finished process
}

void Process::check_in_body() const {
  if (sim_->current() != this) {
    throw SimError(util::format(
        "blocking primitive for process '{}' called from outside its body", name_));
  }
}

void Process::suspend(InlineFn cancel) {
  check_in_body();
  if (std::current_exception()) {
    throw SimError(util::format("process '{}' parked inside a catch handler", name_));
  }
  cancel_ = std::move(cancel);
  state_ = State::kBlocked;
  void* fake_stack = nullptr;
  fiber::start_switch(&fake_stack, sim_->kernel_stack_bottom_, sim_->kernel_stack_size_);
  fiber::switch_context(&sp_, sim_->kernel_sp_);
  fiber::finish_switch(fake_stack, &sim_->kernel_stack_bottom_, &sim_->kernel_stack_size_);
  cancel_.reset();
  state_ = State::kRunning;
  if (killed_) throw ProcessKilled{};
}

void Process::delay(Duration d) {
  check_in_body();
  auto handle = sim_->schedule_after(d, [this] { sim_->resume(*this); });
  suspend([handle]() mutable { handle.cancel(); });
}

void Process::yield() { delay(Duration::zero()); }

}  // namespace chk::des
