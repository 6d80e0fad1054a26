#include "des/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "des/process.hpp"

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
  // Tear down any processes that are still alive: wake each with the kill
  // flag set so its stack unwinds (running destructors) and its thread
  // exits. The baton protocol keeps this serialized.
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
    // Guard against double-release: the cancel callback above ran arbitrary
    // wait-list code. If anything in that unwind finished this process (it
    // must not, but the failure mode — releasing the baton of a thread
    // that already exited, then blocking forever on kernel_baton_ — is a
    // hang, not a diagnosable crash), skip the handoff.
    if (proc->state_ == Process::State::kFinished) continue;
    proc->run_baton_.release();
    kernel_baton_.acquire();  // wait for the thread to unwind & yield back
    assert(proc->state_ == Process::State::kFinished &&
           "process failed to unwind during shutdown");
  }
  // jthread members join in Process destructors (or immediately here for
  // explicit shutdown: a finished thread joins without blocking).
}

// ---------------------------------------------------------------------------
// Event pool + heap
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

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(heap_[hole], heap_[parent])) break;
    std::swap(heap_[hole], heap_[parent]);
    hole = parent;
  }
  if (heap_.size() > queue_peak_) queue_peak_ = heap_.size();
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
  ++dead_in_heap_;
  // Reclaim in bulk once dead entries dominate. The floor keeps tiny heaps
  // from compacting on every cancel; the 50% ratio amortizes the O(n) sweep
  // against the cancellations that earned it, keeping the heap O(live).
  // Destroying a capture above can itself cancel events — never recurse.
  if (!compacting_ && dead_in_heap_ >= kCompactMinDead && dead_in_heap_ * 2 >= heap_.size()) {
    compact();
  }
}

void Simulator::compact() noexcept {
  compacting_ = true;
  // Phase 1: drop dead heap entries and restore the heap invariant. Pop
  // order depends only on the unique (time, seq) keys of the surviving
  // entries, so the schedule — and trace_hash() — is unaffected.
  std::erase_if(heap_, [this](const HeapEntry& e) { return pool_[e.slot].cancelled; });
  // Bottom-up heapify over the survivors: O(n).
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  // Phase 2: recycle the records (their callbacks are already destroyed).
  for (std::size_t slot = 0; slot < pool_.size(); ++slot) {
    if (pool_[slot].cancelled) release_record(static_cast<std::uint32_t>(slot));
  }
  dead_in_heap_ = 0;
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
  EventRec& rec = pool_[slot];
  const std::uint64_t seq = next_seq_++;
  rec.time = when;
  rec.seq = seq;
  rec.cancelled = false;
  rec.fn = std::move(fn);
  try {
    heap_push(HeapEntry{when, seq, slot});
  } catch (...) {
    release_record(slot);
    throw;
  }
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
  // not hand the baton to a thread that already exited.
  schedule_now([this, &process] {
    if (process.state_ == Process::State::kReady) switch_to(process);
  });
}

void Simulator::switch_to(Process& process) {
  assert(current_ == nullptr && "switch_to from non-kernel context");
  assert(process.state_ == Process::State::kReady);
  current_ = &process;
  process.state_ = Process::State::kRunning;
  process.run_baton_.release();
  kernel_baton_.acquire();
  current_ = nullptr;
  if (!process_failure_.empty()) throw SimError(std::exchange(process_failure_, {}));
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
    if (heap_.empty()) {
      result.reason = live_processes() > 0 ? StopReason::kDeadlock : StopReason::kIdle;
      break;
    }
    if (result.events_executed >= max_events) { result.reason = StopReason::kEventLimit; break; }
    const HeapEntry top = heap_[0];
    if (top.time > until) { result.reason = StopReason::kTimeLimit; break; }
    heap_pop_top();
    EventRec& rec = pool_[top.slot];
    if (rec.cancelled) {
      // Dead entry that compaction had not reclaimed yet: discard without
      // advancing time or touching the trace hash.
      assert(dead_in_heap_ > 0);
      --dead_in_heap_;
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

Process::Process(Simulator& sim, std::uint64_t id, std::string name, ProcessFn body)
    : sim_(&sim),
      id_(id),
      name_(std::move(name)),
      thread_([this, fn = std::move(body)]() mutable { thread_main(std::move(fn)); }) {}

Process::~Process() = default;

void Process::thread_main(ProcessFn body) noexcept {
  run_baton_.acquire();  // wait for the first dispatch
  if (!killed_) {
    try {
      body(*this);
    } catch (const ProcessKilled&) {
      // normal teardown path
    } catch (const std::exception& e) {
      sim_->process_failure_ = util::format("process '{}' died: {}", name_, e.what());
    } catch (...) {
      sim_->process_failure_ = util::format("process '{}' died: unknown exception", name_);
    }
  }
  sim_->on_process_exit(*this);
  sim_->kernel_baton_.release();  // final yield; thread ends here
}

void Process::check_in_body() const {
  if (sim_->current() != this) {
    throw SimError(util::format(
        "blocking primitive for process '{}' called from outside its body", name_));
  }
}

void Process::suspend(InlineFn cancel) {
  check_in_body();
  cancel_ = std::move(cancel);
  state_ = State::kBlocked;
  sim_->kernel_baton_.release();
  run_baton_.acquire();
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
