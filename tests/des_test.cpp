// Unit tests for the discrete-event kernel: event ordering, process
// lifecycle, kill semantics, synchronization primitives, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "des/process.hpp"
#include "des/simulator.hpp"
#include "des/sync.hpp"
#include "des/time.hpp"

namespace chk::des {
namespace {

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::millis(3).to_nanos(), 3'000'000);
  EXPECT_EQ((Duration::secs(1) + Duration::millis(500)).to_seconds(), 1.5);
  EXPECT_EQ(Duration::seconds(2.5).to_nanos(), 2'500'000'000);
  EXPECT_LT(Duration::micros(1), Duration::millis(1));
  EXPECT_EQ(Duration::millis(10) / Duration::millis(5), 2.0);
  EXPECT_EQ(Duration::millis(9).scaled(2.0), Duration::millis(18));
}

TEST(Time, TimePointArithmetic) {
  const TimePoint t = TimePoint::origin() + Duration::secs(3);
  EXPECT_EQ(t.to_seconds(), 3.0);
  EXPECT_EQ(t - TimePoint::origin(), Duration::secs(3));
  EXPECT_EQ((t - Duration::secs(1)).to_seconds(), 2.0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::origin() + Duration::millis(20), [&] { order.push_back(2); });
  sim.schedule_at(TimePoint::origin() + Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::origin() + Duration::millis(30), [&] { order.push_back(3); });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(30));
}

TEST(Simulator, EqualTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto t = TimePoint::origin() + Duration::millis(5);
  for (int i = 0; i < 10; ++i) sim.schedule_at(t, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_after(Duration::millis(10), [&] {
    EXPECT_THROW(sim.schedule_at(TimePoint::origin(), [] {}), SimError);
  });
  sim.run();
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, HandleNotPendingAfterRun) {
  Simulator sim;
  auto handle = sim.schedule_after(Duration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  // self-rescheduling ticker
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(Duration::millis(10), tick);
  };
  sim.schedule_after(Duration::millis(10), tick);
  const auto result = sim.run(TimePoint::origin() + Duration::millis(55));
  EXPECT_EQ(result.reason, StopReason::kTimeLimit);
  EXPECT_EQ(count, 5);
  // continuing picks up where we left off
  const auto result2 = sim.run(TimePoint::origin() + Duration::millis(105));
  EXPECT_EQ(result2.reason, StopReason::kTimeLimit);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventLimitStops) {
  Simulator sim;
  std::function<void()> tick = [&] { sim.schedule_after(Duration::millis(1), tick); };
  sim.schedule_now(tick);
  const auto result = sim.run(TimePoint::max(), 100);
  EXPECT_EQ(result.reason, StopReason::kEventLimit);
  EXPECT_EQ(result.events_executed, 100u);
}

TEST(Simulator, StopRequest) {
  Simulator sim;
  sim.schedule_after(Duration::millis(1), [&] { sim.stop(); });
  sim.schedule_after(Duration::millis(2), [] { FAIL() << "should not run"; });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kStopped);
}

TEST(Process, BodyRunsAndAdvancesTime) {
  Simulator sim;
  std::vector<double> timestamps;
  sim.spawn("p", [&](Process& self) {
    timestamps.push_back(self.now().to_seconds());
    self.delay(Duration::secs(2));
    timestamps.push_back(self.now().to_seconds());
    self.delay(Duration::millis(500));
    timestamps.push_back(self.now().to_seconds());
  });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
  ASSERT_EQ(timestamps.size(), 3u);
  EXPECT_DOUBLE_EQ(timestamps[0], 0.0);
  EXPECT_DOUBLE_EQ(timestamps[1], 2.0);
  EXPECT_DOUBLE_EQ(timestamps[2], 2.5);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("a", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log.push_back(std::string("a") + std::to_string(i));
      self.delay(Duration::millis(10));
    }
  });
  sim.spawn("b", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      log.push_back(std::string("b") + std::to_string(i));
      self.delay(Duration::millis(15));
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, SpawnAtDelaysStart) {
  Simulator sim;
  double started = -1;
  sim.spawn_at(TimePoint::origin() + Duration::secs(5), "late",
               [&](Process& self) { started = self.now().to_seconds(); });
  sim.run();
  EXPECT_DOUBLE_EQ(started, 5.0);
}

TEST(Process, UncaughtExceptionFailsTheRun) {
  Simulator sim;
  auto& proc = sim.spawn("bad", [](Process&) { throw std::runtime_error("boom"); });
  std::string what;
  try {
    sim.run();
  } catch (const SimError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
  EXPECT_NE(what.find("boom"), std::string::npos) << what;
  EXPECT_TRUE(proc.finished());
}

TEST(Process, KillWhileBlockedUnwindsRaii) {
  Simulator sim;
  bool cleaned_up = false;
  bool after_delay = false;
  auto& victim = sim.spawn("victim", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    self.delay(Duration::secs(100));
    after_delay = true;
  });
  sim.schedule_after(Duration::secs(1), [&] { sim.kill(victim); });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
  EXPECT_TRUE(victim.finished());
  EXPECT_TRUE(cleaned_up);
  EXPECT_FALSE(after_delay);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::secs(1));
}

TEST(Process, KillBeforeStartPreventsBody) {
  Simulator sim;
  bool ran = false;
  auto& victim = sim.spawn_at(TimePoint::origin() + Duration::secs(10), "victim",
                              [&](Process&) { ran = true; });
  sim.schedule_after(Duration::secs(1), [&] { sim.kill(victim); });
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(victim.finished());
}

TEST(Process, SelfKillThrows) {
  Simulator sim;
  bool after = false;
  auto& victim = sim.spawn("self", [&](Process& self) {
    self.sim().kill(self);
    after = true;
  });
  sim.run();  // ProcessKilled is not a failure: run returns normally
  EXPECT_TRUE(victim.finished());
  EXPECT_FALSE(after);
}

TEST(Process, KillFinishedIsNoop) {
  Simulator sim;
  auto& proc = sim.spawn("done", [](Process&) {});
  sim.run();
  EXPECT_TRUE(proc.finished());
  sim.kill(proc);  // must not throw or deadlock
  sim.run();
}

TEST(Process, DestructorTearsDownBlockedProcesses) {
  bool cleaned_up = false;
  {
    Simulator sim;
    sim.spawn("stuck", [&](Process& self) {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } guard{&cleaned_up};
      self.delay(Duration::secs(1000));
    });
    sim.run(TimePoint::origin() + Duration::secs(1));
    // sim destroyed with the process still blocked
  }
  EXPECT_TRUE(cleaned_up);
}

TEST(Semaphore, BlocksUntilRelease) {
  Simulator sim;
  SimSemaphore sem(0);
  std::vector<std::string> log;
  sim.spawn("waiter", [&](Process& self) {
    log.push_back(std::string("wait@") + std::to_string(self.now().to_nanos()));
    sem.acquire(self);
    log.push_back(std::string("got@") + std::to_string(self.now().to_nanos()));
  });
  sim.spawn("poster", [&](Process& self) {
    self.delay(Duration::nanos(50));
    sem.release();
  });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "got@50");
}

TEST(Semaphore, InitialCountAdmitsWithoutBlocking) {
  Simulator sim;
  SimSemaphore sem(2);
  int acquired = 0;
  sim.spawn("p", [&](Process& self) {
    sem.acquire(self);
    sem.acquire(self);
    acquired = 2;
    EXPECT_FALSE(sem.try_acquire());
  });
  sim.run();
  EXPECT_EQ(acquired, 2);
}

TEST(Semaphore, FifoWakeOrder) {
  Simulator sim;
  SimSemaphore sem(0);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn_at(TimePoint::origin() + Duration::millis(i), std::string("w") + std::to_string(i),
                 [&, i](Process& self) {
                   sem.acquire(self);
                   order.push_back(i);
                 });
  }
  sim.schedule_after(Duration::secs(1), [&] { sem.release(); sem.release(); sem.release(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Semaphore, KilledWaiterDoesNotConsumeUnit) {
  Simulator sim;
  SimSemaphore sem(0);
  bool second_got = false;
  auto& first = sim.spawn("first", [&](Process& self) { sem.acquire(self); });
  sim.spawn_at(TimePoint::origin() + Duration::millis(1), "second", [&](Process& self) {
    sem.acquire(self);
    second_got = true;
  });
  sim.schedule_after(Duration::millis(2), [&] { sim.kill(first); });
  sim.schedule_after(Duration::millis(3), [&] { sem.release(); });
  sim.run();
  EXPECT_TRUE(second_got);
  EXPECT_EQ(sem.count(), 0);
}

TEST(Mailbox, DeliversInOrder) {
  Simulator sim;
  SimMailbox<int> box;
  std::vector<int> received;
  sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 3; ++i) received.push_back(box.recv(self));
  });
  sim.spawn("tx", [&](Process& self) {
    for (int i = 1; i <= 3; ++i) {
      box.send(i * 10);
      self.delay(Duration::millis(1));
    }
  });
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
}

TEST(Mailbox, ClearDropsQueued) {
  Simulator sim;
  SimMailbox<int> box;
  sim.spawn("p", [&](Process&) {
    box.send(1);
    box.send(2);
    box.clear();
    EXPECT_TRUE(box.empty());
  });
  sim.run();
}

TEST(Mailbox, KilledReceiverLeavesMessageForOthers) {
  Simulator sim;
  SimMailbox<int> box;
  int got = 0;
  auto& victim = sim.spawn("victim", [&](Process& self) { got = box.recv(self) * 100; });
  sim.spawn_at(TimePoint::origin() + Duration::millis(1), "other",
               [&](Process& self) { got = box.recv(self); });
  sim.schedule_after(Duration::millis(2), [&] { sim.kill(victim); });
  sim.schedule_after(Duration::millis(3), [&] { box.send(7); });
  sim.run();
  EXPECT_EQ(got, 7);
}

TEST(Completion, AwaitBlocksUntilCallback) {
  Simulator sim;
  Completion done;
  double when = -1;
  sim.spawn("p", [&](Process& self) {
    done.await(self);
    when = self.now().to_seconds();
  });
  sim.schedule_after(Duration::secs(3), done.callback());
  sim.run();
  EXPECT_DOUBLE_EQ(when, 3.0);
}

TEST(Completion, LateCallbackAfterKillIsSafe) {
  Simulator sim;
  Completion done;
  auto& victim = sim.spawn("p", [&](Process& self) { done.await(self); });
  sim.schedule_after(Duration::secs(1), [&] { sim.kill(victim); });
  sim.schedule_after(Duration::secs(2), done.callback());
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
  EXPECT_TRUE(victim.finished());
}

TEST(WaitQueue, DestroyedWhileParkedThenShutdown) {
  // The queue's owner dies before the simulator kills the process parked
  // on it: the kill must skip the unhook from the dead queue, and the
  // process must still unwind through its RAII cleanups.
  bool cleaned_up = false;
  Simulator sim;
  auto queue = std::make_unique<WaitQueue>();
  auto& stuck = sim.spawn("stuck", [&](Process& self) {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } guard{&cleaned_up};
    queue->park(self);
  });
  EXPECT_EQ(sim.run().reason, StopReason::kDeadlock);
  queue.reset();
  sim.shutdown();
  EXPECT_TRUE(stuck.finished());
  EXPECT_TRUE(cleaned_up);
}

TEST(WaitQueue, WakeAfterKillIsFalseAndSchedulesNothing) {
  // recv_until's deadline timer can fire after a kill already unhooked
  // its process: the wake must find nothing and schedule nothing.
  Simulator sim;
  WaitQueue queue;
  auto& victim = sim.spawn("victim", [&](Process& self) { queue.park(self); });
  sim.run();
  sim.kill(victim);
  EXPECT_EQ(sim.live_events(), 1u);  // the victim's unwind
  EXPECT_FALSE(queue.wake(victim));
  EXPECT_EQ(sim.live_events(), 1u);
  sim.run();
  EXPECT_TRUE(victim.finished());
  EXPECT_FALSE(queue.wake(victim));
  EXPECT_EQ(sim.live_events(), 0u);
}

TEST(Simulator, DeadlockDetected) {
  Simulator sim;
  SimSemaphore sem(0);
  sim.spawn("stuck", [&](Process& self) { sem.acquire(self); });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kDeadlock);
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    SimMailbox<int> box;
    std::vector<std::int64_t> trace;
    sim.spawn("a", [&](Process& self) {
      for (int i = 0; i < 50; ++i) {
        self.delay(Duration::micros(7));
        box.send(i);
        trace.push_back(self.now().to_nanos());
      }
    });
    sim.spawn("b", [&](Process& self) {
      for (int i = 0; i < 50; ++i) {
        trace.push_back(static_cast<std::int64_t>(box.recv(self)));
        self.delay(Duration::micros(3));
      }
    });
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// EventHandle semantics during the event's own callback (pinned contract:
// the event is consumed before the callback is invoked).
// ---------------------------------------------------------------------------

TEST(EventHandle, NotPendingInsideOwnCallback) {
  Simulator sim;
  EventHandle handle;
  bool checked = false;
  handle = sim.schedule_after(Duration::millis(1), [&] {
    EXPECT_FALSE(handle.pending());
    checked = true;
  });
  EXPECT_TRUE(handle.pending());
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(EventHandle, CancelInsideOwnCallbackIsNoop) {
  Simulator sim;
  EventHandle handle;
  int self_runs = 0;
  int later_runs = 0;
  handle = sim.schedule_after(Duration::millis(1), [&] {
    ++self_runs;
    handle.cancel();  // must not disturb the kernel or any other event
  });
  sim.schedule_after(Duration::millis(2), [&] { ++later_runs; });
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
  EXPECT_EQ(self_runs, 1);
  EXPECT_EQ(later_runs, 1);
}

TEST(EventHandle, RearmedFromOwnCallbackGetsFreshHandle) {
  Simulator sim;
  EventHandle handle;
  int runs = 0;
  // A self-re-arming timer: the stale handle is dead inside the callback,
  // but the re-schedule returns a live one (possibly recycling the same
  // pool slot — the generation tag must still distinguish them).
  std::function<void()> tick = [&] {
    ++runs;
    if (runs < 3) {
      handle = sim.schedule_after(Duration::millis(1), tick);
      EXPECT_TRUE(handle.pending());
    }
  };
  handle = sim.schedule_after(Duration::millis(1), tick);
  sim.run();
  EXPECT_EQ(runs, 3);
  EXPECT_FALSE(handle.pending());
}

TEST(EventHandle, StaleHandleDoesNotAliasRecycledSlot) {
  Simulator sim;
  // Schedule + cancel so the record returns to the freelist, then schedule
  // a new event that recycles the slot. The stale handle must stay dead and
  // its cancel() must not kill the new occupant.
  auto stale = sim.schedule_after(Duration::millis(1), [] { FAIL() << "cancelled event ran"; });
  stale.cancel();
  bool ran = false;
  auto fresh = sim.schedule_after(Duration::millis(2), [&] { ran = true; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // idempotent no-op, must not affect `fresh`
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(EventHandle, DefaultConstructedIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op, no crash
}

// ---------------------------------------------------------------------------
// Dead-event reclamation: cancel releases resources eagerly, and the heap
// stays O(live events) under sustained cancel/re-arm churn.
// ---------------------------------------------------------------------------

TEST(Simulator, CancelReleasesCapturedResourcesImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  // Far-future timer: with lazy reclamation its captures would be pinned
  // until the fire time is popped (or the simulator dies).
  auto handle = sim.schedule_after(Duration::secs(3600), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // capture pins it while pending
  handle.cancel();
  EXPECT_TRUE(watch.expired());  // cancel destroys the callback eagerly
  sim.run(TimePoint::origin() + Duration::secs(1));
}

TEST(Simulator, HeapStaysBoundedUnderCancelRearmChurn) {
  Simulator sim;
  constexpr int kTimers = 32;
  constexpr int kRounds = 2000;
  std::vector<EventHandle> timers(kTimers);
  std::size_t live_peak = 0;
  int rounds_done = 0;  // outside the closure: scheduling copies the function
  std::function<void()> round = [&] {
    for (auto& t : timers) {
      t.cancel();
      t = sim.schedule_after(Duration::secs(60), [] {});
    }
    live_peak = std::max(live_peak, sim.live_events());
    if (++rounds_done < kRounds) sim.schedule_after(Duration::micros(1), round);
  };
  sim.schedule_now(round);
  sim.run(TimePoint::origin() + Duration::secs(30));
  // kTimers * kRounds = 64000 cancellations; without compaction the queue
  // would hold every dead entry until its 60 s fire time.
  EXPECT_GT(sim.compactions(), 0u);
  EXPECT_LE(sim.queue_peak(), static_cast<std::size_t>(4 * kTimers + 64));
  EXPECT_LE(live_peak, static_cast<std::size_t>(kTimers + 2));
  for (auto& t : timers) t.cancel();
}

TEST(Simulator, CompactionPreservesScheduleAndTraceHash) {
  // Identical schedules, one copy driven through heavy cancel churn that
  // triggers compaction: executed events, end time, and trace hash must be
  // bit-identical (cancelled events never execute, and pop order depends
  // only on the unique (time, seq) keys).
  auto run_once = [](bool churn) {
    Simulator sim;
    std::vector<std::int64_t> fired;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_after(Duration::millis(i + 1), [&fired, &sim] {
        fired.push_back(sim.now().to_nanos());
      });
    }
    // Decoys are scheduled after every survivor so the survivors' sequence
    // numbers are identical in both runs; the decoys never execute.
    if (churn) {
      std::vector<EventHandle> decoys;
      for (int i = 0; i < 500; ++i) {
        decoys.push_back(sim.schedule_after(Duration::secs(100), [] {}));
      }
      for (auto& d : decoys) d.cancel();
    }
    const auto result = sim.run(TimePoint::origin() + Duration::secs(1));
    return std::tuple{fired, result.events_executed, sim.trace_hash()};
  };
  const auto quiet = run_once(false);
  const auto churned = run_once(true);
  EXPECT_EQ(std::get<0>(quiet), std::get<0>(churned));
  EXPECT_EQ(std::get<1>(quiet), std::get<1>(churned));
  EXPECT_EQ(std::get<2>(quiet), std::get<2>(churned));
}

// ---------------------------------------------------------------------------
// Shutdown double-release guard.
// ---------------------------------------------------------------------------

TEST(Simulator, ShutdownTwiceIsIdempotent) {
  Simulator sim;
  SimSemaphore sem(0);
  sim.spawn("stuck", [&](Process& self) { sem.acquire(self); });
  sim.run();
  sim.shutdown();
  EXPECT_EQ(sim.live_processes(), 0u);
  sim.shutdown();  // every process already kFinished: must be a no-op
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulator, ShutdownAfterNaturalFinishIsNoop) {
  Simulator sim;
  sim.spawn("quick", [](Process& self) { self.delay(Duration::millis(1)); });
  sim.run();
  EXPECT_EQ(sim.live_processes(), 0u);
  sim.shutdown();  // thread already exited; must not release its baton
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulator, ShutdownWithReadyProcessThenRunAgain) {
  Simulator sim;
  SimSemaphore sem(0);
  auto& waiter = sim.spawn("waiter", [&](Process& self) {
    sem.acquire(self);
    FAIL() << "woke after shutdown";
  });
  sim.schedule_after(Duration::millis(1), [&] { sem.release(); });
  // Stop right after the release event: the waiter is kReady with its
  // resume event still queued.
  sim.run(TimePoint::max(), 2);
  sim.shutdown();
  EXPECT_TRUE(waiter.finished());
  // The stale resume event must be inert — running again must neither hand
  // the baton to the dead thread (hang) nor crash.
  const auto result = sim.run();
  EXPECT_EQ(result.reason, StopReason::kIdle);
}

// ---------------------------------------------------------------------------
// InlineFn: the kernel's SBO callback type.
// ---------------------------------------------------------------------------

TEST(InlineFn, InvokesInlineAndBoxedCallables) {
  int small_calls = 0;
  InlineFn small([&small_calls] { ++small_calls; });
  ASSERT_TRUE(static_cast<bool>(small));
  small();
  EXPECT_EQ(small_calls, 1);

  // Oversized capture forces the heap-boxed path.
  std::array<std::uint64_t, 16> big_payload{};
  big_payload.fill(7);
  std::uint64_t sum = 0;
  InlineFn big([big_payload, &sum] { for (auto v : big_payload) sum += v; });
  big();
  EXPECT_EQ(sum, 7u * 16u);
}

TEST(InlineFn, MoveTransfersOwnershipAndResetReleases) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineFn a([token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());
  InlineFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_FALSE(watch.expired());
  b.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(b));
}

}  // namespace
}  // namespace chk::des
