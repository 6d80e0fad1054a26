// Tests for the CHK-LIB communication layer: FIFO point-to-point,
// matching, collectives, control plane, incarnation drops.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chklib/comm/comm_system.hpp"
#include "chklib/comm/typed.hpp"
#include "chklib/runtime.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"

namespace chk::chklib {
namespace {

using des::Duration;
using des::Process;
using des::Simulator;

struct Fixture {
  Simulator sim;
  xplorer::Machine machine;
  CommSystem comm;

  explicit Fixture(std::size_t nodes = 8)
      : machine(sim, [nodes] {
          xplorer::MachineConfig config;
          config.num_nodes = nodes;
          return config;
        }()),
        comm(machine) {}
};

TEST(Comm, PointToPointDelivers) {
  Fixture f;
  int got = -1;
  f.sim.spawn("tx", [&](Process& self) { send_value<int>(f.comm.endpoint(0), self, 5, 7, 42); });
  f.sim.spawn("rx", [&](Process& self) { got = recv_value<int>(f.comm.endpoint(5), self, 0, 7); });
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(f.comm.app_messages(), 1u);
}

TEST(Comm, FifoOrderPerChannel) {
  Fixture f;
  std::vector<int> got;
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < 20; ++i) send_value<int>(f.comm.endpoint(0), self, 1, 1, i);
  });
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 20; ++i) got.push_back(recv_value<int>(f.comm.endpoint(1), self, 0, 1));
  });
  f.sim.run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(Comm, TagMatchingSkipsNonMatching) {
  Fixture f;
  std::vector<int> order;
  f.sim.spawn("tx", [&](Process& self) {
    send_value<int>(f.comm.endpoint(0), self, 1, /*tag=*/10, 100);
    send_value<int>(f.comm.endpoint(0), self, 1, /*tag=*/20, 200);
  });
  f.sim.spawn("rx", [&](Process& self) {
    // Ask for tag 20 first even though tag 10 arrives first.
    order.push_back(recv_value<int>(f.comm.endpoint(1), self, kAnySource, 20));
    order.push_back(recv_value<int>(f.comm.endpoint(1), self, kAnySource, 10));
  });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{200, 100}));
}

TEST(Comm, AnySourceMatches) {
  Fixture f;
  int total = 0;
  for (Rank r = 1; r <= 3; ++r) {
    f.sim.spawn("tx", [&, r](Process& self) {
      send_value<int>(f.comm.endpoint(r), self, 0, 5, static_cast<int>(r));
    });
  }
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 3; ++i) total += recv_value<int>(f.comm.endpoint(0), self);
  });
  f.sim.run();
  EXPECT_EQ(total, 6);
}

TEST(Comm, ProbeSeesPending) {
  Fixture f;
  bool before = true, after = false;
  f.sim.spawn("rx", [&](Process& self) {
    before = f.comm.endpoint(1).probe(0, 3);
    self.delay(Duration::secs(1));  // let the message arrive
    after = f.comm.endpoint(1).probe(0, 3);
    (void)f.comm.endpoint(1).recv(self, 0, 3);
  });
  f.sim.spawn("tx", [&](Process& self) { send_value<int>(f.comm.endpoint(0), self, 1, 3, 9); });
  f.sim.run();
  EXPECT_FALSE(before);
  EXPECT_TRUE(after);
}

TEST(Comm, TransferTimeGrowsWithSize) {
  auto elapsed_for = [](std::size_t bytes) {
    Fixture f;
    double done = -1;
    f.sim.spawn("tx", [&, bytes](Process& self) {
      f.comm.endpoint(0).send(self, 7, 0, std::vector<std::byte>(bytes));
    });
    f.sim.spawn("rx", [&](Process& self) {
      (void)f.comm.endpoint(7).recv(self);
      done = self.now().to_seconds();
    });
    f.sim.run();
    return done;
  };
  const double small = elapsed_for(100);
  const double large = elapsed_for(1'000'000);
  EXPECT_GT(large, small * 10);
}

TEST(Comm, BarrierSynchronizesAllRanks) {
  Fixture f;
  std::vector<double> passed(8);
  for (Rank r = 0; r < 8; ++r) {
    f.sim.spawn("p", [&, r](Process& self) {
      self.delay(Duration::millis(static_cast<std::int64_t>(r) * 10));
      f.comm.endpoint(r).barrier(self);
      passed[r] = self.now().to_seconds();
    });
  }
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
  // nobody passes before the slowest arrival (70 ms)
  for (double t : passed) EXPECT_GE(t, 0.070);
}

TEST(Comm, BroadcastReachesEveryRank) {
  Fixture f;
  std::vector<int> got(8, -1);
  for (Rank r = 0; r < 8; ++r) {
    f.sim.spawn("p", [&, r](Process& self) {
      auto data = r == 3 ? to_bytes<int>(77) : std::vector<std::byte>{};
      got[r] = from_bytes<int>(f.comm.endpoint(r).broadcast(self, 3, std::move(data)));
    });
  }
  f.sim.run();
  for (int v : got) EXPECT_EQ(v, 77);
}

TEST(Comm, ReduceSumsContributions) {
  Fixture f;
  double at_root = -1;
  for (Rank r = 0; r < 8; ++r) {
    f.sim.spawn("p", [&, r](Process& self) {
      const double result = f.comm.endpoint(r).reduce_sum(self, 2, static_cast<double>(r + 1));
      if (r == 2) at_root = result;
    });
  }
  f.sim.run();
  EXPECT_DOUBLE_EQ(at_root, 36.0);  // 1+2+...+8
}

TEST(Comm, AllreduceGivesSameValueEverywhere) {
  Fixture f;
  std::vector<double> got(8, -1);
  for (Rank r = 0; r < 8; ++r) {
    f.sim.spawn("p", [&, r](Process& self) {
      got[r] = f.comm.endpoint(r).allreduce_sum(self, static_cast<double>(r));
    });
  }
  f.sim.run();
  for (double v : got) EXPECT_DOUBLE_EQ(v, 28.0);
}

TEST(Comm, ReduceVecSumsElementwise) {
  Fixture f(4);
  std::vector<double> at_root;
  for (Rank r = 0; r < 4; ++r) {
    f.sim.spawn("p", [&, r](Process& self) {
      auto result = f.comm.endpoint(r).reduce_sum_vec(
          self, 0, {static_cast<double>(r), 1.0});
      if (r == 0) at_root = result;
    });
  }
  f.sim.run();
  ASSERT_EQ(at_root.size(), 2u);
  EXPECT_DOUBLE_EQ(at_root[0], 6.0);
  EXPECT_DOUBLE_EQ(at_root[1], 4.0);
}

TEST(Comm, CollectivesWorkOnSingleRank) {
  Fixture f(1);
  bool done = false;
  f.sim.spawn("p", [&](Process& self) {
    f.comm.endpoint(0).barrier(self);
    EXPECT_DOUBLE_EQ(f.comm.endpoint(0).allreduce_sum(self, 5.0), 5.0);
    done = true;
  });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Comm, ControlPlaneDelivers) {
  Fixture f;
  ControlMsg got{};
  f.sim.spawn("daemon", [&](Process& self) { got = f.comm.endpoint(3).recv_control(self); });
  f.sim.schedule_now([&] {
    f.comm.send_control(0, 3, ControlMsg{ControlKind::kCkptRequest, 0, 9, 0});
  });
  f.sim.run();
  EXPECT_EQ(got.kind, ControlKind::kCkptRequest);
  EXPECT_EQ(got.epoch, 9u);
  EXPECT_EQ(f.comm.control_messages(), 1u);
}

TEST(Comm, StaleIncarnationDropped) {
  Fixture f;
  f.sim.spawn("tx", [&](Process& self) {
    send_value<int>(f.comm.endpoint(0), self, 6, 0, 1);
  });
  // Bump the incarnation while the message is in flight.
  f.sim.schedule_after(Duration::micros(100), [&] { f.comm.bump_incarnation(); });
  bool received = false;
  f.sim.spawn("rx", [&](Process& self) {
    (void)f.comm.endpoint(6).recv(self);
    received = true;
  });
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kDeadlock);  // rx waits forever
  EXPECT_FALSE(received);
  EXPECT_EQ(f.comm.dropped_stale(), 1u);
}

TEST(Comm, FlushDropsPending) {
  Fixture f;
  f.sim.spawn("tx", [&](Process& self) { send_value<int>(f.comm.endpoint(0), self, 1, 0, 5); });
  f.sim.run();
  EXPECT_EQ(f.comm.endpoint(1).pending_count(), 1u);
  f.comm.flush_all();
  EXPECT_EQ(f.comm.endpoint(1).pending_count(), 0u);
}

TEST(Comm, ReinjectedMessagesPrecedeNewArrivals) {
  Fixture f;
  std::vector<int> order;
  f.sim.spawn("rx", [&](Process& self) {
    self.delay(Duration::secs(1));
    for (int i = 0; i < 2; ++i) {
      order.push_back(recv_value<int>(f.comm.endpoint(1), self));
    }
  });
  f.sim.spawn("tx", [&](Process& self) { send_value<int>(f.comm.endpoint(0), self, 1, 0, 2); });
  f.sim.schedule_after(Duration::millis(500), [&] {
    Envelope env;
    env.src = 0;
    env.dst = 1;
    env.tag = 0;
    env.payload = to_bytes<int>(1);
    f.comm.endpoint(1).reinject({env});
  });
  f.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // reinjected message consumed first
  EXPECT_EQ(order[1], 2);
}

TEST(Comm, HookStampsAndObserves) {
  struct CountingHooks : ProtocolHooks {
    int sends = 0, arrivals = 0, delivers = 0;
    void on_send(Rank, Envelope& env) override {
      ++sends;
      env.epoch = 42;
    }
    void on_arrival(Rank, const Envelope& env) override {
      ++arrivals;
      EXPECT_EQ(env.epoch, 42u);
    }
    void on_deliver(des::Process&, Rank, const Envelope&) override { ++delivers; }
    void on_safe_point(des::Process&, Rank) override {}
  };
  Fixture f;
  CountingHooks hooks;
  f.comm.set_hooks(&hooks);
  f.sim.spawn("tx", [&](Process& self) { send_value<int>(f.comm.endpoint(0), self, 1, 0, 5); });
  f.sim.spawn("rx", [&](Process& self) { (void)f.comm.endpoint(1).recv(self); });
  f.sim.run();
  EXPECT_EQ(hooks.sends, 1);
  EXPECT_EQ(hooks.arrivals, 1);
  EXPECT_EQ(hooks.delivers, 1);
}

TEST(SeqState, ConsumptionTrackingAndDedup) {
  Fixture f;
  auto& ep = f.comm.endpoint(1);
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < 3; ++i) send_value<int>(f.comm.endpoint(0), self, 1, 0, i);
  });
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 3; ++i) (void)ep.recv(self, 0, 0);
  });
  f.sim.run();
  EXPECT_TRUE(ep.already_consumed(0, 0));
  EXPECT_TRUE(ep.already_consumed(0, 2));
  EXPECT_FALSE(ep.already_consumed(0, 3));
  // A "re-sent" duplicate of seq 1 must be dropped at arrival.
  Envelope dup;
  dup.src = 0;
  dup.dst = 1;
  dup.seq = 1;
  dup.payload = to_bytes<int>(1);
  ep.deliver(std::move(dup));
  EXPECT_EQ(ep.pending_count(), 0u);
  EXPECT_EQ(ep.duplicates_dropped(), 1u);
}

TEST(SeqState, SnapshotRestoreRoundTrip) {
  Fixture f;
  auto& ep = f.comm.endpoint(2);
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < 5; ++i) send_value<int>(f.comm.endpoint(0), self, 2, 0, i);
  });
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 5; ++i) (void)ep.recv(self, 0, 0);
    (void)ep.next_seq(7);
    (void)ep.next_seq(7);
  });
  f.sim.run();
  const ChannelSeqState snapshot = ep.seq_snapshot();
  ep.reset_seq();
  EXPECT_FALSE(ep.already_consumed(0, 0));
  ep.restore_seq(snapshot);
  EXPECT_TRUE(ep.already_consumed(0, 4));
  EXPECT_FALSE(ep.already_consumed(0, 5));
  EXPECT_EQ(ep.next_seq(7), 2u);  // send counter continues where it was
}

TEST(SeqState, OutOfOrderConsumptionTrackedExactly) {
  // Tag-selective receives can consume a channel out of order; the
  // consumed set must stay exact (prefix + exceptions).
  Fixture f;
  auto& ep = f.comm.endpoint(1);
  f.sim.spawn("tx", [&](Process& self) {
    send_value<int>(f.comm.endpoint(0), self, 1, /*tag=*/10, 0);  // seq 0
    send_value<int>(f.comm.endpoint(0), self, 1, /*tag=*/20, 1);  // seq 1
    send_value<int>(f.comm.endpoint(0), self, 1, /*tag=*/10, 2);  // seq 2
  });
  f.sim.spawn("rx", [&](Process& self) {
    self.delay(Duration::secs(1));
    (void)ep.recv(self, 0, 20);  // consumes seq 1 first
    EXPECT_TRUE(ep.already_consumed(0, 1));
    EXPECT_FALSE(ep.already_consumed(0, 0));
    (void)ep.recv(self, 0, 10);  // seq 0: prefix absorbs the exception
    EXPECT_TRUE(ep.already_consumed(0, 0));
    EXPECT_TRUE(ep.already_consumed(0, 1));
    EXPECT_FALSE(ep.already_consumed(0, 2));
    (void)ep.recv(self, 0, 10);  // seq 2
  });
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
}

TEST(Comm, LossyTrafficLightsEveryCounter) {
  // Drive enough traffic through faulted links + the reliable transport to
  // light up every statistics accessor — including the transport and
  // fault-model counters.
  Fixture f;
  LinkFaultConfig faults;
  faults.drop = 0.25;
  faults.duplicate = 0.2;
  faults.corrupt = 0.1;
  faults.delay_prob = 0.2;
  f.comm.set_link_faults(faults, util::Rng(99));  // installs the transport too
  f.comm.send_control(0, 1, ControlMsg{ControlKind::kCkptRequest, 0, 1, 0});
  std::vector<int> got;
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < 200; ++i) send_value<int>(f.comm.endpoint(0), self, 1, 1, i);
  });
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 200; ++i)
      got.push_back(recv_value<int>(f.comm.endpoint(1), self, 0, 1));
  });
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
  ASSERT_EQ(got.size(), 200u);  // exactly-once FIFO in spite of the weather
  for (int i = 0; i < 200; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);

  EXPECT_GT(f.comm.app_messages(), 0u);
  EXPECT_GT(f.comm.app_bytes(), 0u);
  EXPECT_GT(f.comm.control_messages(), 0u);
  EXPECT_GT(f.comm.control_bytes(), 0u);
  EXPECT_GT(f.comm.retransmits(), 0u);
  EXPECT_GT(f.comm.dups_suppressed(), 0u);
  EXPECT_GT(f.comm.corrupt_detected(), 0u);
  EXPECT_GT(f.comm.link_drops(), 0u);
  EXPECT_GT(f.comm.link_duplicates(), 0u);
  EXPECT_GT(f.comm.link_corrupted(), 0u);
  EXPECT_GT(f.comm.link_delayed(), 0u);
}

TEST(Comm, TransportPreservesFifoUnderReordering) {
  // Delay-only faults (no loss): frames overtake each other on the wire,
  // and the transport's sequence numbers must put them back in order.
  Fixture f;
  LinkFaultConfig faults;
  faults.delay_prob = 0.5;
  f.comm.set_link_faults(faults, util::Rng(7));
  ASSERT_NE(f.comm.transport(), nullptr) << "lossy links must ride the transport";
  std::vector<int> got;
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < 100; ++i) send_value<int>(f.comm.endpoint(2), self, 6, 1, i);
  });
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < 100; ++i)
      got.push_back(recv_value<int>(f.comm.endpoint(6), self, 2, 1));
  });
  f.sim.run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_GT(f.comm.link_delayed(), 0u);
}

TEST(Comm, DeterministicByteTotals) {
  auto run_once = [] {
    Fixture f;
    for (Rank r = 0; r < 8; ++r) {
      f.sim.spawn("p", [&f, r](Process& self) {
        for (int i = 0; i < 10; ++i) {
          f.comm.endpoint(r).send(self, (r + 1) % 8, 0, std::vector<std::byte>(100));
          (void)f.comm.endpoint(r).recv(self);
        }
      });
    }
    f.sim.run();
    return std::pair{f.sim.now().to_nanos(), f.comm.app_bytes()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Comm, AckChurnKeepsEventQueueBounded) {
  // Regression for dead-event heap bloat: every cumulative ack cancels the
  // link's armed RTO timer and re-arms it while frames are in flight, so a
  // long ping-style exchange manufactures one dead 50 ms timer entry per
  // message. The kernel must reclaim them as it goes — the queue high-water
  // mark has to track the handful of live events, not the cancellation
  // history.
  Fixture f(2);
  f.comm.enable_transport();
  constexpr int kMessages = 2000;
  f.sim.spawn("tx", [&](Process& self) {
    for (int i = 0; i < kMessages; ++i) {
      send_value<int>(f.comm.endpoint(0), self, 1, 7, i);
      // Pace the sends so each message is acked before the next leaves:
      // in-flight stays O(1) while the RTO churn accumulates.
      self.delay(Duration::micros(10));
    }
  });
  int got = 0;
  f.sim.spawn("rx", [&](Process& self) {
    for (int i = 0; i < kMessages; ++i) {
      if (recv_value<int>(f.comm.endpoint(1), self, 0, 7) == i) ++got;
    }
  });
  const auto result = f.sim.run();
  EXPECT_EQ(result.reason, des::StopReason::kIdle);
  EXPECT_EQ(got, kMessages);

  const TransportStats& stats = f.comm.transport()->stats();
  // The exchange finishes in ~20 ms of simulated time — well inside the
  // 50 ms RTO — so every cancelled timer would linger to the end of the
  // run without reclamation.
  EXPECT_GE(stats.rto_cancelled, static_cast<std::uint64_t>(kMessages) / 2);
  EXPECT_LE(stats.rto_cancelled, stats.rto_armed);
  EXPECT_GT(f.sim.compactions(), 0u);
  // Live events per message are a small constant (frame hop, ack hop, RTO
  // timer, sender delay); the bound is the compaction floor plus slack —
  // far below the ~2000 dead entries an unreclaimed heap would hold.
  EXPECT_LE(f.sim.queue_peak(), 512u);
}

}  // namespace
}  // namespace chk::chklib
