// Integration tests for the checkpointing protocols on a toy ring
// application: commit rounds, epochs, storage footprints, induced
// checkpoints, blocking windows, staggering, and full failure/recovery
// round-trips with bit-exact result verification.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "chklib/proto/coordinated.hpp"
#include "chklib/proto/independent.hpp"
#include "chklib/recovery/manager.hpp"
#include "chklib/runtime.hpp"
#include "des/simulator.hpp"

namespace chk::chklib {
namespace {

using des::Duration;

// Toy SPMD ring application: each iteration computes, sends the iteration
// number to the right neighbour and accumulates the value received from
// the left. The final digest is deterministic and sensitive to any lost,
// duplicated or reordered message — ideal for recovery verification.
struct RingState {
  std::uint32_t iter = 0;
  std::uint64_t acc = 0;
};

AppFn make_ring_app(std::uint32_t iterations, double flops_per_iter) {
  return [iterations, flops_per_iter](AppContext& ctx) {
    auto& st = ctx.state<RingState>();
    if (ctx.fresh()) st = RingState{};
    ctx.register_value("iter", st.iter);
    ctx.register_value("acc", st.acc);
    ctx.ready();
    const Rank right = (ctx.rank() + 1) % ctx.nprocs();
    for (; st.iter < iterations; ++st.iter) {
      ctx.checkpoint_here();
      ctx.compute(flops_per_iter);
      ctx.send_value<std::uint32_t>(right, 1, st.iter);
      st.acc += ctx.recv_value<std::uint32_t>(kAnySource, 1);
    }
    const double digest = ctx.allreduce_sum(static_cast<double>(st.acc) +
                                            static_cast<double>(ctx.rank()));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

struct World {
  des::Simulator sim;
  std::unique_ptr<Runtime> rt;

  explicit World(std::size_t nodes = 8, std::uint64_t seed = 42) {
    xplorer::MachineConfig mc;
    mc.num_nodes = nodes;
    rt = std::make_unique<Runtime>(sim, mc, seed);
  }
};

double normal_digest(std::uint32_t iterations, double flops) {
  World w;
  w.rt->set_app("ring", make_ring_app(iterations, flops));
  w.rt->start_apps();
  w.rt->run_to_completion();
  return w.rt->result_digest().value();
}

TEST(Baseline, RingAppCompletesAndIsDeterministic) {
  const double a = normal_digest(50, 1e5);
  const double b = normal_digest(50, 1e5);
  EXPECT_EQ(a, b);
  // analytic check: every rank accumulates sum 0..49 of neighbour iters
  // plus its own rank; allreduce over 8 ranks.
  const double expected = 8.0 * (50.0 * 49.0 / 2.0) + 28.0;
  EXPECT_DOUBLE_EQ(a, expected);
}

TEST(Coordinated, CommitsRequestedRounds) {
  World w;
  // ~0.14s per iteration on the T805 model; 200 iterations ~ 30s or so.
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                    .interval = Duration::secs(8),
                                    .rounds = 3});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_EQ(proto.committed_epoch(), 3u);
  EXPECT_EQ(proto.stats().committed_rounds, 3u);
  EXPECT_EQ(proto.stats().local_checkpoints, 3u * 8u);
  // all ranks ended on the same epoch
  for (Rank r = 0; r < 8; ++r) EXPECT_EQ(proto.epoch_of(r), 3u);
  // commit GC keeps only the newest epoch per rank
  for (Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(w.rt->store().saved_indices(r), (std::vector<std::uint32_t>{3}));
  }
  // synchronization used control messages, but not absurdly many:
  // request+marker*(N-1)+ack+commit per rank per round, plus slack.
  EXPECT_GT(w.rt->comm().control_messages(), 0u);
  EXPECT_LT(w.rt->comm().control_messages(), 3u * 8u * 12u);
}

TEST(Coordinated, CheckpointingAddsOverheadAndNbmReducesIt) {
  auto run_with = [](Scheme scheme) {
    World w;
    w.rt->set_app("ring", make_ring_app(200, 1e5));
    std::unique_ptr<CoordinatedProtocol> proto;
    if (scheme != Scheme::kNone) {
      proto = std::make_unique<CoordinatedProtocol>(
          *w.rt, CoordinatedProtocol::Config{.scheme = scheme,
                                             .interval = Duration::secs(8),
                                             .rounds = 3});
      proto->start();
    }
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->apps_finished_at().to_seconds();
  };
  const double normal = run_with(Scheme::kNone);
  const double nb = run_with(Scheme::kCoordNB);
  const double nbm = run_with(Scheme::kCoordNBM);
  EXPECT_GT(nb, normal);
  EXPECT_GT(nbm, normal);
  EXPECT_LT(nbm, nb);  // main-memory checkpointing shrinks the window
}

TEST(Coordinated, ResultUnchangedByCheckpointing) {
  const double expected = normal_digest(120, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(120, 1e5));
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNBMS,
                                    .interval = Duration::secs(5),
                                    .rounds = 3});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

TEST(Coordinated, CaptureDeferredToSafePoint) {
  // A checkpoint request marks the capture pending; the application takes
  // it at its next declared safe point, not at an arbitrary instant.
  World w;
  w.rt->set_app("ring", make_ring_app(100, 1e6));  // ~1.4 s per iteration
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                    .interval = Duration::secs(5),
                                    .rounds = 1});
  proto.start();
  w.rt->start_apps();
  // Just after the request lands, the capture is pending but not yet taken
  // (every rank is mid-iteration).
  w.sim.run(des::TimePoint::origin() + Duration::millis(5'100));
  EXPECT_EQ(proto.pending_epoch_of(0), 1u);
  std::size_t captured = 0;
  for (Rank r = 0; r < 8; ++r) captured += (proto.epoch_of(r) == 1u);
  EXPECT_LT(captured, 8u);
  // Within roughly one iteration, every rank reaches its safe point.
  w.sim.run(des::TimePoint::origin() + Duration::secs(10));
  for (Rank r = 0; r < 8; ++r) EXPECT_EQ(proto.epoch_of(r), 1u);
  w.rt->run_to_completion();
  EXPECT_EQ(proto.committed_epoch(), 1u);
}

TEST(Coordinated, MarkerCatchesUpPendingEpoch) {
  // A marker from a peer that already checkpointed must make the local
  // agent catch up even if the coordinator's request is still in flight.
  World w;
  w.rt->set_app("ring", make_ring_app(50, 1e5));
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                    .interval = Duration::secs(1000),  // never fires
                                    .rounds = 1});
  proto.start();
  w.sim.schedule_after(Duration::secs(1), [&] {
    w.rt->comm().send_control(1, 0, ControlMsg{ControlKind::kChannelMarker, 1, 3, 0});
  });
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_GE(proto.epoch_of(0), 3u);
}

TEST(Coordinated, StaggeringSerializesBackgroundWrites) {
  auto disk_wait = [](Scheme scheme) {
    World w;
    w.rt->set_app("ring", make_ring_app(300, 2e5));
    CoordinatedProtocol proto(*w.rt, {.scheme = scheme,
                                      .interval = Duration::secs(20),
                                      .rounds = 2});
    proto.start();
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->machine().storage().disk().wait_time().to_seconds();
  };
  // With staggering, writes arrive at the disk one at a time: queueing
  // time at the disk collapses.
  EXPECT_LT(disk_wait(Scheme::kCoordNBMS), disk_wait(Scheme::kCoordNBM) * 0.5);
}

TEST(Coordinated, RecoveryReproducesResult) {
  const double expected = normal_digest(200, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                    .interval = Duration::secs(6),
                                    .rounds = 0});  // checkpoint until done
  RecoveryManager recovery(*w.rt, proto);
  proto.start();
  recovery.inject_failure_at(des::TimePoint::origin() + Duration::secs(15), 3);
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_EQ(recovery.reports().size(), 1u);
  const auto& report = recovery.reports()[0];
  EXPECT_FALSE(report.rolled_to_origin);  // at least one epoch committed by 15s
  EXPECT_GT(report.recovery_latency.to_seconds(), 0.0);
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

TEST(Coordinated, RecoveryBeforeFirstCommitRestartsFromOrigin) {
  const double expected = normal_digest(60, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(60, 1e5));
  CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNB,
                                    .interval = Duration::secs(500),
                                    .rounds = 1});
  RecoveryManager recovery(*w.rt, proto);
  proto.start();
  recovery.inject_failure_at(des::TimePoint::origin() + Duration::secs(3), 0);
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_EQ(recovery.reports().size(), 1u);
  EXPECT_TRUE(recovery.reports()[0].rolled_to_origin);
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

TEST(Independent, EachRankSavesItsCheckpoints) {
  World w;
  w.rt->set_app("ring", make_ring_app(220, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(7),
                                    .count = 3});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_EQ(proto.stats().local_checkpoints, 3u * 8u);
  for (Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(w.rt->store().saved_indices(r),
              (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(proto.intervals_of(r), 3u);
  }
  // no synchronization at all
  EXPECT_EQ(w.rt->comm().control_messages(), 0u);
  // storage holds 3 generations (vs 1 for coordinated): the paper's
  // storage-overhead argument.
  EXPECT_EQ(w.rt->store().checkpoint_count(), 24u);
}

TEST(Independent, ResultUnchangedByCheckpointing) {
  const double expected = normal_digest(120, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(120, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndepM,
                                    .interval = Duration::secs(5),
                                    .count = 3});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

TEST(Independent, DominoRecoveryStillCorrect) {
  // Tightly-coupled ring + unsynchronized checkpoints: the strict line
  // collapses to the origin (domino effect), and the rerun must still
  // produce the exact result.
  const double expected = normal_digest(150, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(150, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(6),
                                    .count = 2});
  RecoveryManager recovery(*w.rt, proto);
  proto.start();
  recovery.inject_failure_at(des::TimePoint::origin() + Duration::secs(16), 5);
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_EQ(recovery.reports().size(), 1u);
  EXPECT_TRUE(recovery.reports()[0].rolled_to_origin);  // domino
  EXPECT_GT(recovery.reports()[0].rollback_distance[5].to_seconds(), 10.0);
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

// A communication-free application: independent checkpoints form a
// consistent line trivially, so recovery does NOT domino.
AppFn make_silent_app(std::uint32_t iterations, double flops) {
  return [iterations, flops](AppContext& ctx) {
    auto& st = ctx.state<RingState>();
    if (ctx.fresh()) st = RingState{};
    ctx.register_value("iter", st.iter);
    ctx.register_value("acc", st.acc);
    ctx.ready();
    for (; st.iter < iterations; ++st.iter) {
      ctx.checkpoint_here();
      ctx.compute(flops);
      st.acc += st.iter;
    }
    const double digest = ctx.allreduce_sum(static_cast<double>(st.acc));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

TEST(Independent, LooselyCoupledAppAvoidsDomino) {
  World w;
  w.rt->set_app("silent", make_silent_app(300, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(10),
                                    .count = 2});
  RecoveryManager recovery(*w.rt, proto);
  proto.start();
  recovery.inject_failure_at(des::TimePoint::origin() + Duration::secs(25), 2);
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_EQ(recovery.reports().size(), 1u);
  const auto& report = recovery.reports()[0];
  EXPECT_FALSE(report.rolled_to_origin);
  for (Rank r = 0; r < 8; ++r) EXPECT_GE(report.line.index[r], 1u);
  // the rollback lost less work than a full restart would have
  EXPECT_LT(report.rollback_distance[2].to_seconds(), 25.0);
}

TEST(Independent, GcReclaimsWhenLineAdvances) {
  World w;
  w.rt->set_app("silent", make_silent_app(400, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(10),
                                    .count = 4,
                                    .gc = true,
                                    .gc_mode = LineMode::kStrict});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_GT(proto.stats().gc_reclaimed, 0u);
  // only the newest generation survives per rank
  for (Rank r = 0; r < 8; ++r) {
    EXPECT_EQ(w.rt->store().saved_indices(r).size(), 1u);
  }
}

TEST(Independent, GcCannotReclaimUnderHeavyCoupling) {
  World w;
  w.rt->set_app("ring", make_ring_app(300, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(8),
                                    .count = 3,
                                    .gc = true,
                                    .gc_mode = LineMode::kStrict});
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  // the strict line stays pinned at the origin, so nothing is collectable:
  // the paper's "large storage overhead even with garbage collection".
  EXPECT_EQ(proto.stats().gc_reclaimed, 0u);
  EXPECT_EQ(w.rt->store().checkpoint_count(), 24u);
}

TEST(Independent, MessageLoggingDefeatsTheDomino) {
  // The paper's §1 remedy: with pessimistic sender logging, the recovery
  // line only needs to be orphan-free; lost in-transit messages are
  // replayed from the logs, so the tightly coupled ring no longer rolls
  // back to the origin — and the result is still bit-exact.
  const double expected = normal_digest(150, 1e5);
  World w;
  w.rt->set_app("ring", make_ring_app(150, 1e5));
  IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                    .interval = Duration::secs(6),
                                    .count = 0,
                                    .message_logging = true});
  RecoveryManager recovery(*w.rt, proto);
  proto.start();
  recovery.inject_failure_at(des::TimePoint::origin() + Duration::secs(16), 5);
  w.rt->start_apps();
  w.rt->run_to_completion();
  ASSERT_EQ(recovery.reports().size(), 1u);
  const auto& report = recovery.reports()[0];
  EXPECT_FALSE(report.rolled_to_origin);  // contrast: DominoRecoveryStillCorrect
  for (Rank r = 0; r < 8; ++r) EXPECT_GE(report.line.index[r], 1u);
  EXPECT_EQ(w.rt->result_digest().value(), expected);
}

TEST(Independent, MessageLoggingCostsStorage) {
  auto bytes_with = [](bool logging) {
    World w;
    w.rt->set_app("ring", make_ring_app(200, 1e5));
    IndependentProtocol proto(*w.rt, {.scheme = Scheme::kIndep,
                                      .interval = Duration::secs(7),
                                      .count = 3,
                                      .message_logging = logging});
    proto.start();
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->machine().storage().bytes_written();
  };
  EXPECT_GT(bytes_with(true), bytes_with(false));
}

TEST(Independent, StaggeredVariantSerializesDiskWrites) {
  auto disk_wait = [](Scheme scheme) {
    World w;
    w.rt->set_app("ring", make_ring_app(300, 2e5));
    IndependentProtocol proto(*w.rt, {.scheme = scheme,
                                      .interval = Duration::secs(15),
                                      .count = 2});
    proto.start();
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->machine().storage().disk().wait_time().to_seconds();
  };
  EXPECT_LE(disk_wait(Scheme::kIndepMS), disk_wait(Scheme::kIndepM));
}

// Randomized-pattern application: every iteration the ranks pair up
// according to a deterministic shuffle of the iteration number and
// exchange random-sized payloads; receivers fold the bytes into an
// accumulator. Any lost, duplicated or reordered message after a rollback
// changes the digest.
AppFn make_random_pairs_app(std::uint32_t iterations, std::uint64_t pattern_seed) {
  return [iterations, pattern_seed](AppContext& ctx) {
    struct State {
      std::uint32_t iter = 0;
      std::uint64_t acc = 0;
      util::Rng rng;
    };
    auto& st = ctx.state<State>();
    if (ctx.fresh()) {
      st.iter = 0;
      st.acc = 0;
      st.rng = util::Rng(pattern_seed).fork(ctx.rank());
    }
    ctx.register_value("iter", st.iter);
    ctx.register_value("acc", st.acc);
    ctx.register_value("rng", st.rng);
    ctx.ready();
    const auto n = ctx.nprocs();
    for (; st.iter < iterations; ++st.iter) {
      ctx.checkpoint_here();
      ctx.compute(5e4);
      // Deterministic perfect matching for this iteration, identical on
      // every rank: Fisher-Yates with an iteration-seeded stream.
      std::vector<Rank> order(n);
      for (Rank r = 0; r < n; ++r) order[r] = r;
      util::Rng shuffle(pattern_seed ^ (0x9e37u + st.iter));
      for (std::size_t i = n - 1; i > 0; --i) {
        std::swap(order[i], order[shuffle.uniform_u64(i + 1)]);
      }
      Rank partner = ctx.rank();
      for (std::size_t i = 0; i + 1 < n; i += 2) {
        if (order[i] == ctx.rank()) partner = order[i + 1];
        if (order[i + 1] == ctx.rank()) partner = order[i];
      }
      if (partner == ctx.rank()) continue;  // odd rank count: sit out
      const auto size = 1 + st.rng.uniform_u64(4096);
      std::vector<std::byte> payload(size);
      for (auto& b : payload) b = static_cast<std::byte>(st.rng() & 0xff);
      ctx.send(partner, 7, std::move(payload));
      const auto got = ctx.recv(static_cast<int>(partner), 7);
      for (std::byte b : got.payload) st.acc += static_cast<std::uint64_t>(b) + 1;
    }
    const double digest = ctx.allreduce_sum(static_cast<double>(st.acc % 1000003));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

class RandomPatternRecovery
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(RandomPatternRecovery, DigestSurvivesFailure) {
  const auto [scheme, seed] = GetParam();
  auto run = [&](bool with_failure) {
    World w(8, seed);
    w.rt->set_app("randpairs", make_random_pairs_app(120, seed * 31 + 7));
    std::unique_ptr<Protocol> proto;
    std::unique_ptr<RecoveryManager> recovery;
    if (is_coordinated(scheme)) {
      proto = std::make_unique<CoordinatedProtocol>(
          *w.rt, CoordinatedProtocol::Config{.scheme = scheme,
                                             .interval = Duration::secs(3),
                                             .rounds = 0});
    } else {
      proto = std::make_unique<IndependentProtocol>(
          *w.rt, IndependentProtocol::Config{.scheme = scheme,
                                             .interval = Duration::secs(3),
                                             .count = 0});
    }
    proto->start();
    if (with_failure) {
      recovery = std::make_unique<RecoveryManager>(*w.rt, *proto);
      recovery->inject_failure_at(
          des::TimePoint::origin() + Duration::millis(7000 + 100 * static_cast<int>(seed)),
          static_cast<Rank>(seed % 8));
    }
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->result_digest().value();
  };
  EXPECT_EQ(run(true), run(false)) << to_string(scheme) << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomPatternRecovery,
    ::testing::Combine(::testing::Values(Scheme::kCoordNB, Scheme::kCoordNBMS,
                                         Scheme::kIndep, Scheme::kIndepM),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, std::uint64_t>>& param_info) {
      std::string name(to_string(std::get<0>(param_info.param)));
      for (char& c : name) {
        if (c == '_') c = '0';
      }
      return name + "s" + std::to_string(std::get<1>(param_info.param));
    });

// Collective-heavy application: barrier + rotating-root broadcast +
// allreduce every iteration. Collectives are built from tagged
// point-to-point messages, so a checkpoint cut that lands between their
// phases stresses the channel-log/replay machinery hardest.
AppFn make_collective_app(std::uint32_t iterations) {
  return [iterations](AppContext& ctx) {
    struct State {
      std::uint32_t iter = 0;
      double acc = 0;
    };
    auto& st = ctx.state<State>();
    if (ctx.fresh()) st = State{};
    ctx.register_value("iter", st.iter);
    ctx.register_value("acc", st.acc);
    ctx.ready();
    for (; st.iter < iterations; ++st.iter) {
      ctx.checkpoint_here();
      ctx.compute(8e4);
      ctx.barrier();
      const Rank root = st.iter % ctx.nprocs();
      auto data = ctx.rank() == root
                      ? chklib::to_bytes<double>(static_cast<double>(st.iter))
                      : std::vector<std::byte>{};
      const double got = chklib::from_bytes<double>(ctx.broadcast(root, std::move(data)));
      st.acc += ctx.allreduce_sum(got + static_cast<double>(ctx.rank()));
    }
    if (ctx.rank() == 0) ctx.report_result(st.acc);
  };
}

TEST(Collectives, SurviveCheckpointingAndFailure) {
  auto run = [](Scheme scheme, bool fail) {
    World w;
    w.rt->set_app("coll", make_collective_app(60));
    std::unique_ptr<Protocol> proto;
    std::unique_ptr<RecoveryManager> recovery;
    if (scheme != Scheme::kNone) {
      if (is_coordinated(scheme)) {
        proto = std::make_unique<CoordinatedProtocol>(
            *w.rt, CoordinatedProtocol::Config{.scheme = scheme,
                                               .interval = Duration::secs(4),
                                               .rounds = 0});
      } else {
        proto = std::make_unique<IndependentProtocol>(
            *w.rt, IndependentProtocol::Config{.scheme = scheme,
                                               .interval = Duration::secs(4),
                                               .count = 0});
      }
      proto->start();
      if (fail) {
        recovery = std::make_unique<RecoveryManager>(*w.rt, *proto);
        recovery->inject_failure_at(des::TimePoint::origin() + Duration::secs(11), 2);
      }
    }
    w.rt->start_apps();
    w.rt->run_to_completion();
    return w.rt->result_digest().value();
  };
  const double expected = run(Scheme::kNone, false);
  EXPECT_EQ(run(Scheme::kCoordNB, false), expected);
  EXPECT_EQ(run(Scheme::kCoordNB, true), expected);
  EXPECT_EQ(run(Scheme::kCoordNBMS, true), expected);
  EXPECT_EQ(run(Scheme::kIndep, true), expected);
  EXPECT_EQ(run(Scheme::kIndepM, true), expected);
}

TEST(Protocols, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(8, 7);
    w.rt->set_app("ring", make_ring_app(150, 1e5));
    CoordinatedProtocol proto(*w.rt, {.scheme = Scheme::kCoordNBMS,
                                      .interval = Duration::secs(6),
                                      .rounds = 3});
    proto.start();
    w.rt->start_apps();
    w.rt->run_to_completion();
    return std::pair{w.rt->apps_finished_at().to_nanos(), w.rt->result_digest().value()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace chk::chklib
