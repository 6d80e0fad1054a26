// Tests for the verify/ protocol-invariant subsystem.
//
//   * clean runs: every checkpointing scheme runs a reduced app catalog
//     under the invariant monitor with zero violations;
//   * positive controls: a deliberately broken protocol (a pre-epoch
//     message leaked past the coordinated channel marker), reordered
//     channel deliveries and unserialized stable-storage writes are each
//     caught by their checker;
//   * checkpoint image integrity: serialized images/logs are checksummed
//     and corruption or truncation is rejected on load;
//   * DES determinism: identical configs produce identical event-trace
//     hashes, different seeds do not;
//   * recovery-line oracle: the brute-force enumeration agrees with the
//     production fixpoint on randomized histories in both line modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/gauss.hpp"
#include "apps/ising.hpp"
#include "apps/nbody.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "chklib/comm/hooks.hpp"
#include "chklib/proto/coordinated.hpp"
#include "chklib/runtime.hpp"
#include "chklib/verify/monitor.hpp"
#include "chklib/verify/oracle.hpp"
#include "des/simulator.hpp"
#include "harness/experiment.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace chk {
namespace {

using chklib::Envelope;
using chklib::LineMode;
using chklib::ProcessHistory;
using chklib::Rank;
using chklib::RecvRecord;
using chklib::Scheme;
using chklib::SendRecord;
using chklib::verify::Monitor;
using chklib::verify::Policy;
using des::Duration;

// ---------------------------------------------------------------------------
// Clean runs: the full scheme set over a reduced app catalog, monitored.
// ---------------------------------------------------------------------------

struct CatalogEntry {
  const char* label;
  chklib::AppFn app;
};

std::vector<CatalogEntry> small_catalog() {
  std::vector<CatalogEntry> entries;
  entries.push_back({"SOR", apps::make_sor({.n = 64, .iterations = 40})});
  entries.push_back({"ISING", apps::make_ising({.n = 48, .sweeps = 20})});
  entries.push_back({"GAUSS", apps::make_gauss({.n = 96})});
  entries.push_back({"ASP", apps::make_asp({.n = 48})});
  entries.push_back({"NBODY", apps::make_nbody({.bodies = 96, .steps = 10})});
  entries.push_back({"TSP", apps::make_tsp({.cities = 10})});
  entries.push_back({"NQUEENS", apps::make_nqueens({.n = 9})});
  return entries;
}

TEST(MonitorSweep, EverySchemeRunsTheCatalogWithZeroViolations) {
  const Scheme schemes[] = {Scheme::kCoordNB, Scheme::kCoordNBM, Scheme::kCoordNBMS,
                            Scheme::kIndep, Scheme::kIndepM};
  for (const auto& entry : small_catalog()) {
    harness::ExperimentConfig config;
    config.label = entry.label;
    config.app = entry.app;
    config.verify = true;
    const auto normal = harness::run_normal(config);
    ASSERT_TRUE(normal.digest.has_value()) << entry.label;
    EXPECT_GT(normal.invariant_checks, 0u) << entry.label;
    EXPECT_EQ(normal.invariant_violations, 0u) << entry.label;

    config.interval = Duration::seconds(normal.exec_time_s / 3.0);
    config.checkpoints = 2;
    for (Scheme scheme : schemes) {
      config.scheme = scheme;
      const auto result = harness::run_experiment(config);
      const std::string what =
          std::string(entry.label) + " + " + std::string(to_string(scheme));
      EXPECT_EQ(result.digest, normal.digest) << what;
      EXPECT_GT(result.local_checkpoints, 0u) << what;
      EXPECT_GT(result.invariant_checks, 0u) << what;
      EXPECT_EQ(result.invariant_violations, 0u) << what;
      EXPECT_EQ(result.messages_in_flight_at_end, 0u) << what;
    }
  }
}

TEST(MonitorSweep, AblationSchemesAreCleanToo) {
  harness::ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.interval = Duration::millis(200);
  config.checkpoints = 2;
  config.verify = true;
  for (Scheme scheme : {Scheme::kCoordNBS, Scheme::kIndepMS}) {
    config.scheme = scheme;
    const auto result = harness::run_experiment(config);
    EXPECT_GT(result.local_checkpoints, 0u) << to_string(scheme);
    EXPECT_GT(result.invariant_checks, 0u) << to_string(scheme);
    EXPECT_EQ(result.invariant_violations, 0u) << to_string(scheme);
  }
}

// ---------------------------------------------------------------------------
// Positive controls: break the protocol, expect the checker to fire.
// ---------------------------------------------------------------------------

// Toy SPMD ring application (same shape as proto_test's): deterministic,
// message-per-iteration, digest-sensitive to any channel anomaly.
struct RingState {
  std::uint32_t iter = 0;
  std::uint64_t acc = 0;
};

chklib::AppFn make_ring_app(std::uint32_t iterations, double flops_per_iter) {
  return [iterations, flops_per_iter](chklib::AppContext& ctx) {
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
      st.acc += ctx.recv_value<std::uint32_t>(chklib::kAnySource, 1);
    }
    const double digest = ctx.allreduce_sum(static_cast<double>(st.acc) +
                                            static_cast<double>(ctx.rank()));
    if (ctx.rank() == 0) ctx.report_result(digest);
  };
}

struct World {
  des::Simulator sim;
  std::unique_ptr<chklib::Runtime> rt;

  explicit World(std::size_t nodes = 8, std::uint64_t seed = 42) {
    auto mc = xplorer::MachineConfig::parsytec_xplorer();
    mc.num_nodes = nodes;
    rt = std::make_unique<chklib::Runtime>(sim, mc, seed);
  }
};

std::uint64_t count_checker(const Monitor& monitor, std::string_view checker) {
  const auto& violations = monitor.sink().violations();
  return static_cast<std::uint64_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const auto& v) { return v.checker == checker; }));
}

/// A sabotaged protocol: forwards everything to the real one, but re-stamps
/// post-checkpoint messages with the previous epoch — exactly the traffic a
/// correct coordinated protocol guarantees can never arrive after the
/// channel marker.
class LeakyHooks final : public chklib::ProtocolHooks {
 public:
  explicit LeakyHooks(chklib::ProtocolHooks* inner) : inner_(inner) {}

  void on_send(Rank src, Envelope& env) override {
    inner_->on_send(src, env);
    if (env.epoch > 0) --env.epoch;
  }
  void on_arrival(Rank dst, const Envelope& env) override { inner_->on_arrival(dst, env); }
  void on_deliver(des::Process& self, Rank dst, const Envelope& env) override {
    inner_->on_deliver(self, dst, env);
  }

 private:
  chklib::ProtocolHooks* inner_;
};

TEST(Quiescence, MessageLeakedAcrossTheFreezeGateIsCaught) {
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  chklib::CoordinatedProtocol proto(
      *w.rt, {.scheme = Scheme::kCoordNB, .interval = Duration::secs(8), .rounds = 2});
  Monitor monitor(*w.rt, Monitor::options_for(Scheme::kCoordNB, Policy::kRecord));
  monitor.install();
  proto.start();
  LeakyHooks leaky(w.rt->comm().hooks());
  w.rt->comm().set_hooks(&leaky);
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_GT(monitor.violations(), 0u);
  EXPECT_GT(count_checker(monitor, "quiescence"), 0u)
      << "the leaked pre-epoch arrival was not flagged";
}

TEST(Quiescence, CorrectProtocolHasNoViolations) {
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  chklib::CoordinatedProtocol proto(
      *w.rt, {.scheme = Scheme::kCoordNB, .interval = Duration::secs(8), .rounds = 2});
  Monitor monitor(*w.rt, Monitor::options_for(Scheme::kCoordNB, Policy::kRecord));
  monitor.install();
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_GT(monitor.checks(), 0u);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_EQ(monitor.in_flight(), 0u);
}

TEST(Fifo, ReorderedArrivalIsCaught) {
  World w;
  Monitor monitor(*w.rt, Monitor::options_for(Scheme::kNone, Policy::kRecord));
  monitor.install();
  auto make_env = [](std::uint64_t seq) {
    Envelope env;
    env.src = 0;
    env.dst = 1;
    env.tag = 7;
    env.seq = seq;
    return env;
  };
  w.rt->comm().endpoint(1).deliver(make_env(5));
  w.rt->comm().endpoint(1).deliver(make_env(3));  // older than what arrived
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.sink().violations()[0].checker, "fifo");
}

TEST(Fifo, GapInTheArrivalStreamIsCaught) {
  World w;
  Monitor monitor(*w.rt, Monitor::options_for(Scheme::kNone, Policy::kRecord));
  monitor.install();
  auto make_env = [](std::uint64_t seq) {
    Envelope env;
    env.src = 2;
    env.dst = 4;
    env.seq = seq;
    return env;
  };
  w.rt->comm().endpoint(4).deliver(make_env(0));
  w.rt->comm().endpoint(4).deliver(make_env(2));  // seq 1 vanished
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.sink().violations()[0].checker, "fifo");
  EXPECT_NE(monitor.sink().violations()[0].message.find("lost"), std::string::npos);
}

TEST(Stagger, OverlappingBackgroundWritesAreCaughtWhenArmed) {
  // Coord_NBM buffers in memory and writes in the background WITHOUT
  // staggering, so with 8 ranks checkpointing in the same round the write
  // windows overlap. Arming the stagger checker against it must fire —
  // which is exactly why options_for() only arms it for the *S schemes
  // (the sweep above proves those stay clean).
  World w;
  w.rt->set_app("ring", make_ring_app(200, 1e5));
  chklib::CoordinatedProtocol proto(
      *w.rt, {.scheme = Scheme::kCoordNBM, .interval = Duration::secs(8), .rounds = 2});
  auto options = Monitor::options_for(Scheme::kCoordNBM, Policy::kRecord);
  options.check_stagger = true;
  Monitor monitor(*w.rt, options);
  monitor.install();
  proto.start();
  w.rt->start_apps();
  w.rt->run_to_completion();
  EXPECT_GT(count_checker(monitor, "stagger"), 0u);
}

// ---------------------------------------------------------------------------
// Recovery runs under the monitor.
// ---------------------------------------------------------------------------

harness::ExperimentConfig monitored_sor(Scheme scheme) {
  harness::ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.interval = Duration::millis(200);
  config.checkpoints = 0;
  config.verify = true;
  return config;
}

TEST(MonitorRecovery, CoordinatedFailureRunIsClean) {
  const auto normal = harness::run_normal(monitored_sor(Scheme::kNone));
  auto config = monitored_sor(Scheme::kCoordNB);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + Duration::seconds(normal.exec_time_s * 0.55), 6};
  const auto result = harness::run_experiment(config);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_EQ(result.digest, normal.digest);
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);
}

TEST(MonitorRecovery, LoggedIndependentFailureRunIsClean) {
  const auto normal = harness::run_normal(monitored_sor(Scheme::kNone));
  auto config = monitored_sor(Scheme::kIndepM);
  config.message_logging = true;
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + Duration::seconds(normal.exec_time_s * 0.55), 6};
  const auto result = harness::run_experiment(config);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_EQ(result.digest, normal.digest);
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);
}

// ---------------------------------------------------------------------------
// DES determinism.
// ---------------------------------------------------------------------------

TEST(Determinism, SameConfigSameTrace) {
  harness::ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = Scheme::kCoordNBMS;
  config.interval = Duration::millis(200);
  config.checkpoints = 3;
  config.verify = true;
  const auto report = harness::check_determinism(config);
  EXPECT_TRUE(report.deterministic);
  EXPECT_EQ(report.first.trace_hash, report.second.trace_hash);
  EXPECT_NE(report.first.trace_hash, 0u);
}

TEST(Determinism, SeedChangesTheIndependentTrace) {
  auto config_for = [](std::uint64_t seed) {
    harness::ExperimentConfig config;
    config.label = "SOR";
    config.app = apps::make_sor({.n = 96, .iterations = 80});
    config.scheme = Scheme::kIndep;
    config.interval = Duration::millis(200);
    config.checkpoints = 3;
    config.seed = seed;
    return config;
  };
  const auto a = harness::run_experiment(config_for(2026));
  const auto b = harness::run_experiment(config_for(2027));
  EXPECT_EQ(a.digest, b.digest);            // the application result is seed-free
  EXPECT_NE(a.trace_hash, b.trace_hash);    // the jittered schedule is not
}

// ---------------------------------------------------------------------------
// Checkpoint image integrity (checksummed envelopes).
// ---------------------------------------------------------------------------

chklib::CheckpointImage sample_image() {
  chklib::CheckpointImage image;
  image.rank = 3;
  image.index = 7;
  image.captured_at_ns = 123'456'789;
  for (int i = 0; i < 64; ++i) image.state.push_back(static_cast<std::byte>(i * 3));
  image.seq.send_next.push_back({1, 42});
  image.seq.consumed_upto.push_back({2, 17});
  image.sends.push_back(SendRecord{1, 41, 6});
  image.recvs.push_back(RecvRecord{2, 16, 5, 6});
  Envelope env;
  env.src = 3;
  env.dst = 1;
  env.tag = 9;
  env.seq = 41;
  env.payload = {std::byte{0xAB}, std::byte{0xCD}};
  image.sent_log.messages.push_back(env);
  return image;
}

TEST(Integrity, ImageRoundTrips) {
  const auto image = sample_image();
  const auto blob = image.serialize();
  const auto loaded = chklib::CheckpointImage::deserialize(blob);
  EXPECT_EQ(loaded.rank, image.rank);
  EXPECT_EQ(loaded.index, image.index);
  EXPECT_EQ(loaded.captured_at_ns, image.captured_at_ns);
  EXPECT_EQ(loaded.state, image.state);
  ASSERT_EQ(loaded.sends.size(), 1u);
  EXPECT_EQ(loaded.sends[0].seq, 41u);
  ASSERT_EQ(loaded.recvs.size(), 1u);
  EXPECT_EQ(loaded.recvs[0].recv_interval, 6u);
  ASSERT_EQ(loaded.sent_log.messages.size(), 1u);
  EXPECT_EQ(loaded.sent_log.messages[0].payload, image.sent_log.messages[0].payload);
}

TEST(Integrity, CorruptedImageIsRejected) {
  auto blob = sample_image().serialize();
  blob[blob.size() / 2] ^= std::byte{0xFF};
  EXPECT_THROW((void)chklib::CheckpointImage::deserialize(blob), util::SerializeError);
}

TEST(Integrity, TruncatedImageIsRejected) {
  auto blob = sample_image().serialize();
  blob.resize(blob.size() - 3);
  EXPECT_THROW((void)chklib::CheckpointImage::deserialize(blob), util::SerializeError);
}

TEST(Integrity, WrongMagicIsRejected) {
  auto blob = sample_image().serialize();
  blob[0] ^= std::byte{0x01};
  EXPECT_THROW((void)chklib::CheckpointImage::deserialize(blob), util::SerializeError);
}

TEST(Integrity, ChannelLogIsChecksummedToo) {
  chklib::ChannelLog log;
  Envelope env;
  env.src = 0;
  env.dst = 5;
  env.seq = 12;
  env.payload = {std::byte{1}, std::byte{2}, std::byte{3}};
  log.messages.push_back(env);
  auto blob = log.serialize();
  const auto loaded = chklib::ChannelLog::deserialize(blob);
  ASSERT_EQ(loaded.messages.size(), 1u);
  EXPECT_EQ(loaded.messages[0].payload, env.payload);
  blob[blob.size() / 2] ^= std::byte{0x80};
  EXPECT_THROW((void)chklib::ChannelLog::deserialize(blob), util::SerializeError);
}

// ---------------------------------------------------------------------------
// Recovery-line oracle vs the production fixpoint.
// ---------------------------------------------------------------------------

TEST(Oracle, HandCraftedOrphan) {
  // p0 forgot a send that p1 remembers receiving: p1 must retract.
  std::vector<ProcessHistory> histories(2);
  histories[0].rank = 0;
  histories[0].saved = {1};
  histories[1].rank = 1;
  histories[1].saved = {1};
  histories[1].recvs = {RecvRecord{0, 5, 1, 0}};
  const auto oracle = chklib::verify::brute_force_line(histories, LineMode::kOrphanFree);
  EXPECT_EQ(oracle.line.index, (std::vector<std::uint32_t>{1, 0}));
  EXPECT_TRUE(oracle.max_is_consistent);
  EXPECT_EQ(oracle.lines_tested, 4u);
  EXPECT_EQ(oracle.domino_depth, (std::vector<std::uint32_t>{0, 1}));
  const auto fix = chklib::compute_recovery_line(histories, LineMode::kOrphanFree);
  EXPECT_EQ(fix.line.index, oracle.line.index);
}

TEST(Oracle, AgreesWithFixpointOnRandomizedHistories) {
  util::Rng rng(0x5EED2026);
  std::uint64_t agreements = 0;
  for (int round = 0; round < 1100; ++round) {
    const std::size_t n = 2 + rng.uniform_u64(3);  // 2..4 ranks
    std::vector<ProcessHistory> histories(n);
    for (std::size_t p = 0; p < n; ++p) {
      histories[p].rank = static_cast<Rank>(p);
      const std::size_t count = rng.uniform_u64(4);  // 0..3 checkpoints
      std::uint32_t index = 0;
      for (std::size_t k = 0; k < count; ++k) {
        // occasional gaps model garbage-collected checkpoints
        index += 1 + static_cast<std::uint32_t>(rng.uniform_u64(2));
        histories[p].saved.push_back(index);
      }
    }
    // Random messages: per-channel unique seqs; each side's record is
    // independently present (a missing record models traffic beyond the
    // last checkpoint or still in flight at the cut).
    std::vector<std::vector<std::uint64_t>> next_seq(n, std::vector<std::uint64_t>(n, 0));
    const std::size_t messages = rng.uniform_u64(26);
    for (std::size_t m = 0; m < messages; ++m) {
      const auto src = static_cast<std::size_t>(rng.uniform_u64(n));
      auto dst = static_cast<std::size_t>(rng.uniform_u64(n - 1));
      if (dst >= src) ++dst;
      const std::uint64_t seq = next_seq[src][dst]++;
      const std::uint32_t newest_src =
          histories[src].saved.empty() ? 0 : histories[src].saved.back();
      const std::uint32_t newest_dst =
          histories[dst].saved.empty() ? 0 : histories[dst].saved.back();
      const auto send_interval = static_cast<std::uint32_t>(rng.uniform_u64(newest_src + 2));
      const auto recv_interval = static_cast<std::uint32_t>(rng.uniform_u64(newest_dst + 2));
      if (rng.bernoulli(0.9)) {
        histories[src].sends.push_back(
            SendRecord{static_cast<Rank>(dst), seq, send_interval});
      }
      if (rng.bernoulli(0.8)) {
        histories[dst].recvs.push_back(
            RecvRecord{static_cast<Rank>(src), seq, send_interval, recv_interval});
      }
    }

    for (LineMode mode : {LineMode::kStrict, LineMode::kOrphanFree}) {
      const auto fix = chklib::compute_recovery_line(histories, mode);
      const auto oracle = chklib::verify::brute_force_line(histories, mode);
      ASSERT_EQ(fix.line.index, oracle.line.index)
          << "round " << round << ", mode " << to_string(mode);
      EXPECT_TRUE(oracle.max_is_consistent) << "round " << round;
      EXPECT_GE(oracle.consistent_lines, 1u);  // the origin is always consistent
      EXPECT_EQ(oracle.domino_depth, chklib::verify::domino_depths(histories, fix.line));
      ++agreements;
    }
  }
  EXPECT_GE(agreements, 2200u);
}

TEST(Oracle, StrictLineNeverExceedsOrphanFreeLine) {
  util::Rng rng(0xD0 | 0x1234);
  for (int round = 0; round < 200; ++round) {
    std::vector<ProcessHistory> histories(3);
    for (std::size_t p = 0; p < 3; ++p) {
      histories[p].rank = static_cast<Rank>(p);
      histories[p].saved = {1, 2};
    }
    std::vector<std::vector<std::uint64_t>> next_seq(3, std::vector<std::uint64_t>(3, 0));
    for (std::size_t m = 0; m < 12; ++m) {
      const auto src = static_cast<std::size_t>(rng.uniform_u64(3));
      auto dst = static_cast<std::size_t>(rng.uniform_u64(2));
      if (dst >= src) ++dst;
      const std::uint64_t seq = next_seq[src][dst]++;
      const auto send_interval = static_cast<std::uint32_t>(rng.uniform_u64(3));
      const auto recv_interval = static_cast<std::uint32_t>(rng.uniform_u64(3));
      histories[src].sends.push_back(SendRecord{static_cast<Rank>(dst), seq, send_interval});
      if (rng.bernoulli(0.7)) {
        histories[dst].recvs.push_back(
            RecvRecord{static_cast<Rank>(src), seq, send_interval, recv_interval});
      }
    }
    const auto strict = chklib::verify::brute_force_line(histories, LineMode::kStrict);
    const auto weak = chklib::verify::brute_force_line(histories, LineMode::kOrphanFree);
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_LE(strict.line.index[p], weak.line.index[p]) << "round " << round;
    }
  }
}

TEST(Oracle, RefusesExplosiveCandidateSpaces) {
  std::vector<ProcessHistory> histories(8);
  for (std::size_t p = 0; p < histories.size(); ++p) {
    histories[p].rank = static_cast<Rank>(p);
    for (std::uint32_t i = 1; i <= 40; ++i) histories[p].saved.push_back(i);
  }
  EXPECT_THROW((void)chklib::verify::brute_force_line(histories, LineMode::kStrict, 1000),
               std::invalid_argument);
}

}  // namespace
}  // namespace chk
