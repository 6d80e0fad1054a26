// Tests for incremental checkpointing: the dirty-chunk tracker, delta
// serialization/apply, protocol integration (bytes written, GC keeps the
// chain) and recovery through a delta chain with bit-exact verification.
#include <gtest/gtest.h>

#include "apps/gauss.hpp"
#include "apps/ising.hpp"
#include "apps/sor.hpp"
#include "chklib/ckpt/incremental.hpp"
#include "chklib/proto/coordinated.hpp"
#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace chk::chklib {
namespace {

std::vector<std::byte> random_blob(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> blob(size);
  for (auto& b : blob) b = static_cast<std::byte>(rng() & 0xff);
  return blob;
}

TEST(Incremental, NoChangeYieldsEmptyDelta) {
  const auto blob = random_blob(10'000, 1);
  IncrementalTracker tracker(1024);
  tracker.rebase(blob);
  const auto delta = tracker.capture_delta(blob);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->chunks.empty());
  EXPECT_EQ(delta->payload_bytes(), 0u);
}

TEST(Incremental, SingleByteDirtyCapturesOneChunk) {
  auto blob = random_blob(10'000, 2);
  IncrementalTracker tracker(1024);
  tracker.rebase(blob);
  blob[5000] ^= std::byte{0xff};
  const auto delta = tracker.capture_delta(blob);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->chunks.size(), 1u);
  EXPECT_EQ(delta->chunks[0], 5000u / 1024u);
  EXPECT_EQ(delta->payload_bytes(), 1024u);
}

TEST(Incremental, ApplyReconstructsExactly) {
  auto base = random_blob(7'777, 3);  // odd size: last chunk is short
  IncrementalTracker tracker(512);
  tracker.rebase(base);
  auto modified = base;
  modified[0] ^= std::byte{1};
  modified[7'776] ^= std::byte{1};  // dirty the short tail chunk
  modified[3'000] ^= std::byte{1};
  const auto delta = tracker.capture_delta(modified);
  ASSERT_TRUE(delta.has_value());
  // round-trip through serialization
  const auto wire = delta->serialize();
  auto patched = base;
  StateDelta::deserialize(wire).apply(patched);
  EXPECT_EQ(patched, modified);
}

TEST(Incremental, ChainOfDeltasComposes) {
  auto state = random_blob(20'000, 4);
  IncrementalTracker tracker;
  tracker.rebase(state);
  auto reconstructed = state;
  util::Rng rng(99);
  for (int step = 0; step < 5; ++step) {
    for (int k = 0; k < 50; ++k) {
      state[rng.uniform_u64(state.size())] = static_cast<std::byte>(rng() & 0xff);
    }
    const auto delta = tracker.capture_delta(state);
    ASSERT_TRUE(delta.has_value());
    delta->apply(reconstructed);
  }
  EXPECT_EQ(reconstructed, state);
}

TEST(Incremental, SizeChangeRequiresRebase) {
  IncrementalTracker tracker;
  tracker.rebase(random_blob(1000, 5));
  EXPECT_FALSE(tracker.capture_delta(random_blob(2000, 6)).has_value());
}

TEST(Incremental, ApplyRejectsWrongBase) {
  auto base = random_blob(4096, 7);
  IncrementalTracker tracker;
  tracker.rebase(base);
  auto modified = base;
  modified[0] ^= std::byte{1};
  const auto delta = tracker.capture_delta(modified);
  std::vector<std::byte> wrong(1234);
  EXPECT_THROW(delta->apply(wrong), util::SerializeError);
}

// ---- protocol integration --------------------------------------------------

harness::ExperimentConfig config_for(AppFn app, bool incremental) {
  harness::ExperimentConfig config;
  config.label = "inc";
  config.app = std::move(app);
  config.scheme = harness::Scheme::kCoordNBM;
  config.checkpoints = 6;
  config.incremental = incremental;
  return config;
}

TEST(Incremental, IsingWritesFarFewerBytes) {
  // The quenched coupling arrays never change: deltas carry only spins and
  // counters, a fraction of the full image.
  auto app = [] { return apps::make_ising({.n = 96, .sweeps = 120}); };
  auto base_cfg = config_for(app(), false);
  const auto normal = harness::run_normal(base_cfg);
  base_cfg.interval = des::Duration::seconds(normal.exec_time_s / 7.0);
  auto inc_cfg = config_for(app(), true);
  inc_cfg.interval = base_cfg.interval;

  const auto full = harness::run_experiment(base_cfg);
  const auto inc = harness::run_experiment(inc_cfg);
  EXPECT_EQ(full.digest, inc.digest);
  EXPECT_GT(inc.local_checkpoints, 0u);
  EXPECT_LT(inc.bytes_written, full.bytes_written * 3 / 4) << "deltas should shrink writes";
}

TEST(Incremental, SorGainsLittle) {
  // SOR dirties its whole grid every iteration: incremental buys ~nothing.
  auto app = [] { return apps::make_sor({.n = 96, .iterations = 120}); };
  auto base_cfg = config_for(app(), false);
  const auto normal = harness::run_normal(base_cfg);
  base_cfg.interval = des::Duration::seconds(normal.exec_time_s / 7.0);
  auto inc_cfg = config_for(app(), true);
  inc_cfg.interval = base_cfg.interval;

  const auto full = harness::run_experiment(base_cfg);
  const auto inc = harness::run_experiment(inc_cfg);
  EXPECT_EQ(full.digest, inc.digest);
  EXPECT_GT(inc.bytes_written, full.bytes_written / 2);  // no big win
}

TEST(Incremental, RecoveryThroughDeltaChain) {
  // Crash after several delta checkpoints: recovery must read the chain
  // back to the last full image and reconstruct the exact state.
  auto app = [] { return apps::make_gauss({.n = 96}); };
  auto cfg = config_for(app(), true);
  const auto normal = harness::run_normal(cfg);
  cfg.checkpoints = 0;
  cfg.interval = des::Duration::seconds(normal.exec_time_s / 9.0);
  cfg.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.8), 2};
  const auto result = harness::run_experiment(cfg);
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_FALSE(result.recoveries[0].rolled_to_origin);
  EXPECT_EQ(result.digest, normal.digest);
}

TEST(Incremental, CommitGcKeepsTheChain) {
  auto cfg = config_for(apps::make_ising({.n = 96, .sweeps = 150}), true);
  const auto normal = harness::run_normal(cfg);
  cfg.interval = des::Duration::seconds(normal.exec_time_s / 7.0);
  const auto result = harness::run_experiment(cfg);
  // Deltas were actually taken, and GC never removed an image a committed
  // chain still needs (otherwise recovery tests above would fail); the
  // retained count per rank is at most kFullEvery.
  EXPECT_GT(result.committed_rounds, 0u);
  EXPECT_LE(result.final_stored_checkpoints, 8u * CoordinatedProtocol::kFullEvery);
}

}  // namespace
}  // namespace chk::chklib
