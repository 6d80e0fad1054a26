// Run-twice determinism at scale: the kernel's totally ordered event queue
// (and its pool/compaction machinery) must yield bit-identical trace hashes
// at 64 and 256 ranks — the regime where event records are recycled through
// the freelist millions of times and the dead-entry compactor actually
// fires — for every checkpointing scheme, with and without tracing.
//
// The first run of each cell must also match a pinned schedule: its trace
// hash, event count and completion time, captured on the tree before packet
// hops stopped keeping a route. These are the only pins on a mesh wider than
// 2x4 (2x32 and 2x128), where routes are long and most events are hops.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/sor.hpp"
#include "des/time.hpp"
#include "harness/experiment.hpp"

namespace chk {
namespace {

using chklib::Scheme;
using des::Duration;

struct Pin {
  std::size_t ranks;
  Scheme scheme;
  std::uint64_t trace_hash;
  std::uint64_t events;
  double exec_time_s;
};

constexpr Pin kPins[] = {
    {64, Scheme::kCoordNB, 0x2a6ba28ce58f78f0ull, 62870, 1.8472824460000001},
    {64, Scheme::kCoordNBM, 0x1aeaba669076d128ull, 17631, 0.34068684400000004},
    {64, Scheme::kCoordNBMS, 0xb27e12617ed275b5ull, 17693, 0.29879461600000001},
    {64, Scheme::kIndep, 0x513d0d2307f40006ull, 14521, 2.0651457300000002},
    {64, Scheme::kIndepM, 0x7eac640fc4111c03ull, 7245, 0.34064955900000005},
    {256, Scheme::kCoordNB, 0xa84e02c41cc67683ull, 2988479, 6.3507675320000008},
    {256, Scheme::kCoordNBM, 0xa0e7dc4cc22f6c53ull, 224750, 1.128430211},
    {256, Scheme::kCoordNBMS, 0xd3b8b28c1b713c19ull, 226501, 0.97587165300000001},
    {256, Scheme::kIndep, 0xf0c9e76284f28b42ull, 92153, 7.2268045480000005},
    {256, Scheme::kIndepM, 0xc8d9f8c28dd4c155ull, 31024, 1.2789755220000001},
};

harness::ExperimentResult run_cell(std::size_t ranks, Scheme scheme, bool observe) {
  harness::ExperimentConfig config;
  config.label = "SOR-scale";
  // Small grid, few iterations: the point is many ranks exchanging halos
  // (event volume and churn), not numerical work.
  config.app = apps::make_sor(apps::SorParams{.n = 256, .iterations = 6});
  config.scheme = scheme;
  config.machine.num_nodes = ranks;
  config.seed = 2026;
  config.checkpoints = 2;
  config.interval = Duration::millis(200);
  config.observe = observe;
  return harness::run_experiment(config);
}

class KernelScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelScale, TraceHashBitIdenticalAcrossRunsAndTracing) {
  const std::size_t ranks = GetParam();
  for (const Pin& pin : kPins) {
    if (pin.ranks != ranks) continue;
    const Scheme scheme = pin.scheme;
    const std::string what =
        std::string(to_string(scheme)) + " @ " + std::to_string(ranks) + " ranks";
    const auto first = run_cell(ranks, scheme, /*observe=*/false);
    EXPECT_EQ(first.trace_hash, pin.trace_hash) << what << " (pinned)";
    EXPECT_EQ(first.events, pin.events) << what << " (pinned)";
    EXPECT_EQ(first.exec_time_s, pin.exec_time_s) << what << " (pinned)";
    const auto second = run_cell(ranks, scheme, /*observe=*/false);
    EXPECT_EQ(first.trace_hash, second.trace_hash) << what;
    EXPECT_EQ(first.exec_time_s, second.exec_time_s) << what;
    EXPECT_EQ(first.events, second.events) << what;
    // Observation must not perturb the schedule.
    const auto traced = run_cell(ranks, scheme, /*observe=*/true);
    EXPECT_EQ(traced.trace_hash, first.trace_hash) << what << " (traced)";
    EXPECT_EQ(traced.exec_time_s, first.exec_time_s) << what << " (traced)";
    EXPECT_EQ(traced.events, first.events) << what << " (traced)";
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, KernelScale, ::testing::Values(std::size_t{64}, std::size_t{256}),
                         [](const ::testing::TestParamInfo<std::size_t>& param_info) {
                           return "ranks" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace chk
