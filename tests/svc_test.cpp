// svc workload tests: open-loop determinism, LWW digest invariance across
// all five schemes, latency accounting under checkpoint windows and recovery,
// the dynamic checkpoint regions that carry the shard, and the bounded
// receive primitive the event loop is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "chklib/ckpt/registry.hpp"
#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "svc/kvstore.hpp"

namespace {

using namespace chk;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Scheme;

constexpr std::size_t kNodes = 4;
constexpr std::uint64_t kSeed = 2026;

svc::SvcParams small_params() {
  svc::SvcParams p;
  p.keys = 256;
  p.prefill = 64;
  p.arrival_hz = 250.0;
  p.horizon_s = 1.2;
  return p;
}

ExperimentConfig svc_config(const svc::SvcParams& params, Scheme scheme) {
  ExperimentConfig config;
  config.label = "svc";
  config.app = svc::make_svc(params);
  config.scheme = scheme;
  config.interval = des::Duration::seconds(0.3);
  config.checkpoints = 0;  // checkpoint until the service drains
  config.machine.num_nodes = kNodes;
  config.seed = kSeed;
  return config;
}

std::uint64_t count_sum(const std::vector<std::uint64_t>& counts) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

}  // namespace

TEST(Svc, OpenLoopDeterminism) {
  // Same seed => byte-identical event trace and latency histogram.
  svc::SvcParams params = small_params();
  params.sink = std::make_shared<svc::SvcMetrics>();
  const auto report = harness::check_determinism(svc_config(params, Scheme::kCoordNB));
  EXPECT_TRUE(report.deterministic)
      << report.first.trace_hash << " vs " << report.second.trace_hash;

  // An independent pair of runs with separate sinks: merged metrics match.
  svc::SvcParams pa = small_params();
  pa.sink = std::make_shared<svc::SvcMetrics>();
  svc::SvcParams pb = small_params();
  pb.sink = std::make_shared<svc::SvcMetrics>();
  const ExperimentResult ra = harness::run_experiment(svc_config(pa, Scheme::kIndep));
  const ExperimentResult rb = harness::run_experiment(svc_config(pb, Scheme::kIndep));
  EXPECT_EQ(ra.trace_hash, rb.trace_hash);
  EXPECT_EQ(pa.sink->issued, pb.sink->issued);
  EXPECT_EQ(pa.sink->latency_sum_ns, pb.sink->latency_sum_ns);
  EXPECT_EQ(pa.sink->latency_counts, pb.sink->latency_counts);
}

TEST(Svc, AllSchemesReproduceReferenceDigest) {
  const svc::SvcParams base = small_params();
  const double reference = svc::svc_reference_digest(base, kNodes, kSeed);
  for (const Scheme scheme : {Scheme::kCoordNB, Scheme::kIndep, Scheme::kCoordNBM,
                              Scheme::kIndepM, Scheme::kCoordNBMS}) {
    svc::SvcParams params = base;
    params.sink = std::make_shared<svc::SvcMetrics>();
    const ExperimentResult r = harness::run_experiment(svc_config(params, scheme));
    ASSERT_TRUE(r.digest.has_value()) << to_string(scheme);
    EXPECT_EQ(*r.digest, reference) << to_string(scheme);
    // Open-loop conservation: every generated request completed, and every
    // completion landed in exactly one histogram bucket.
    EXPECT_GT(params.sink->issued, 0u) << to_string(scheme);
    EXPECT_EQ(params.sink->completed, params.sink->issued) << to_string(scheme);
    EXPECT_EQ(count_sum(params.sink->latency_counts), params.sink->completed)
        << to_string(scheme);
    EXPECT_EQ(params.sink->issued,
              params.sink->gets + params.sink->puts + params.sink->deletes)
        << to_string(scheme);
  }
}

TEST(Svc, CheckpointImageTracksShardGrowth) {
  // The shard's registered size moves with the put/delete mix: the
  // per-capture image log is a measured curve, not a constant.
  svc::SvcParams params = small_params();
  const ExperimentResult r = harness::run_experiment(svc_config(params, Scheme::kCoordNB));
  ASSERT_FALSE(r.image_log.empty());
  std::set<std::uint64_t> sizes;
  for (const chklib::ProtocolStats::ImageRecord& img : r.image_log) {
    EXPECT_LT(img.rank, kNodes);
    EXPECT_GT(img.bytes, 0u);
    sizes.insert(img.bytes);
  }
  EXPECT_GT(sizes.size(), 1u) << "every capture had identical bytes";
}

TEST(Svc, CheckpointWindowLandsInLatencyTail) {
  // A Coord_NB rank is blocked for its whole stable-storage write.
  // Requests scheduled during such a window are served late; the open-loop
  // measurement must charge that wait to the tail and to the
  // svc_queue_wait bucket.
  auto observed_run = [](Scheme scheme) {
    svc::SvcParams params = small_params();
    params.sink = std::make_shared<svc::SvcMetrics>();
    ExperimentConfig config = svc_config(params, scheme);
    config.observe = true;
    return std::pair{harness::run_experiment(config), params.sink};
  };
  const auto [normal, normal_sink] = observed_run(Scheme::kNone);
  const auto [coord, coord_sink] = observed_run(Scheme::kCoordNB);

  ASSERT_TRUE(coord.digest.has_value());
  EXPECT_EQ(*coord.digest, svc::svc_reference_digest(small_params(), kNodes, kSeed));
  EXPECT_EQ(coord_sink->completed, coord_sink->issued);
  std::int64_t longest_window_ns = 0;
  for (const obs::Event& e : coord.obs->trace.events) {
    if (e.kind == obs::EventKind::kCkptWindow) {
      longest_window_ns = std::max(longest_window_ns, e.dur_ns);
    }
  }
  ASSERT_GT(longest_window_ns, 0);
  const auto longest = static_cast<std::uint64_t>(longest_window_ns);
  // A request scheduled as the longest window opened waited all of it;
  // without checkpoints no request waits anywhere near that long.
  EXPECT_GE(coord_sink->latency_max_ns, longest);
  EXPECT_LT(normal_sink->latency_max_ns, longest);
  EXPECT_GT(coord.obs->attribution.total.svc_queue_wait_s,
            normal.obs->attribution.total.svc_queue_wait_s);
}

TEST(Svc, RecoveryDowntimeLandsInLatencyTail) {
  // A failure mid-run: the service must drain to the same digest, and a
  // request scheduled before the crash completes only after the recovery
  // window — the measured tail is at least the downtime.
  svc::SvcParams params = small_params();
  params.sink = std::make_shared<svc::SvcMetrics>();
  const double reference = svc::svc_reference_digest(params, kNodes, kSeed);
  ExperimentConfig config = svc_config(params, Scheme::kCoordNB);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(0.7), 1};
  const ExperimentResult r = harness::run_experiment(config);
  ASSERT_TRUE(r.digest.has_value());
  EXPECT_EQ(*r.digest, reference);
  ASSERT_EQ(r.recoveries.size(), 1u);
  const auto downtime_ns =
      static_cast<std::uint64_t>(r.recoveries[0].recovery_latency.to_nanos());
  EXPECT_GT(downtime_ns, 0u);
  EXPECT_EQ(params.sink->completed, params.sink->issued);
  EXPECT_GE(params.sink->latency_max_ns, downtime_ns);
}

TEST(Svc, OwnerPartitionIsTotalAndSpread) {
  std::vector<std::uint64_t> per_rank(kNodes, 0);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::size_t owner = svc::svc_owner(key, kNodes);
    ASSERT_LT(owner, kNodes);
    ++per_rank[owner];
  }
  for (const std::uint64_t n : per_rank) EXPECT_GT(n, 4096u / kNodes / 2);
}

TEST(DynamicRegions, VectorRoundTripGrowShrink) {
  chklib::CheckpointRegistry reg;
  std::vector<std::uint64_t> v{1, 2, 3};
  reg.register_dynamic_vector("v", v);
  const std::vector<std::byte> at3 = reg.capture();
  v.assign({9, 8, 7, 6, 5});
  const std::vector<std::byte> at5 = reg.capture();
  EXPECT_EQ(at5.size(), at3.size() + 2 * sizeof(std::uint64_t));

  reg.restore(at3);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
  reg.restore(at5);
  EXPECT_EQ(v, (std::vector<std::uint64_t>{9, 8, 7, 6, 5}));

  v.clear();
  reg.restore(at3);  // restore into an emptied vector resizes it back
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DynamicRegions, RestoreRejectsMisalignedBytes) {
  chklib::CheckpointRegistry a;
  std::vector<std::byte> raw{std::byte{1}, std::byte{2}, std::byte{3}};
  a.register_dynamic_vector("r", raw);
  const std::vector<std::byte> blob = a.capture();

  chklib::CheckpointRegistry b;
  std::vector<std::uint64_t> wide;
  b.register_dynamic_vector("r", wide);  // 3 bytes is not a multiple of 8
  EXPECT_THROW(b.restore(blob), chklib::RegistryError);
}

TEST(RecvUntil, DeadlineMessageAndPastDeadline) {
  des::Simulator sim;
  xplorer::MachineConfig machine = xplorer::MachineConfig::parsytec_xplorer();
  machine.num_nodes = 2;
  chklib::Runtime runtime(sim, machine, 7);
  runtime.set_app("recv_until", [](chklib::AppContext& ctx) {
    const auto t0 = des::TimePoint::origin();
    if (ctx.rank() == 0) {
      // No sender yet: times out exactly at the deadline.
      const auto none = ctx.recv_until(t0 + des::Duration::millis(1));
      EXPECT_FALSE(none.has_value());
      EXPECT_EQ(ctx.now().to_nanos(), des::Duration::millis(1).to_nanos());
      // Deadline already in the past, no message: immediate nullopt.
      const auto past = ctx.recv_until(t0);
      EXPECT_FALSE(past.has_value());
      EXPECT_EQ(ctx.now().to_nanos(), des::Duration::millis(1).to_nanos());
      // A message lands well before this deadline: delivered, not timed out.
      const auto some = ctx.recv_until(t0 + des::Duration::secs(30));
      ASSERT_TRUE(some.has_value());
      EXPECT_EQ(some->tag, 7);
      EXPECT_LT(ctx.now().to_nanos(), des::Duration::secs(30).to_nanos());
      // FIFO: after the barrier the tag-8 message (sent before the peer
      // entered the barrier) has certainly arrived — a deadline in the
      // past must still deliver an already-queued message.
      ctx.barrier();
      const auto queued = ctx.recv_until(t0, 1, 8);
      ASSERT_TRUE(queued.has_value());
      EXPECT_EQ(queued->tag, 8);
    } else {
      ctx.compute(2000.0);  // ~a few ms of simulated work before sending
      ctx.send_value(0, 7, std::uint64_t{42});
      ctx.send_value(0, 8, std::uint64_t{43});
      ctx.barrier();
    }
  });
  runtime.start_apps();
  runtime.run_to_completion();
}
