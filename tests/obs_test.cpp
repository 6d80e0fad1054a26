// Tests for the obs/ observability subsystem: tracer determinism and
// non-perturbation, metrics histogram semantics and the pinned metrics
// JSON, the per-rank overhead attribution identity across every scheme,
// the Chrome-trace export round-trip, and one-failure replays with and
// without message logging.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sor.hpp"
#include "harness/experiment.hpp"
#include "obs/attribution.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace chk::harness {
namespace {

ExperimentConfig small_sor(Scheme scheme = Scheme::kNone) {
  ExperimentConfig config;
  config.label = "SOR";
  config.app = apps::make_sor({.n = 96, .iterations = 80});
  config.scheme = scheme;
  config.interval = des::Duration::millis(200);
  config.checkpoints = 3;
  return config;
}

ExperimentConfig observed_sor(Scheme scheme) {
  auto config = small_sor(scheme);
  config.observe = true;
  return config;
}

constexpr Scheme kAllSchemes[] = {Scheme::kCoordNB, Scheme::kCoordNBS,
                                  Scheme::kCoordNBM, Scheme::kCoordNBMS,
                                  Scheme::kIndep,    Scheme::kIndepM,
                                  Scheme::kIndepMS};

// ---- tracer determinism and non-perturbation --------------------------------

TEST(Tracer, SameSeedProducesIdenticalEventStreams) {
  const auto a = run_experiment(observed_sor(Scheme::kCoordNBMS));
  const auto b = run_experiment(observed_sor(Scheme::kCoordNBMS));
  ASSERT_TRUE(a.obs && b.obs);
  EXPECT_GT(a.obs->trace.events.size(), 0u);
  EXPECT_EQ(a.obs->trace.hash, b.obs->trace.hash);
  EXPECT_EQ(a.obs->trace.events, b.obs->trace.events);
}

TEST(Tracer, ObservationDoesNotPerturbTheSimulation) {
  for (Scheme scheme : kAllSchemes) {
    const auto off = run_experiment(small_sor(scheme));
    const auto on = run_experiment(observed_sor(scheme));
    EXPECT_EQ(off.trace_hash, on.trace_hash) << to_string(scheme);
    EXPECT_EQ(off.exec_time_s, on.exec_time_s) << to_string(scheme);
    EXPECT_EQ(off.events, on.events) << to_string(scheme);
    EXPECT_FALSE(off.obs.has_value());
    EXPECT_TRUE(on.obs.has_value());
  }
}

TEST(Tracer, SerializedHashMatchesRecomputedHash) {
  const auto result = run_experiment(observed_sor(Scheme::kIndepM));
  ASSERT_TRUE(result.obs);
  EXPECT_EQ(result.obs->trace.hash, obs::hash_events(result.obs->trace.events));
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, HistogramBucketEdges) {
  // ckpt/window_s: each checkpoint window's length over fixed edges of
  // 1 ms, 10 ms, 50 ms, 100 ms, 500 ms, 1 s and 5 s.
  obs::Trace trace;
  auto span = [&](obs::EventKind kind, std::int64_t dur_ns) {
    obs::Event e;
    e.kind = kind;
    e.dur_ns = dur_ns;
    trace.events.push_back(e);
  };
  span(obs::EventKind::kCkptWindow, 500'000);         // 0.5 ms -> bucket 0
  span(obs::EventKind::kCkptWindow, 1'000'000);       // 1 ms -> bucket 0 (inclusive edge)
  span(obs::EventKind::kCkptWindow, 1'500'000);       // 1.5 ms -> bucket 1
  span(obs::EventKind::kStableWrite, 2'000'000);      // not a window
  span(obs::EventKind::kCkptWindow, 5'000'000'000);   // 5 s -> bucket 6
  span(obs::EventKind::kCkptWindow, 99'000'000'000);  // overflow
  const obs::HistogramSnapshot h = checkpoint_window_histogram(trace);
  EXPECT_EQ(h.edges, (std::vector<double>{0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0}));
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{2, 1, 0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(h.total_count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.0005 + 0.001 + 0.0015 + 5.0 + 99.0);
}

TEST(Metrics, LogHistogramBinsByPowersOfTwo) {
  // Edges 2^3 .. 2^6 (8, 16, 32, 64); bucket 4 is the overflow.
  using obs::LogHistogram;
  EXPECT_EQ(LogHistogram::bucket_of(0, 3, 6), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1, 3, 6), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(8, 3, 6), 0u);
  // An exact power of two lands on its own edge, one more in the next
  // bucket.
  EXPECT_EQ(LogHistogram::bucket_of(16, 3, 6), 1u);
  EXPECT_EQ(LogHistogram::bucket_of(17, 3, 6), 2u);
  EXPECT_EQ(LogHistogram::bucket_of(64, 3, 6), 3u);
  // Above 2^max_exp: the overflow bucket.
  EXPECT_EQ(LogHistogram::bucket_of(65, 3, 6), 4u);
  EXPECT_EQ(LogHistogram::bucket_of(~std::uint64_t{0}, 3, 6), 4u);
  // Edges are the powers of two times the scale.
  EXPECT_EQ(LogHistogram::make_edges(3, 6, 1.0), (std::vector<double>{8, 16, 32, 64}));
  EXPECT_EQ(LogHistogram::make_edges(3, 6, 0.5), (std::vector<double>{4, 8, 16, 32}));
}

TEST(Metrics, HistogramQuantileInterpolatesInsideBuckets) {
  obs::HistogramSnapshot empty;
  empty.edges = {1.0, 2.0};
  empty.counts = {0, 0, 0};
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);

  obs::HistogramSnapshot h;
  h.edges = {1.0, 2.0, 4.0};
  h.counts = {2, 0, 2, 1};  // two samples in [0, 1], two in (2, 4], one above 4
  h.total_count = 5;
  // q = 0.2 is sample 1 of 5, the first of bucket 0's two: halfway into
  // [0, 1].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.2), 0.5);
  // Samples 3 and 4 are bucket 2's, interpolated over (2, 4].
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.6), 3.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.8), 4.0);
  // Sample 5 is in the overflow bucket, which reports the last edge.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 4.0);
  // q is clamped to [0, 1]; q = 0 is the first sample.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, -3.0), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 7.0), 4.0);
}

TEST(Metrics, ObservedRunPublishesConsistentSnapshot) {
  const auto result = run_experiment(observed_sor(Scheme::kCoordNB));
  ASSERT_TRUE(result.obs);
  const obs::MetricsSnapshot& snap = result.obs->metrics;
  EXPECT_EQ(snap.counters.at("run/events"), result.events);
  EXPECT_EQ(snap.counters.at("ckpt/local_checkpoints"), result.local_checkpoints);
  EXPECT_DOUBLE_EQ(snap.gauges.at("run/exec_time_s"), result.exec_time_s);
  EXPECT_DOUBLE_EQ(snap.gauges.at("overhead/app_blocked_s"), result.app_blocked_s);
  const auto& windows = snap.histograms.at("ckpt/window_s");
  EXPECT_GT(windows.total_count, 0u);
  EXPECT_NEAR(windows.sum, result.app_blocked_s, 1e-9);

  // run_metrics of the same config's unobserved run is that snapshot minus
  // the trace-derived names (plain, and with a crash and the monitor on so
  // the recovery and verify counters are non-zero).
  const double normal_s = run_experiment(small_sor()).exec_time_s;
  auto crashed = small_sor(Scheme::kCoordNB);
  crashed.verify = true;
  crashed.failure =
      FailureSpec{des::TimePoint::origin() + des::Duration::seconds(normal_s * 0.55), 2};
  for (const ExperimentConfig& config : {small_sor(Scheme::kCoordNB), crashed}) {
    auto observed_config = config;
    observed_config.observe = true;
    const auto observed = run_experiment(observed_config);
    ASSERT_TRUE(observed.obs);
    const obs::MetricsSnapshot& full = observed.obs->metrics;
    const obs::MetricsSnapshot plain = run_metrics(run_experiment(config));
    const auto trace_derived = [](const std::string& name) {
      return name.starts_with("attrib/") || name == "run/trace_events" ||
             name == "ckpt/window_s";
    };
    std::size_t compared = 0;
    for (const auto& [name, value] : full.counters) {
      if (trace_derived(name)) continue;
      ASSERT_TRUE(plain.counters.contains(name)) << name;
      EXPECT_EQ(plain.counters.at(name), value) << name;
      ++compared;
    }
    for (const auto& [name, value] : full.gauges) {
      if (trace_derived(name)) continue;
      ASSERT_TRUE(plain.gauges.contains(name)) << name;
      EXPECT_EQ(plain.gauges.at(name), value) << name;
      ++compared;
    }
    for (const auto& [name, hist] : full.histograms) {
      if (trace_derived(name)) continue;
      ASSERT_TRUE(plain.histograms.contains(name)) << name;
      const obs::HistogramSnapshot& other = plain.histograms.at(name);
      EXPECT_EQ(other.edges, hist.edges) << name;
      EXPECT_EQ(other.counts, hist.counts) << name;
      EXPECT_EQ(other.total_count, hist.total_count) << name;
      EXPECT_EQ(other.sum, hist.sum) << name;
      ++compared;
    }
    EXPECT_EQ(compared, plain.counters.size() + plain.gauges.size() + plain.histograms.size());
    if (config.failure.has_value()) {
      EXPECT_EQ(plain.counters.at("recovery/failures"), 1u);
      EXPECT_GT(plain.counters.at("verify/checks"), 0u);
      EXPECT_EQ(plain.counters.at("verify/violations"), 0u);
    }
  }
}

// The metrics JSON of two small Coord_NB runs, byte for byte: every metric
// name, value and histogram shape that bench and campaign cells carry.
// Captured on the tree before the run-scoped metrics registry went; the
// link-partition counter left with the partition mode.
constexpr std::string_view kPlainRunMetrics =
    R"({"counters":{"ckpt/aborted_rounds":0,"ckpt/bytes_written":265312,)"
    R"("ckpt/commit_write_failures":0,"ckpt/committed_rounds":3,"ckpt/corrupt_discarded":0,)"
    R"("ckpt/gc_reclaimed":16,"ckpt/local_checkpoints":24,"ckpt/tokens_regenerated":0,)"
    R"("ckpt/write_failures":0,"comm/app_bytes":860272,"comm/app_messages":1134,)"
    R"("comm/checkpoint_bytes":265312,"comm/control_bytes":7680,)"
    R"("comm/control_messages":240,"comm/corrupt_detected":0,"comm/dups_suppressed":0,)"
    R"("comm/link_corrupted":0,"comm/link_delayed":0,"comm/link_drops":0,)"
    R"("comm/link_duplicates":0,"comm/retransmits":0,"faults/during_recovery":0,)"
    R"("faults/injected":0,"faults/mid_write":0,"membership/crashes":0,)"
    R"("membership/detections":0,"membership/evictions":0,"membership/forced_recoveries":0,)"
    R"("membership/heartbeats_sent":0,"membership/rejoins":0,"membership/suspicions":0,)"
    R"("membership/suspicions_cleared":0,"membership/views_established":0,)"
    R"("membership/wrongful_evictions":0,"recovery/bytes_read":0,"recovery/bytes_reread":0,)"
    R"("recovery/failures":0,"recovery/generations_skipped":0,"recovery/interrupted":0,)"
    R"("recovery/max_domino_depth":0,"recovery/mid_write":0,"recovery/rolled_to_origin":0,)"
    R"("recovery/writes_discarded":0,"run/events":9103,"storage/bitrot_injected":0,)"
    R"("storage/degraded_ops":0,"storage/final_bytes":87880,"storage/final_checkpoints":8,)"
    R"("storage/io_read_errors":0,"storage/io_write_errors":0,"storage/peak_bytes":177424,)"
    R"("storage/read_failures":0,"storage/reclaimed_bytes":177416,"storage/retries":0,)"
    R"("storage/write_failures":0,"verify/checks":0,"verify/in_flight_at_end":0,)"
    R"("verify/violations":0},"gauges":{"comm/link_busy_s":1.0853568730000001,)"
    R"("overhead/app_blocked_s":2.3664092130000003,"overhead/interference_s":0,)"
    R"("recovery/latency_total_s":0,"run/exec_time_s":1.5005728540000001,)"
    R"("storage/disk_busy_s":0.59550857600000007,"storage/disk_wait_s":1.2232480190000001,)"
    R"("storage/host_link_busy_s":0.16640000000000002,"storage/retry_wait_s":0},)"
    R"("histograms":{"membership/detection_latency_s":{"edges":[0.0010485760000000001,0.0020971520000000001,0.0041943040000000003,0.0083886080000000005,0.016777216000000001,0.033554432000000002,0.067108864000000004,0.13421772800000001,0.26843545600000002,0.53687091200000003,1.0737418240000001,2.1474836480000001,4.2949672960000003,8.5899345920000005,17.179869184000001],)"
    R"("counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"total_count":0,"sum":0}}})";

constexpr std::string_view kObservedCrashMetrics =
    R"({"counters":{"ckpt/aborted_rounds":0,"ckpt/bytes_written":266984,)"
    R"("ckpt/commit_write_failures":0,"ckpt/committed_rounds":3,"ckpt/corrupt_discarded":0,)"
    R"("ckpt/gc_reclaimed":16,"ckpt/local_checkpoints":24,"ckpt/tokens_regenerated":0,)"
    R"("ckpt/write_failures":0,"comm/app_bytes":976240,"comm/app_messages":1285,)"
    R"("comm/checkpoint_bytes":356528,"comm/control_bytes":25248,)"
    R"("comm/control_messages":789,"comm/corrupt_detected":0,"comm/dups_suppressed":0,)"
    R"("comm/link_corrupted":0,"comm/link_delayed":0,"comm/link_drops":0,)"
    R"("comm/link_duplicates":0,"comm/retransmits":0,"faults/during_recovery":0,)"
    R"("faults/injected":0,"faults/mid_write":0,"membership/crashes":1,)"
    R"("membership/detections":1,"membership/evictions":1,"membership/forced_recoveries":0,)"
    R"("membership/heartbeats_sent":532,"membership/rejoins":0,"membership/suspicions":2,)"
    R"("membership/suspicions_cleared":0,"membership/views_established":1,)"
    R"("membership/wrongful_evictions":0,"recovery/bytes_read":87872,)"
    R"("recovery/bytes_reread":0,"recovery/failures":1,"recovery/generations_skipped":0,)"
    R"("recovery/interrupted":0,"recovery/max_domino_depth":0,"recovery/mid_write":0,)"
    R"("recovery/rolled_to_origin":0,"recovery/writes_discarded":0,"run/events":11557,)"
    R"("run/trace_events":2875,"storage/bitrot_injected":0,"storage/degraded_ops":0,)"
    R"("storage/final_bytes":87880,"storage/final_checkpoints":8,)"
    R"("storage/io_read_errors":0,"storage/io_write_errors":0,"storage/peak_bytes":179096,)"
    R"("storage/read_failures":0,"storage/reclaimed_bytes":179088,"storage/retries":0,)"
    R"("storage/write_failures":0,"verify/checks":6489,"verify/in_flight_at_end":0,)"
    R"("verify/violations":0},"gauges":{"attrib/interference_s":0,"attrib/logging_s":0,)"
    R"("attrib/mem_copy_s":0,"attrib/membership_wait_s":0.63392134300000003,)"
    R"("attrib/recovery_s":0.90924578700000014,"attrib/retransmit_wait_s":0,)"
    R"("attrib/stable_write_s":0.89269734300000014,)"
    R"("attrib/storage_contention_s":1.3440347130000001,"attrib/storage_retry_wait_s":0,)"
    R"("attrib/svc_queue_wait_s":0,"attrib/sync_wait_s":0,)"
    R"("attrib/total_s":3.7798991860000002,"comm/link_busy_s":1.325195447,)"
    R"("overhead/app_blocked_s":2.2367320560000001,"overhead/interference_s":0,)"
    R"("recovery/latency_total_s":0.20600179700000001,"run/exec_time_s":2.4655692610000002,)"
    R"("storage/disk_busy_s":0.828662864,"storage/disk_wait_s":1.9132694330000002,)"
    R"("storage/host_link_busy_s":0.22365000000000002,"storage/retry_wait_s":0},)"
    R"("histograms":{"ckpt/window_s":{"edges":[0.001,0.01,0.050000000000000003,0.10000000000000001,0.5,1,5],)"
    R"("counts":[0,0,3,11,10,0,0,0],"total_count":24,"sum":2.2367320560000006},)"
    R"("membership/detection_latency_s":{"edges":[0.0010485760000000001,0.0020971520000000001,0.0041943040000000003,0.0083886080000000005,0.016777216000000001,0.033554432000000002,0.067108864000000004,0.13421772800000001,0.26843545600000002,0.53687091200000003,1.0737418240000001,2.1474836480000001,4.2949672960000003,8.5899345920000005,17.179869184000001],)"
    R"("counts":[0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0],"total_count":1,)"
    R"("sum":0.63392134300000003}}})";

TEST(Metrics, JsonIsPinned) {
  auto plain = small_sor(Scheme::kCoordNB);
  plain.verify = false;
  EXPECT_EQ(obs::metrics_to_json(run_metrics(run_experiment(plain))).dump(), kPlainRunMetrics);

  // Observed and monitored, with binary membership and one crash, so the
  // recovery, verify, membership and trace-derived metrics are non-zero.
  auto crashed = observed_sor(Scheme::kCoordNB);
  crashed.verify = true;
  chklib::membership::MembershipConfig membership;
  membership.hb_period = des::Duration::millis(250);
  membership.detect_timeout = des::Duration::millis(600);
  crashed.membership = membership;
  crashed.failure = FailureSpec{des::TimePoint::origin() + des::Duration::millis(500), 2};
  const auto result = run_experiment(crashed);
  ASSERT_TRUE(result.obs);
  EXPECT_EQ(result.detections, 1u);
  EXPECT_EQ(obs::metrics_to_json(result.obs->metrics).dump(), kObservedCrashMetrics);
}

// ---- attribution ------------------------------------------------------------

TEST(Attribution, BucketsSumToMeasuredOverheadForEveryScheme) {
  for (Scheme scheme : kAllSchemes) {
    const auto result = run_experiment(observed_sor(scheme));
    ASSERT_TRUE(result.obs) << to_string(scheme);
    const obs::AttributionReport& report = result.obs->attribution;
    ASSERT_EQ(report.ranks.size(), 8u) << to_string(scheme);

    double blocked = 0, interference = 0;
    for (const obs::RankBuckets& rank : report.ranks) {
      // The six window buckets partition each rank's blocking windows
      // (storage_retry_wait is zero here: no storage faults installed).
      EXPECT_NEAR(rank.sync_wait_s + rank.mem_copy_s + rank.stable_write_s +
                      rank.storage_contention_s + rank.logging_s +
                      rank.storage_retry_wait_s,
                  rank.blocked_total_s, 1e-9)
          << to_string(scheme);
      EXPECT_EQ(rank.storage_retry_wait_s, 0.0) << to_string(scheme);
      // svc_queue_wait_s is the svc workload's request-side bucket; batch
      // apps never emit it, and it sits outside the blocked windows.
      EXPECT_EQ(rank.svc_queue_wait_s, 0.0) << to_string(scheme);
      // membership_wait_s attributes view-exclusion episodes; with no
      // membership service installed the bucket must stay exactly zero.
      EXPECT_EQ(rank.membership_wait_s, 0.0) << to_string(scheme);
      EXPECT_NEAR(rank.bucket_sum_s(), rank.total_s(), 1e-9) << to_string(scheme);
      EXPECT_GE(rank.sync_wait_s, 0.0) << to_string(scheme);
      blocked += rank.blocked_total_s;
      interference += rank.interference_s;
    }
    // The totals row is the element-wise sum, and the trace-derived numbers
    // match the independently collected harness metrics exactly.
    EXPECT_NEAR(report.total.blocked_total_s, blocked, 1e-9);
    EXPECT_NEAR(report.total.blocked_total_s, result.app_blocked_s, 1e-9)
        << to_string(scheme);
    EXPECT_NEAR(report.total.interference_s, result.interference_s, 1e-9)
        << to_string(scheme);
    EXPECT_NEAR(report.total.total_s(), result.app_blocked_s + result.interference_s, 1e-9)
        << to_string(scheme);
  }
}

TEST(Attribution, CoordNbBreakdownReproducesThePaperShape) {
  // The paper's central conclusion: for the write-through coordinated
  // scheme the overhead is the checkpoint *saving* (stable write + storage
  // contention), not the synchronization.
  const auto result = run_experiment(observed_sor(Scheme::kCoordNB));
  ASSERT_TRUE(result.obs);
  const obs::RankBuckets& total = result.obs->attribution.total;
  ASSERT_GT(total.total_s(), 0.0);
  const double saving = total.stable_write_s + total.storage_contention_s;
  EXPECT_GT(saving, 0.5 * total.total_s());
  EXPECT_LT(total.sync_wait_s, 0.10 * total.total_s());
  EXPECT_GT(saving, total.sync_wait_s);
  EXPECT_EQ(total.mem_copy_s, 0.0);  // write-through: no main-memory buffer
}

TEST(Attribution, BufferedSchemeTradesWritesForMemCopies) {
  // Coord_NBM blocks only for the main-memory copy; the stable write moves
  // to the background (interference), shrinking the blocked window.
  const auto nb = run_experiment(observed_sor(Scheme::kCoordNB));
  const auto nbm = run_experiment(observed_sor(Scheme::kCoordNBM));
  ASSERT_TRUE(nb.obs && nbm.obs);
  const obs::RankBuckets& nb_total = nb.obs->attribution.total;
  const obs::RankBuckets& nbm_total = nbm.obs->attribution.total;
  EXPECT_GT(nbm_total.mem_copy_s, 0.0);
  EXPECT_EQ(nbm_total.stable_write_s + nbm_total.storage_contention_s, 0.0);
  EXPECT_GT(nbm_total.interference_s, 0.0);
  EXPECT_LT(nbm_total.blocked_total_s, nb_total.blocked_total_s);
}

// ---- export round-trip ------------------------------------------------------

TEST(Export, ChromeTraceRoundTripsLosslessly) {
  const auto result = run_experiment(observed_sor(Scheme::kIndepMS));
  ASSERT_TRUE(result.obs);
  const obs::Trace& original = result.obs->trace;

  const obs::json::Value doc = obs::to_chrome_trace(original, 8);
  const std::string text = doc.dump();
  const obs::json::Value reparsed = obs::json::Value::parse(text);
  const obs::Trace rebuilt = obs::parse_chrome_trace(reparsed);

  EXPECT_EQ(rebuilt.events, original.events);
  EXPECT_EQ(rebuilt.hash, original.hash);
}

TEST(Export, MetricsJsonCarriesEveryMetric) {
  const auto result = run_experiment(observed_sor(Scheme::kCoordNBMS));
  ASSERT_TRUE(result.obs);
  const obs::json::Value doc = obs::metrics_to_json(result.obs->metrics);
  const obs::json::Value parsed = obs::json::Value::parse(doc.dump());
  EXPECT_EQ(parsed.at("counters").at("run/events").as_int(),
            static_cast<std::int64_t>(result.events));
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("run/exec_time_s").as_double(),
                   result.exec_time_s);
  EXPECT_TRUE(parsed.at("histograms").contains("ckpt/window_s"));
}

// ---- one-failure replay ------------------------------------------------------

TEST(Recovery, ReplayRestoresTheDigestWithAndWithoutLogging) {
  // One failure each under coordinated checkpointing (channel logs replay
  // the cut's in-transit messages) and under independent checkpointing with
  // message logging (the logged sends replay the lost messages): both
  // recoveries must restore the failure-free result.
  const auto normal = run_experiment(small_sor());
  for (bool logging : {false, true}) {
    auto config = small_sor(logging ? Scheme::kIndepM : Scheme::kCoordNB);
    config.checkpoints = 0;
    config.message_logging = logging;
    config.failure = FailureSpec{
        des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.55), 6};
    const auto result = run_experiment(config);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_EQ(result.digest, normal.digest) << (logging ? "message logging" : "coordinated");
  }
}

}  // namespace
}  // namespace chk::harness
