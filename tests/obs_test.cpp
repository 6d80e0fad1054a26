// Tests for the obs/ observability subsystem: tracer determinism and
// non-perturbation, metrics histogram semantics, the per-rank overhead
// attribution identity across every scheme, the Chrome-trace export
// round-trip, and the recovery report's logged_sends contract.
#include <gtest/gtest.h>

#include <string>
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
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1.0 -> bucket 0
  h.observe(1.0);   // <= 1.0 -> bucket 0 (inclusive upper edge)
  h.observe(1.5);   // <= 2.0 -> bucket 1
  h.observe(4.0);   // <= 4.0 -> bucket 2
  h.observe(99.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
}

TEST(Metrics, HistogramRejectsNonIncreasingEdges) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
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

// ---- recovery report contract (logged_sends lifecycle) ----------------------

TEST(Recovery, FinishedReportsHaveEmptyLoggedSends) {
  // logged_sends is replay scratch: it carries payloads from the stable
  // logs to the re-injection step and must be cleared before the report is
  // published — whether or not anything was replayed.
  const auto normal = run_experiment(small_sor());
  for (bool logging : {false, true}) {
    auto config = small_sor(logging ? Scheme::kIndepM : Scheme::kCoordNB);
    config.checkpoints = 0;
    config.message_logging = logging;
    config.failure = FailureSpec{
        des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.55), 6};
    const auto result = run_experiment(config);
    ASSERT_EQ(result.recoveries.size(), 1u);
    EXPECT_TRUE(result.recoveries[0].logged_sends.empty())
        << (logging ? "message logging" : "coordinated");
    EXPECT_EQ(result.digest, normal.digest);
  }
}

}  // namespace
}  // namespace chk::harness
