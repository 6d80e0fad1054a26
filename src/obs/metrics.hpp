// Metrics snapshots: named counters, gauges and bucketed histograms.
//
// A MetricsSnapshot is one run's metrics: harness::run_metrics fills it
// with every ExperimentResult counter for any run (the snapshot every
// bench and campaign JSON cell carries), and an observed run's snapshot
// adds the per-rank overhead attribution and the trace-derived metrics.
// Names are kept in sorted maps so snapshots and their JSON serialization
// are deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chk::obs {

/// A bucketed histogram. Bucket i counts samples with value <= edges[i]
/// (the first such i); samples above the last edge land in the overflow
/// bucket, so counts.size() == edges.size() + 1.
struct HistogramSnapshot {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t total_count = 0;
  double sum = 0;
};

/// Log-spaced (power-of-two) binning of non-negative integer samples,
/// nanoseconds by convention: bucket i counts samples <= 2^(min_exp + i),
/// and samples above 2^max_exp land in the overflow bucket. Binning is
/// O(1) (bit_width), cheap enough for per-request latency recording, and
/// the 2x geometric edges resolve tail quantiles (p999).
struct LogHistogram {
  /// Bucket index a sample falls into: 0..(max_exp - min_exp) for the
  /// edge buckets, max_exp - min_exp + 1 for overflow. Callers that keep
  /// raw per-rank count arrays in checkpointable state bin with it.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value, int min_exp,
                                             int max_exp) noexcept;
  /// Upper bucket edges 2^min_exp .. 2^max_exp, multiplied by `scale`
  /// (e.g. 1e-9 for nanosecond samples with edges in seconds).
  [[nodiscard]] static std::vector<double> make_edges(int min_exp, int max_exp,
                                                      double scale);
};

/// Deterministic quantile estimate from a histogram snapshot: finds the
/// bucket holding the q-th sample and interpolates linearly inside it
/// (overflow samples report the last edge). q is clamped to [0, 1];
/// returns 0 for an empty histogram.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& h, double q);

/// One run's metrics by name.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

}  // namespace chk::obs
