// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// A Registry gives one experiment's metrics a typed, enumerable home:
// harness::run_metrics publishes every ExperimentResult counter here for
// any run (the snapshot every bench and campaign JSON cell carries), and an
// observed run's snapshot adds the per-rank overhead attribution and the
// trace-derived metrics. Names are kept in a sorted map so snapshots and
// their JSON serialization are deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chk::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. Bucket i counts samples with value <= edges[i]
/// (the first such i); samples above the last edge land in the overflow
/// bucket. Edges must be strictly increasing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& edges() const noexcept { return edges_; }
  /// counts().size() == edges().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t total_count() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0;
};

struct HistogramSnapshot {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t total_count = 0;
  double sum = 0;
};

/// Log-spaced (power-of-two) histogram over non-negative integer samples,
/// nanoseconds by convention. Bucket i counts samples <= 2^(min_exp + i);
/// samples above 2^max_exp land in the overflow bucket. observe() is O(1)
/// (bit_width), so it is cheap enough for per-request latency recording,
/// and the 2x geometric edges resolve tail quantiles (p999) that the
/// coarse fixed-bucket Histogram cannot.
class LogHistogram {
 public:
  /// `scale` converts integer samples to the exported unit at snapshot
  /// time (e.g. 1e-9 to export nanosecond samples with edges in seconds).
  LogHistogram(int min_exp, int max_exp, double scale = 1.0);

  void observe(std::uint64_t value) noexcept;

  /// Bucket index a sample falls into: 0..(max_exp - min_exp) for the
  /// edge buckets, max_exp - min_exp + 1 for overflow. Exposed so callers
  /// that keep raw per-rank count arrays in checkpointable state can use
  /// the exact same binning.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value, int min_exp,
                                             int max_exp) noexcept;
  /// Upper bucket edges 2^min_exp .. 2^max_exp, multiplied by `scale`.
  [[nodiscard]] static std::vector<double> make_edges(int min_exp, int max_exp,
                                                      double scale);

  [[nodiscard]] int min_exp() const noexcept { return min_exp_; }
  [[nodiscard]] int max_exp() const noexcept { return max_exp_; }
  /// counts().size() == (max_exp - min_exp + 1) + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t total_count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

  /// Same shape as a fixed-bucket histogram snapshot (edges scaled by
  /// `scale`, sum likewise), so the JSON export schema is unchanged.
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  int min_exp_;
  int max_exp_;
  double scale_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

/// Deterministic quantile estimate from a histogram snapshot: finds the
/// bucket holding the q-th sample and interpolates linearly inside it
/// (overflow samples report the last edge). q in [0, 1]; returns 0 for an
/// empty histogram.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& h, double q);

/// Typed point-in-time copy of a Registry (safe to keep past its death).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Creates the histogram on first use; `edges` is ignored on later
  /// lookups of the same name.
  Histogram& histogram(const std::string& name, std::vector<double> edges);
  /// Log-spaced sibling of histogram(); shares the snapshot namespace, so
  /// a name may be either fixed-bucket or log-spaced, never both.
  LogHistogram& log_histogram(const std::string& name, int min_exp, int max_exp,
                              double scale = 1.0);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, LogHistogram> log_histograms_;
};

}  // namespace chk::obs
