#include "obs/metrics.hpp"

#include <bit>
#include <cmath>

namespace chk::obs {

std::size_t LogHistogram::bucket_of(std::uint64_t value, int min_exp,
                                    int max_exp) noexcept {
  // Smallest e with value <= 2^e is bit_width(value) - 1 for powers of two
  // and bit_width(value) otherwise; value 0 sits in the first bucket.
  int e = 0;
  if (value > 1) {
    e = static_cast<int>(std::bit_width(value - 1));  // ceil(log2(value))
  }
  if (e <= min_exp) return 0;
  if (e > max_exp) return static_cast<std::size_t>(max_exp - min_exp) + 1;
  return static_cast<std::size_t>(e - min_exp);
}

std::vector<double> LogHistogram::make_edges(int min_exp, int max_exp,
                                             double scale) {
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(max_exp - min_exp + 1));
  for (int e = min_exp; e <= max_exp; ++e) {
    edges.push_back(std::ldexp(1.0, e) * scale);
  }
  return edges;
}

double histogram_quantile(const HistogramSnapshot& h, double q) {
  if (h.total_count == 0 || h.edges.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based; ceil keeps p100 at the last sample.
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.total_count)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    if (cum + h.counts[i] >= rank) {
      if (i >= h.edges.size()) return h.edges.back();  // overflow bucket
      const double lower = i == 0 ? 0.0 : h.edges[i - 1];
      const double upper = h.edges[i];
      const double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(h.counts[i]);
      return lower + frac * (upper - lower);
    }
    cum += h.counts[i];
  }
  return h.edges.back();
}

}  // namespace chk::obs
