// ASP: all-pairs shortest paths by Floyd's algorithm on a dense random
// digraph with N nodes; block-row decomposition. Iteration k broadcasts
// row k from its owner, then every rank relaxes its own rows.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "apps/common.hpp"

namespace chk::apps {

struct AspParams {
  std::size_t n = 256;
};

/// Work per matrix cell per iteration (add + compare + select).
inline constexpr double kAspFlopsPerCell = 2.0;
/// Heaviest generated edge.
inline constexpr std::int32_t kAspMaxWeight = 100;
/// The distance of a pair with no path (yet); two of them add without overflow.
inline constexpr std::int32_t kAspUnreachable = std::numeric_limits<std::int32_t>::max() / 4;

[[nodiscard]] AppFn make_asp(AspParams params);

/// Floyd's relaxation of one row through node k: row[j] becomes
/// min(row[j], row[k] + row_k[j]), unless row[k] is unreachable. `row_k`
/// is row k and must not overlap `row`. The app and its sequential
/// reference both call it.
void asp_relax(std::span<std::int32_t> row, std::span<const std::int32_t> row_k, std::size_t k);

/// Sequential Floyd on the same generated graph; exact integer match.
[[nodiscard]] double asp_reference_digest(const AspParams& params);

/// The deterministic edge weight generator shared by both versions.
[[nodiscard]] std::int32_t asp_edge_weight(std::size_t i, std::size_t j);

}  // namespace chk::apps
