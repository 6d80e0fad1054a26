// NQUEENS: counts the solutions of the N-queens problem. Jobs are the
// non-attacking placements of the first two rows, dealt cyclically across
// ranks; almost no communication until the final sum reduction — the
// loosely-coupled contrast to the stencil benchmarks.
#pragma once

#include <cstdint>

#include "apps/common.hpp"

namespace chk::apps {

struct NQueensParams {
  std::uint32_t n = 12;
};

/// Modelled cost per explored search node.
inline constexpr double kNQueensFlopsPerNode = 10.0;

[[nodiscard]] AppFn make_nqueens(NQueensParams params);

/// Known solution counts (exact), e.g. 8 -> 92, 12 -> 14200, 13 -> 73712.
[[nodiscard]] std::uint64_t nqueens_reference_count(std::uint32_t n);

}  // namespace chk::apps
