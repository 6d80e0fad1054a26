// SOR: successive over-relaxation solving Laplace's equation on a regular
// n x n grid (weighted-Jacobi form), block-row decomposition with halo
// exchange between vertical neighbours each iteration.
#pragma once

#include <span>
#include <vector>

#include "apps/common.hpp"

namespace chk::apps {

struct SorParams {
  std::size_t n = 512;          ///< grid dimension
  std::uint32_t iterations = 100;
};

/// Work per interior point per iteration (adds + multiplies).
inline constexpr double kSorFlopsPerPoint = 6.0;
/// Relaxation weight.
inline constexpr double kSorOmega = 0.8;
/// Fixed temperature on the top edge.
inline constexpr double kSorTopBoundary = 100.0;

[[nodiscard]] AppFn make_sor(SorParams params);

/// One sweep over `grid`, (rows + 2) x n doubles whose rows 0 and rows + 1
/// are halos: columns 1..n-2 of rows 1..rows are relaxed from the values
/// before the sweep. The app and its sequential reference both call it.
void sor_sweep(std::span<double> grid, std::size_t rows, std::size_t n);

/// Sequential reference: same arithmetic, same result bit-for-bit.
[[nodiscard]] double sor_reference_digest(const SorParams& params);

}  // namespace chk::apps
