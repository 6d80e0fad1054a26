// GAUSS: solves a dense diagonally-dominant linear system A x = b by
// Gaussian elimination (no pivoting needed) with cyclic row distribution:
// iteration k broadcasts the pivot row from its owner and every rank
// eliminates its rows below k; back substitution then broadcasts each x_k
// in reverse order.
#pragma once

#include <cstdint>
#include <span>

#include "apps/common.hpp"

namespace chk::apps {

struct GaussParams {
  std::size_t n = 256;
};

/// Work per eliminated element (multiply + subtract).
inline constexpr double kGaussFlopsPerElement = 2.0;

[[nodiscard]] AppFn make_gauss(GaussParams params);

/// Eliminates column k of `row` with the pivot row, both n + 1 wide
/// (augmented with b) and not overlapping: row[j] -= factor * pivot[j] for
/// every j > k, with factor = row[k] / pivot[k], and row[k] becomes 0.
void gauss_eliminate(std::span<double> row, std::span<const double> pivot, std::size_t k);

/// Back substitution for x[k] from the eliminated `row` and the entries of
/// `x` above k: (row[n] - row[k+1] x[k+1] - ... - row[n-1] x[n-1]) / row[k],
/// subtracting in that order, with n = x.size().
[[nodiscard]] double gauss_back_substitute(std::span<const double> row,
                                           std::span<const double> x, std::size_t k);

/// Sequential elimination + substitution; exact match (same arithmetic).
[[nodiscard]] double gauss_reference_digest(const GaussParams& params);

}  // namespace chk::apps
