// NBODY: direct-summation gravitational N-body simulation. Bodies are
// block-distributed; each timestep pipelines every block around a ring so
// all ranks accumulate forces from all bodies, then integrates (leapfrog).
#pragma once

#include <cstdint>
#include <span>

#include "apps/common.hpp"

namespace chk::apps {

struct NbodyParams {
  std::size_t bodies = 2048;
  std::uint32_t steps = 10;
};

/// Integration timestep.
inline constexpr double kNbodyDt = 1e-3;
/// Plummer softening length.
inline constexpr double kNbodySoftening = 1e-2;

/// Work per interacting pair (distance, inverse-law, accumulate).
inline constexpr double kNbodyFlopsPerPair = 22.0;
/// Work per body per integration step.
inline constexpr double kNbodyFlopsPerBody = 12.0;

[[nodiscard]] AppFn make_nbody(NbodyParams params);

/// Adds to fx[i] and fy[i] the force that the bodies of `other` (x, y,
/// mass triplets) exert on body i at (px[i], py[i]), summed over `other`
/// in order. In the self block (`other` packs this block) a body exerts no
/// force on itself. The app and its sequential reference both call it.
void nbody_accumulate(std::span<const double> px, std::span<const double> py,
                      std::span<const double> other, bool self_block, std::span<double> fx,
                      std::span<double> fy);

/// Sequential reference with the same block-ordered force accumulation as
/// the P-rank parallel run (bit-exact for matching nprocs).
[[nodiscard]] double nbody_reference_digest(const NbodyParams& params, std::size_t nprocs);

}  // namespace chk::apps
