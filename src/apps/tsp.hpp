// TSP: branch-and-bound over a dense symmetric map. Rank 0 is the job
// master handing out fixed tour prefixes on request; workers run
// depth-first branch-and-bound on the suffix, pruning with their local
// best, and the global optimum is combined by a min-reduction at the end.
#pragma once

#include <cstdint>

#include "apps/common.hpp"

namespace chk::apps {

struct TspParams {
  std::size_t cities = 14;   ///< the paper used a dense 16-city map; 14 keeps
                             ///< the explored tree tractable for repeated runs
};

/// Longest edge of the generated map.
inline constexpr std::int32_t kTspMaxDistance = 100;
/// Modelled cost per explored search node.
inline constexpr double kTspFlopsPerNode = 40.0;

[[nodiscard]] AppFn make_tsp(TspParams params);

/// Sequential branch-and-bound optimum (schedule independent).
[[nodiscard]] double tsp_reference_digest(const TspParams& params);

/// Deterministic symmetric distance in [1, kTspMaxDistance] between two
/// distinct cities.
[[nodiscard]] std::int32_t tsp_distance(std::size_t a, std::size_t b);

}  // namespace chk::apps
