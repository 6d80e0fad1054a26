// Application benchmark tests: every app's parallel result is verified
// against a sequential reference (bit-exact where the algorithm allows),
// runs deterministically, and survives checkpoint/rollback cycles with an
// unchanged result. The vector kernels that the apps and their references
// share are checked bit for bit against the scalar loops they replaced, on
// shapes the pinned runs never reach.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string_view>

#include "apps/asp.hpp"
#include "apps/gauss.hpp"
#include "apps/ising.hpp"
#include "apps/nbody.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "harness/experiment.hpp"
#include "pinned_runs.hpp"

namespace chk::apps {
namespace {

using harness::ExperimentConfig;
using harness::run_experiment;
using harness::Scheme;

ExperimentConfig base_config(std::string label, AppFn app) {
  ExperimentConfig config;
  config.label = std::move(label);
  config.app = std::move(app);
  return config;
}

double run_digest(AppFn app, std::size_t nodes = 8) {
  ExperimentConfig config = base_config("t", std::move(app));
  config.machine.num_nodes = nodes;
  const auto result = run_experiment(config);
  return result.digest.value();
}

TEST(Sor, MatchesSequentialReference) {
  const SorParams params{.n = 64, .iterations = 30};
  EXPECT_EQ(run_digest(make_sor(params)), sor_reference_digest(params));
}

TEST(Sor, MatchesReferenceOnOtherRankCounts) {
  const SorParams params{.n = 48, .iterations = 20};
  const double expected = sor_reference_digest(params);
  for (std::size_t nodes : {1u, 2u, 4u}) {
    EXPECT_EQ(run_digest(make_sor(params), nodes), expected) << nodes << " nodes";
  }
}

TEST(Sor, HeatSpreadsFromBoundary) {
  // After enough iterations the interior must be warmer than at start.
  const SorParams params{.n = 32, .iterations = 200};
  EXPECT_GT(run_digest(make_sor(params)), 0.0);
}

TEST(Asp, MatchesSequentialFloyd) {
  const AspParams params{.n = 48};
  EXPECT_EQ(run_digest(make_asp(params)), asp_reference_digest(params));
}

TEST(Asp, PartitionIndependent) {
  const AspParams params{.n = 40};
  const double expected = asp_reference_digest(params);
  for (std::size_t nodes : {1u, 4u, 8u}) {
    EXPECT_EQ(run_digest(make_asp(params), nodes), expected);
  }
}

TEST(Asp, TriangleInequalityHolds) {
  // Property of the output: d(i,j) <= d(i,k) + d(k,j) for the final matrix.
  const std::size_t n = 24;
  std::vector<std::int32_t> dist(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) dist[i * n + j] = asp_edge_weight(i, j);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dist[i * n + j] = std::min(dist[i * n + j], dist[i * n + k] + dist[k * n + j]);
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_LE(dist[i * n + j], dist[i * n + k] + dist[k * n + j]);
      }
    }
  }
}

TEST(Gauss, MatchesSequentialElimination) {
  const GaussParams params{.n = 48};
  EXPECT_EQ(run_digest(make_gauss(params)), gauss_reference_digest(params));
}

TEST(Gauss, PartitionIndependent) {
  const GaussParams params{.n = 40};
  const double expected = gauss_reference_digest(params);
  for (std::size_t nodes : {1u, 2u, 8u}) {
    EXPECT_EQ(run_digest(make_gauss(params), nodes), expected);
  }
}

TEST(Nbody, MatchesBlockOrderedReference) {
  const NbodyParams params{.bodies = 64, .steps = 5};
  EXPECT_EQ(run_digest(make_nbody(params)), nbody_reference_digest(params, 8));
}

TEST(Nbody, UnevenBlocksStillCorrect) {
  const NbodyParams params{.bodies = 61, .steps = 3};  // 61 % 8 != 0
  EXPECT_EQ(run_digest(make_nbody(params)), nbody_reference_digest(params, 8));
}

TEST(Tsp, FindsTheOptimum) {
  const TspParams params{.cities = 9};
  EXPECT_EQ(run_digest(make_tsp(params)), tsp_reference_digest(params));
}

TEST(Tsp, OptimumIndependentOfWorkerCount) {
  const TspParams params{.cities = 9};
  const double expected = tsp_reference_digest(params);
  for (std::size_t nodes : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(run_digest(make_tsp(params), nodes), expected);
  }
}

TEST(NQueens, KnownCounts) {
  EXPECT_EQ(run_digest(make_nqueens({.n = 8})), 92.0);
  EXPECT_EQ(run_digest(make_nqueens({.n = 10})), 724.0);
}

TEST(NQueens, CountIndependentOfRankCount) {
  for (std::size_t nodes : {1u, 3u, 8u}) {
    EXPECT_EQ(run_digest(make_nqueens({.n = 9}), nodes), 352.0);
  }
}

TEST(Ising, DeterministicAcrossRuns) {
  const IsingParams params{.n = 64, .sweeps = 10};
  EXPECT_EQ(run_digest(make_ising(params)), run_digest(make_ising(params)));
}

TEST(Ising, MagnetizationWithinBounds) {
  const IsingParams params{.n = 64, .sweeps = 10};
  const double m = run_digest(make_ising(params));
  EXPECT_LE(std::abs(m), 64.0 * 64.0);
}

TEST(Ising, ColdFerromagnetOrdersHotDoesNot) {
  // Physical sanity (uniform couplings): far below the critical
  // temperature the lattice magnetizes; far above it stays disordered.
  const double cold =
      run_digest(make_ising({.n = 48, .sweeps = 60, .beta = 1.2, .glass = false}));
  const double hot =
      run_digest(make_ising({.n = 48, .sweeps = 60, .beta = 0.05, .glass = false}));
  const double sites = 48.0 * 48.0;
  EXPECT_GT(std::abs(cold) / sites, 0.7);
  EXPECT_LT(std::abs(hot) / sites, 0.2);
}

TEST(Ising, SpinGlassStaysFrustrated) {
  // With quenched random couplings the system cannot globally magnetize
  // even at low temperature (frustration).
  const double cold = run_digest(make_ising({.n = 48, .sweeps = 60, .beta = 1.2}));
  EXPECT_LT(std::abs(cold) / (48.0 * 48.0), 0.3);
}

// ---- vector kernels against the scalar loops they replaced ----------------

/// Doubles of both signs spread over 2^-30..2^30, so that any change to a
/// rounding step shows in the bits.
std::vector<double> mixed_doubles(std::size_t count, std::uint64_t seed) {
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t key = seed * 1'000'003 + i;
    const auto scale = static_cast<int>(hash_int(key ^ 0x5bd1e995, -30, 30));
    out[i] = (hash_unit(key) - 0.5) * std::ldexp(1.0, scale);
  }
  return out;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The oracles below are the loops the kernels replaced, copied as they
// were; only the names of the state they read changed.

void sor_sweep_oracle(std::vector<double>& grid, std::size_t rows, std::size_t n) {
  auto cell = [&](std::size_t i, std::size_t j) -> double& { return grid[i * n + j]; };
  std::vector<double> next(rows * n);
  const double w = kSorOmega;
  for (std::size_t i = 1; i <= rows; ++i) {
    for (std::size_t j = 1; j + 1 < n; ++j) {
      const double around =
          cell(i - 1, j) + cell(i + 1, j) + cell(i, j - 1) + cell(i, j + 1);
      next[(i - 1) * n + j] = (1.0 - w) * cell(i, j) + w * 0.25 * around;
    }
  }
  for (std::size_t i = 1; i <= rows; ++i) {
    for (std::size_t j = 1; j + 1 < n; ++j) cell(i, j) = next[(i - 1) * n + j];
  }
}

void asp_relax_oracle(std::vector<std::int32_t>& dist, std::size_t rows, std::size_t n,
                      std::size_t k, const std::vector<std::int32_t>& row_k) {
  constexpr std::int32_t kInf = kAspUnreachable;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int32_t via = dist[i * n + k];
    if (via >= kInf) continue;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int32_t candidate = via + row_k[j];
      if (candidate < dist[i * n + j]) dist[i * n + j] = candidate;
    }
  }
}

void gauss_eliminate_oracle(double* row, const std::vector<double>& pivot, std::size_t k,
                            std::size_t width) {
  const double factor = row[k] / pivot[k];
  row[k] = 0.0;
  for (std::size_t j = k + 1; j < width; ++j) row[j] -= factor * pivot[j];
}

double gauss_back_substitute_oracle(const double* row, const std::vector<double>& x,
                                    std::size_t k, std::size_t n) {
  double acc = row[n];
  for (std::size_t j = k + 1; j < n; ++j) acc -= row[j] * x[j];
  return acc / row[k];
}

void nbody_accumulate_oracle(const std::vector<double>& px, const std::vector<double>& py,
                             const std::vector<double>& other, bool self_block,
                             std::vector<double>& fx, std::vector<double>& fy) {
  const std::size_t mine = px.size();
  const std::size_t theirs = other.size() / 3;
  const double eps2 = kNbodySoftening * kNbodySoftening;
  for (std::size_t i = 0; i < mine; ++i) {
    double ax = 0.0, ay = 0.0;
    for (std::size_t j = 0; j < theirs; ++j) {
      if (self_block && i == j) continue;
      const double dx = other[3 * j] - px[i];
      const double dy = other[3 * j + 1] - py[i];
      const double r2 = dx * dx + dy * dy + eps2;
      const double inv = 1.0 / (r2 * std::sqrt(r2));
      const double s = other[3 * j + 2] * inv;
      ax += s * dx;
      ay += s * dy;
    }
    fx[i] += ax;
    fy[i] += ay;
  }
}

TEST(Kernels, SorSweepMatchesTheScalarLoopBitForBit) {
  for (const std::size_t rows : {0u, 1u, 2u, 3u}) {
    for (const std::size_t n : {3u, 4u, 5u, 17u}) {
      const std::vector<double> initial = mixed_doubles((rows + 2) * n, 100 * rows + n);
      std::vector<double> grid = initial;
      std::vector<double> expected = initial;
      for (int sweep = 0; sweep < 3; ++sweep) {
        sor_sweep(grid, rows, n);
        sor_sweep_oracle(expected, rows, n);
      }
      EXPECT_TRUE(same_bits(grid, expected)) << rows << " rows, n = " << n;
      EXPECT_EQ(same_bits(grid, initial), rows == 0) << rows << " rows, n = " << n;
    }
  }
}

TEST(Kernels, AspRelaxMatchesTheScalarLoopBitForBit) {
  for (const std::size_t n : {5u, 6u, 7u, 9u}) {
    std::vector<std::int32_t> dist(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t key = 7919 * n + i * n + j;
        dist[i * n + j] = i == j ? 0
                          : hash_int(key, 0, 2) == 0
                              ? kAspUnreachable
                              : static_cast<std::int32_t>(hash_int(key ^ 0xabc, 1, 200));
      }
    }
    dist[1 * n + 0] = kAspUnreachable;  // row 1's via is unreachable at k = 0
    std::vector<std::int32_t> expected = dist;
    std::size_t unreachable_vias = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const auto source = std::span(dist).subspan(k * n, n);
      const std::vector<std::int32_t> row_k(source.begin(), source.end());
      for (std::size_t i = 0; i < n; ++i) {
        if (dist[i * n + k] >= kAspUnreachable) ++unreachable_vias;
        asp_relax(std::span(dist).subspan(i * n, n), row_k, k);
      }
      asp_relax_oracle(expected, n, n, k, row_k);
      ASSERT_TRUE(same_bits(dist, expected)) << "n = " << n << ", k = " << k;
    }
    EXPECT_GT(unreachable_vias, 0u) << "n = " << n;
  }
}

TEST(Kernels, GaussKernelsMatchTheScalarLoopsBitForBit) {
  for (const std::size_t width : {5u, 6u, 9u, 10u}) {
    const std::size_t n = width - 1;
    for (std::size_t k = 0; k + 1 < width; ++k) {  // k = width - 2 leaves one column
      const std::vector<double> pivot = mixed_doubles(width, 10 * width + k);
      const std::vector<double> initial = mixed_doubles(width, 1000 + 10 * width + k);
      std::vector<double> row = initial;
      std::vector<double> expected = initial;
      gauss_eliminate(row, pivot, k);
      gauss_eliminate_oracle(expected.data(), pivot, k, width);
      EXPECT_TRUE(same_bits(row, expected)) << "width " << width << ", k = " << k;

      const std::vector<double> x = mixed_doubles(n, 2000 + 10 * width + k);
      EXPECT_TRUE(same_bits(gauss_back_substitute(initial, x, k),
                            gauss_back_substitute_oracle(initial.data(), x, k, n)))
          << "width " << width << ", k = " << k;
    }
  }
}

TEST(Kernels, NbodyAccumulateMatchesTheScalarLoopBitForBit) {
  auto bodies = [](std::size_t count, std::uint64_t seed) {
    std::vector<double> triplets(3 * count);
    for (std::size_t j = 0; j < count; ++j) {
      triplets[3 * j] = 2.0 * hash_unit(seed + 3 * j) - 1.0;
      triplets[3 * j + 1] = 2.0 * hash_unit(seed + 3 * j + 1) - 1.0;
      triplets[3 * j + 2] = 0.5 + hash_unit(seed + 3 * j + 2);
    }
    return triplets;
  };
  auto check = [](const std::vector<double>& mine, const std::vector<double>& other,
                  bool self_block, const std::string& what) {
    std::vector<double> px, py;
    for (std::size_t i = 0; i < mine.size() / 3; ++i) {
      px.push_back(mine[3 * i]);
      py.push_back(mine[3 * i + 1]);
    }
    std::vector<double> fx = mixed_doubles(px.size(), 31);
    std::vector<double> fy = mixed_doubles(px.size(), 37);
    std::vector<double> expected_fx = fx, expected_fy = fy;
    nbody_accumulate(px, py, other, self_block, fx, fy);
    nbody_accumulate_oracle(px, py, other, self_block, expected_fx, expected_fy);
    EXPECT_TRUE(same_bits(fx, expected_fx)) << what;
    EXPECT_TRUE(same_bits(fy, expected_fy)) << what;
  };
  for (const std::size_t mine : {1u, 2u, 3u, 33u}) {
    const std::vector<double> block = bodies(mine, 100 * mine);
    // The self block as the app passes it (each body's own term is +0.0
    // anyway), and against other bodies, where dropping the i == j term
    // changes the sum. Bodies i and i + 1 share a vector, so i == j falls
    // on lane 0 for even i and on lane 1 for odd i.
    check(block, block, true, "self block of " + std::to_string(mine));
    check(block, bodies(mine, 7 + mine), true, "self-flagged block of " + std::to_string(mine));
    for (const std::size_t theirs : {1u, 2u, 3u, 33u}) {
      check(block, bodies(theirs, 5000 + theirs), false,
            std::to_string(mine) + " bodies by " + std::to_string(theirs));
    }
  }
}

TEST(Kernels, ReferencesReproducePinnedDigests) {
  // The references share the kernels with the apps, so the pinned digests
  // are what shows that a build (-O3, -march) computes the original bits.
  const auto pinned_digest = [](std::string_view label) {
    for (const pinned::AppRow& row : pinned::kAppRows) {
      if (label == row.label) return row.digest;
    }
    ADD_FAILURE() << "no pinned row " << label;
    return 0.0;
  };
  EXPECT_EQ(sor_reference_digest({.n = 384, .iterations = 100}), pinned::kSor384Digest);
  EXPECT_EQ(asp_reference_digest({.n = 128}), pinned_digest("ASP-128"));
  EXPECT_EQ(gauss_reference_digest({.n = 128}), pinned_digest("GAUSS-128"));
  EXPECT_EQ(nbody_reference_digest({.bodies = 256, .steps = 4}, 8), pinned_digest("NBODY-256"));
}

// ---- checkpoint/recovery round trips for every app ------------------------

struct RecoveryCase {
  const char* name;
  AppFn app;
};

class AppRecoveryTest : public ::testing::TestWithParam<int> {};

std::vector<RecoveryCase> recovery_cases() {
  std::vector<RecoveryCase> cases;
  cases.push_back({"SOR", make_sor({.n = 64, .iterations = 60})});
  cases.push_back({"ISING", make_ising({.n = 64, .sweeps = 60})});
  cases.push_back({"ASP", make_asp({.n = 96})});
  cases.push_back({"GAUSS", make_gauss({.n = 96})});
  cases.push_back({"NBODY", make_nbody({.bodies = 96, .steps = 30})});
  cases.push_back({"TSP", make_tsp({.cities = 10})});
  cases.push_back({"NQUEENS", make_nqueens({.n = 10})});
  return cases;
}

TEST_P(AppRecoveryTest, CoordinatedRecoveryPreservesResult) {
  const auto test_case = recovery_cases()[static_cast<std::size_t>(GetParam())];
  ExperimentConfig config = base_config(test_case.name, test_case.app);
  const auto normal = run_experiment(config);

  config.scheme = Scheme::kCoordNB;
  config.checkpoints = 0;  // checkpoint until the run ends
  config.interval = des::Duration::seconds(normal.exec_time_s / 5.0);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.6), 1};
  const auto recovered = run_experiment(config);
  ASSERT_EQ(recovered.recoveries.size(), 1u) << test_case.name;
  EXPECT_EQ(recovered.digest.value(), normal.digest.value()) << test_case.name;
  EXPECT_GT(recovered.exec_time_s, normal.exec_time_s) << test_case.name;
}

TEST_P(AppRecoveryTest, IndependentDominoRecoveryPreservesResult) {
  const auto test_case = recovery_cases()[static_cast<std::size_t>(GetParam())];
  ExperimentConfig config = base_config(test_case.name, test_case.app);
  const auto normal = run_experiment(config);

  config.scheme = Scheme::kIndep;
  config.checkpoints = 2;
  config.interval = des::Duration::seconds(normal.exec_time_s / 4.0);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * 0.7), 4};
  const auto recovered = run_experiment(config);
  ASSERT_EQ(recovered.recoveries.size(), 1u) << test_case.name;
  EXPECT_EQ(recovered.digest.value(), normal.digest.value()) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppRecoveryTest, ::testing::Range(0, 7),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return std::string(recovery_cases()[static_cast<std::size_t>(param_info.param)].name);
    });

}  // namespace
}  // namespace chk::apps
