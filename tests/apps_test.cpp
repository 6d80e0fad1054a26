// Application benchmark tests: every app's parallel result is verified
// against a sequential reference (bit-exact where the algorithm allows),
// runs deterministically, and survives checkpoint/rollback cycles with an
// unchanged result.
#include <gtest/gtest.h>

#include "apps/asp.hpp"
#include "apps/gauss.hpp"
#include "apps/ising.hpp"
#include "apps/nbody.hpp"
#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "apps/tsp.hpp"
#include "harness/experiment.hpp"

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
