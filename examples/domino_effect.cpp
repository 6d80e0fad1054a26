// The domino effect, demonstrated.
//
// Independent checkpointing saves each process on its own jittered timer.
// For a tightly coupled application (the SOR stencil: halo exchanges every
// iteration) the strict recovery line — the newest set of checkpoints with
// no message crossing it — collapses all the way to the initial state: the
// checkpoints were useless. A loosely coupled application (NQUEENS: no
// communication until the final reduction) keeps its newest checkpoints.
//
//   ./domino_effect [--fail-at-frac=0.8]
#include <cstdio>
#include <stdexcept>

#include "apps/nqueens.hpp"
#include "apps/sor.hpp"
#include "harness/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace chk;

harness::ExperimentResult run_case(const char* label, chklib::AppFn app, double fail_frac,
                                   bool verify) {
  harness::ExperimentConfig config;
  config.label = label;
  config.app = std::move(app);
  config.verify = verify;
  const auto normal = harness::run_normal(config);
  config.scheme = harness::Scheme::kIndep;
  config.checkpoints = 3;
  config.interval = des::Duration::seconds(normal.exec_time_s / 4.0);
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * fail_frac), 2};
  return harness::run_experiment(config);
}

void describe(const char* label, const harness::ExperimentResult& result) {
  const auto& report = result.recoveries.front();
  util::Table table({"rank", "newest ckpt", "restored ckpt", "rollback"});
  for (std::size_t r = 0; r < report.line.index.size(); ++r) {
    table.add_row({util::Table::integer(static_cast<long long>(r)),
                   util::Table::integer(report.line.index[r] + report.domino_depth[r]),
                   util::Table::integer(report.line.index[r]),
                   util::Table::seconds(report.rollback_distance[r].to_seconds())});
  }
  std::fputs(table.render(std::string(label) +
                          (report.rolled_to_origin
                               ? "  ->  DOMINO: rolled back to the initial state"
                               : "  ->  recovery line held"))
                 .c_str(),
             stdout);
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const double fail_frac = cli.get_double("fail-at-frac", 0.8, 0.0, 0.99);
  const bool verify = util::verify_requested(cli);
  cli.reject_unread();

  std::puts("Tightly coupled (SOR, halo exchange every iteration):");
  const auto sor =
      run_case("SOR", apps::make_sor({.n = 128, .iterations = 120}), fail_frac, verify);
  describe("SOR + Indep, strict line", sor);

  std::puts("Loosely coupled (NQUEENS, no communication until the end):");
  const auto nq = run_case("NQUEENS", apps::make_nqueens({.n = 11}), fail_frac, verify);
  describe("NQUEENS + Indep, strict line", nq);

  const bool ok = sor.recoveries.front().rolled_to_origin &&
                  !nq.recoveries.front().rolled_to_origin;
  std::puts(ok ? "Domino observed exactly where the theory predicts."
               : "NOTE: rollback pattern differs from the typical outcome for these sizes.");
  return 0;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
