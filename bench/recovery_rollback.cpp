// Recovery behaviour: rollback distance, domino depth and recovery latency
// for coordinated vs independent checkpointing (the paper's §4 claims:
// coordinated gives "a predictable rollback distance" and is domino-free;
// independent is "prone to the domino-effect").
//
// For each (application, scheme) pair we crash a node at several points in
// the run and report how far the system rolled back and how much work was
// lost. Every recovered run's result is verified against the failure-free
// digest.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/parallel.hpp"

namespace chk::bench {
namespace {

struct Case {
  const char* app;
  Scheme scheme;
  bool logging = false;  ///< independent + pessimistic sender logging
  [[nodiscard]] std::string name() const {
    return std::string(to_string(scheme)) + (logging ? "+log" : "");
  }
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all{
      {"SOR-512", Scheme::kCoordNB, false},
      {"SOR-512", Scheme::kIndep, false},
      {"SOR-512", Scheme::kIndep, true},
      {"NQUEENS-14", Scheme::kCoordNB, false},
      {"NQUEENS-14", Scheme::kIndep, false},
  };
  return all;
}

const std::vector<double>& fail_fractions() {
  static const std::vector<double> fracs{0.35, 0.6, 0.85};
  return fracs;
}

/// The apps the cases run on; each gets one NORMAL baseline.
const std::vector<BenchRow>& apps() {
  static const std::vector<BenchRow> all{harness::find_row("SOR-512"),
                                         harness::find_row("NQUEENS-14")};
  return all;
}

std::size_t app_of(const Case& c) {
  return static_cast<std::size_t>(
      std::find_if(apps().begin(), apps().end(),
                   [&c](const BenchRow& row) { return row.label == c.app; }) -
      apps().begin());
}

ExperimentConfig case_config(ExperimentConfig config, const Case& c, double frac,
                             const ExperimentResult& normal) {
  config.scheme = c.scheme;
  config.checkpoints = 0;  // keep checkpointing until done
  config.interval = des::Duration::seconds(normal.exec_time_s / 5.0);
  config.message_logging = c.logging;
  config.failure = harness::FailureSpec{
      des::TimePoint::origin() + des::Duration::seconds(normal.exec_time_s * frac), 3};
  return config;
}

int run() {
  const std::vector<ExperimentConfig> baselines = row_configs(apps());
  const auto normals = util::parallel_map(
      baselines.size(), [&](std::size_t a) { return harness::run_normal(baselines[a]); });
  const std::size_t fracs = fail_fractions().size();
  const auto results = util::parallel_map(cases().size() * fracs, [&](std::size_t i) {
    const Case& c = cases()[i / fracs];
    return harness::run_experiment(case_config(baselines[app_of(c)], c,
                                               fail_fractions()[i % fracs],
                                               normals[app_of(c)]));
  });

  bool all_ok = true;
  util::Table table({"app", "scheme", "fail at", "rollback (s)", "domino depth",
                     "to origin?", "recovery (s)", "total (s)", "verified"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Case& c = cases()[i / fracs];
    const ExperimentResult& result = results[i];
    const bool verified = digest_ok(normals[app_of(c)], result);
    all_ok = all_ok && verified;
    if (result.recoveries.empty()) continue;
    const auto& report = result.recoveries.front();
    double max_rollback = 0;
    std::uint32_t max_depth = 0;
    for (const auto& d : report.rollback_distance) {
      max_rollback = std::max(max_rollback, d.to_seconds());
    }
    for (auto depth : report.domino_depth) max_depth = std::max(max_depth, depth);
    table.add_row({c.app, c.name(), util::Table::percent(fail_fractions()[i % fracs], 0),
                   util::Table::fixed(max_rollback, 1),
                   util::Table::integer(max_depth),
                   report.rolled_to_origin ? "YES" : "no",
                   util::Table::fixed(report.recovery_latency.to_seconds(), 2),
                   util::Table::fixed(result.exec_time_s, 1),
                   verified ? "ok" : "MISMATCH"});
  }
  std::fputs(table.render("Rollback behaviour under a node crash (all results verified "
                          "bit-identical)")
                 .c_str(),
             stdout);
  std::puts("\nCoordinated: bounded, predictable rollback (at most one interval).\n"
            "Independent on the tightly coupled app: domino to the initial state —\n"
            "all checkpointing work wasted. On the loosely coupled app the line holds.\n"
            "Indep+log (the paper's suggested message-logging remedy) recovers to\n"
            "the newest checkpoints like coordinated — trading storage for it.");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
