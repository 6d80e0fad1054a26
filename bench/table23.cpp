// Tables 2 and 3 of the paper, printed from one set of runs.
//
// Table 2: execution times of the checkpointing schemes. SOR and ISING run
// 100 iterations, NBODY simulates 10 steps (as in the paper); every
// application is checkpointed 3 times during its execution, with a
// per-application interval (the paper used 1-7 minutes; here the interval
// is a quarter of the failure-free execution time so three checkpoints
// always fit, and is printed alongside, as in the paper).
//
// Table 3: performance overhead (%) of the same runs, plus the paper's
// headline metric — the overhead reduction factor of Coord_NBMS relative
// to Coord_NB (the paper observed factors of 4 up to 17).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table2(const std::vector<BenchRow>& rows, const std::vector<RowResults>& results) {
  util::Table table({"", "Interval (s)", "NORMAL", "COORD NB", "INDEP", "COORD NBMS",
                     "INDEP M"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = results[r].normal;
    std::vector<std::string> cells{rows[r].label};
    cells.push_back(util::Table::fixed(normal.exec_time_s / 4.0, 0));
    cells.push_back(util::Table::fixed(normal.exec_time_s, 1));
    for (const ExperimentResult& result : results[r].cells) {
      cells.push_back(util::Table::fixed(result.exec_time_s, 1));
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.render(
                 "Table 2: execution times (seconds), 3 checkpoints per run, 8 nodes")
                 .c_str(),
             stdout);
}

void print_table3(const std::vector<BenchRow>& rows, const std::vector<RowResults>& results) {
  util::Table table({"", "Interval (s)", "COORD NB", "INDEP", "COORD NBMS", "INDEP M",
                     "NBMS gain vs NB"});
  double min_factor = 1e300, max_factor = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ExperimentResult& normal = results[r].normal;
    std::vector<std::string> cells{rows[r].label};
    cells.push_back(util::Table::fixed(normal.exec_time_s / 4.0, 0));
    double nb_overhead = -1, nbms_overhead = -1;
    for (const ExperimentResult& result : results[r].cells) {
      const double overhead = result.exec_time_s / normal.exec_time_s - 1.0;
      cells.push_back(util::Table::percent(overhead, 2));
      if (result.scheme == Scheme::kCoordNB) nb_overhead = overhead;
      if (result.scheme == Scheme::kCoordNBMS) nbms_overhead = overhead;
    }
    if (nb_overhead > 0 && nbms_overhead > 0) {
      const double factor = nb_overhead / nbms_overhead;
      cells.push_back(util::format("{:.1f}x", factor));
      // The paper's 4-17x range is over rows with substantive overhead;
      // near-zero overheads make the ratio meaningless.
      if (nb_overhead >= 0.02) {
        min_factor = std::min(min_factor, factor);
        max_factor = std::max(max_factor, factor);
      }
    } else {
      cells.push_back("-");
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.render("Table 3: performance overhead of the checkpointing schemes")
                 .c_str(),
             stdout);
  if (max_factor > 0) {
    std::printf(
        "\nCoord_NBMS reduces the overhead of Coord_NB by a factor of %.1f up to %.1f"
        " (paper: 4 up to 17).\n",
        min_factor, max_factor);
  }
}

int run() {
  const std::vector<BenchRow> rows = harness::table23_rows();
  const std::vector<ExperimentConfig> baselines = row_configs(rows);
  const auto results = run_rows(
      baselines, table23_schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        return with_checkpoints(baselines[r], table23_schemes()[s], 3, normal);
      });
  print_table2(rows, results);
  write_bench_json("BENCH_table2.json", table_json("table2_execution_times", rows, results));
  print_table3(rows, results);
  write_bench_json("BENCH_table3.json", table_json("table3_overhead_percent", rows, results));
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
