// Table 1 of the paper: overhead per checkpoint (seconds) for the 21
// application configurations under Coord_NB, Indep, Coord_NBM, Indep_M and
// Coord_NBMS.
//
// Methodology (matching the paper's definition): run each configuration
// without checkpointing, then with exactly one checkpoint per process near
// mid-run; the overhead per checkpoint is the difference in completion
// time. Expected shape: Indep is NOT better than Coord_NB in most rows
// (autonomous checkpoints stall tightly-coupled neighbours once per node);
// Indep_M edges out Coord_NBM (spread background writes contend less); and
// Coord_NBMS beats everything.
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<BenchRow>& rows, const std::vector<RowResults>& results) {
  util::Table table({"Applications", "Coord NB", "Indep", "Coord NBM", "Indep M",
                     "Coord NBMS"});
  int nb_wins = 0, nb_comparisons = 0;
  int indep_m_wins = 0, m_comparisons = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> cells{rows[r].label};
    double nb = -1, indep = -1, nbm = -1, indep_m = -1;
    for (const ExperimentResult& result : results[r].cells) {
      const double overhead = result.exec_time_s - results[r].normal.exec_time_s;
      cells.push_back(util::Table::fixed(overhead, 2));
      if (result.scheme == Scheme::kCoordNB) nb = overhead;
      if (result.scheme == Scheme::kIndep) indep = overhead;
      if (result.scheme == Scheme::kCoordNBM) nbm = overhead;
      if (result.scheme == Scheme::kIndepM) indep_m = overhead;
    }
    if (nb >= 0 && indep >= 0) {
      ++nb_comparisons;
      nb_wins += (indep >= nb);
    }
    if (nbm >= 0 && indep_m >= 0) {
      ++m_comparisons;
      indep_m_wins += (indep_m <= nbm);
    }
    table.add_row(std::move(cells));
  }
  std::fputs(
      table.render("Table 1: overhead per checkpoint (seconds), 8 nodes").c_str(),
      stdout);
  std::printf("\nPaper's qualitative findings on this run:\n");
  std::printf("  Indep did not beat Coord_NB in %d of %d configurations"
              " (paper: 15 of 21).\n", nb_wins, nb_comparisons);
  std::printf("  Indep_M at least matched Coord_NBM in %d of %d configurations"
              " (paper: 12 of 15 decided).\n", indep_m_wins, m_comparisons);
}

int run() {
  const std::vector<BenchRow> rows = harness::table1_rows();
  const std::vector<ExperimentConfig> baselines = row_configs(rows);
  const auto results = run_rows(
      baselines, paper_schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        return with_checkpoints(baselines[r], paper_schemes()[s], 1, normal);
      });
  print_table(rows, results);
  write_bench_json("BENCH_table1.json",
                   table_json("table1_overhead_per_checkpoint", rows, results));
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
