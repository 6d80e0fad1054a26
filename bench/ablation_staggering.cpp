// Ablation: the two optimization techniques of §2.2 — main-memory
// checkpointing (M) and checkpoint staggering (S) — applied separately and
// together, for both protocol classes.
//
// Paper's finding: "checkpoint staggering was only an effective solution
// when used together with the other optimization technique: main-memory
// checkpointing". Staggering a *blocking* write (Coord_NBS) serializes the
// stalls and is no better (often worse) than Coord_NB; staggering the
// *background* writes (Coord_NBMS) removes the stable-storage contention
// and wins decisively.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<RowResults>& results) {
  for (const RowResults& row : results) {
    const ExperimentResult& normal = row.normal;
    util::Table table({"scheme", "buffered?", "staggered?", "exec (s)", "overhead",
                       "app blocked (s)", "disk wait (s)"});
    for (const ExperimentResult& result : row.cells) {
      table.add_row({std::string(chklib::to_string(result.scheme)),
                     chklib::is_buffered(result.scheme) ? "yes" : "no",
                     chklib::is_staggered(result.scheme) ? "yes" : "no",
                     util::Table::fixed(result.exec_time_s, 1),
                     util::Table::percent(result.exec_time_s / normal.exec_time_s - 1.0, 2),
                     util::Table::fixed(result.app_blocked_s, 2),
                     util::Table::fixed(result.disk_wait_s, 2)});
    }
    std::fputs(table.render(util::format(
                                "Staggering x buffering ablation — {} (normal {:.1f} s)",
                                normal.label, normal.exec_time_s))
                   .c_str(),
               stdout);
    std::puts("");
  }
  // The headline checks, on SOR-1024:
  const auto sor = [&](Scheme scheme) {
    const auto& cells = results[0].cells;
    return std::find_if(cells.begin(), cells.end(),
                        [scheme](const ExperimentResult& r) { return r.scheme == scheme; })
        ->exec_time_s;
  };
  const double nb = sor(Scheme::kCoordNB);
  std::printf("Staggering alone:       %+.1f %% change vs Coord_NB (paper: not effective)\n",
              (sor(Scheme::kCoordNBS) / nb - 1.0) * 100.0);
  std::printf("Buffering alone:        %+.1f %% change vs Coord_NB\n",
              (sor(Scheme::kCoordNBM) / nb - 1.0) * 100.0);
  std::printf("Buffering + staggering: %+.1f %% change vs Coord_NB (the paper's winner)\n",
              (sor(Scheme::kCoordNBMS) / nb - 1.0) * 100.0);
}

int run() {
  const std::vector<ExperimentConfig> baselines =
      row_configs({harness::find_row("SOR-1024"), harness::find_row("ISING-1024")});
  const auto results = run_rows(
      baselines, all_schemes().size(),
      [&](std::size_t r, std::size_t s, const ExperimentResult& normal) {
        return with_checkpoints(baselines[r], all_schemes()[s], 3, normal);
      });
  print_table(results);
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
