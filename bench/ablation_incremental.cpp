// Ablation: incremental checkpointing (the related-work technique of [13])
// on top of Coord_NBM, across applications with very different dirty-state
// profiles:
//   ISING — quenched couplings never change: deltas are small;
//   GAUSS — rows freeze as the pivot passes them: deltas shrink over time;
//   SOR   — every *reached* cell is dirtied each iteration, but heat
//           propagates one row per iteration, so early checkpoints of a
//           large cold grid still have large clean (exactly-zero) regions.
#include <cstdio>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

void print_table(const std::vector<RowResults>& results) {
  util::Table table({"app", "mode", "overhead", "ckpt bytes written", "bytes saved"});
  for (const RowResults& row : results) {
    const ExperimentResult& full = row.cells[0];
    const ExperimentResult& inc = row.cells[1];
    for (bool incremental : {false, true}) {
      const auto& result = incremental ? inc : full;
      table.add_row({row.normal.label, incremental ? "incremental" : "full",
                     util::Table::percent(result.exec_time_s / row.normal.exec_time_s - 1.0, 2),
                     util::Table::bytes(static_cast<double>(result.bytes_written)),
                     incremental
                         ? util::Table::percent(
                               1.0 - static_cast<double>(inc.bytes_written) /
                                         static_cast<double>(full.bytes_written),
                               1)
                         : std::string("-")});
    }
    table.add_separator();
  }
  std::fputs(table.render("Incremental checkpointing on Coord_NBM "
                          "(6 checkpoints, full image every 3rd)")
                 .c_str(),
             stdout);
  std::puts("\nIncremental checkpointing attacks the same bottleneck the paper\n"
            "identified (checkpoint saving), and helps exactly where the dirty\n"
            "fraction is small — the mechanism behind [13]'s results.");
}

// Per app, column 0 takes full images and column 1 incremental ones.
int run() {
  const std::vector<ExperimentConfig> baselines =
      row_configs({harness::find_row("ISING-1024"), harness::find_row("GAUSS-1024"),
                   harness::find_row("SOR-1024")});
  const auto results = run_rows(
      baselines, 2, [&](std::size_t r, std::size_t column, const ExperimentResult& normal) {
        ExperimentConfig config = with_checkpoints(baselines[r], Scheme::kCoordNBM, 6, normal);
        config.incremental = column == 1;
        config.full_every = 3;
        return config;
      });
  print_table(results);
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
