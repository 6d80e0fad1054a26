// Storage overhead: the paper's qualitative claim that independent
// checkpointing "implies a large storage overhead... several checkpoints
// have to be kept in stable storage, even if the recovery system makes use
// of some garbage collection algorithm", while coordinated checkpointing
// keeps exactly one committed generation.
//
// We run SOR (tightly coupled: the strict recovery line cannot advance, so
// GC reclaims nothing) and NQUEENS (loosely coupled: GC can reclaim) with
// 6 checkpoints and compare peak/final stable-storage footprints.
#include <cstdio>

#include "bench_common.hpp"
#include "util/format.hpp"

namespace chk::bench {
namespace {

struct Variant {
  const char* name;
  Scheme scheme;
  bool gc;
  chklib::LineMode gc_mode;
};

const std::vector<Variant>& variants() {
  static const std::vector<Variant> all{
      {"Coord_NB (commit GC)", Scheme::kCoordNB, false, chklib::LineMode::kStrict},
      {"Indep, no GC", Scheme::kIndep, false, chklib::LineMode::kStrict},
      {"Indep, GC strict", Scheme::kIndep, true, chklib::LineMode::kStrict},
      {"Indep, GC orphan-free", Scheme::kIndep, true, chklib::LineMode::kOrphanFree},
  };
  return all;
}

void print_table(const std::vector<RowResults>& results) {
  for (const RowResults& row : results) {
    util::Table table({"variant", "peak storage", "final storage", "ckpts kept",
                       "GC reclaimed"});
    for (std::size_t v = 0; v < variants().size(); ++v) {
      const ExperimentResult& result = row.cells[v];
      table.add_row({variants()[v].name,
                     util::Table::bytes(static_cast<double>(result.peak_storage_bytes)),
                     util::Table::bytes(static_cast<double>(result.final_storage_bytes)),
                     util::Table::integer(static_cast<long long>(result.final_stored_checkpoints)),
                     util::Table::integer(static_cast<long long>(result.gc_reclaimed))});
    }
    std::fputs(table.render(util::format("Stable-storage footprint — {} (6 checkpoints, 8 nodes)",
                                         row.normal.label))
                   .c_str(),
               stdout);
    std::puts("");
  }
  std::puts("Coordinated keeps one committed generation (8 images). Independent\n"
            "accumulates generations; for the tightly coupled application even the\n"
            "garbage collector cannot reclaim them (the strict recovery line never\n"
            "advances) — the paper's storage-overhead argument.");
}

int run() {
  const std::vector<ExperimentConfig> baselines =
      row_configs({harness::find_row("SOR-768"), harness::find_row("NQUEENS-14")});
  const auto results = run_rows(
      baselines, variants().size(),
      [&](std::size_t r, std::size_t v, const ExperimentResult& normal) {
        const Variant& variant = variants()[v];
        ExperimentConfig config = with_checkpoints(baselines[r], variant.scheme, 6, normal);
        config.gc = variant.gc;
        config.gc_mode = variant.gc_mode;
        return config;
      });
  print_table(results);
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
