// Shared infrastructure for the bench binaries.
//
// Every bench is a plain CLI: it builds its cells, runs the independent
// simulations through util::parallel_map (results come back in input
// order, so the output never depends on completion order), prints its
// table, writes its BENCH_<name>.json and exits 1 if a cell's result
// digest differs from its NORMAL (checkpoint-free) run's.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "harness/catalog.hpp"
#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace chk::bench {

using harness::BenchRow;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::Scheme;

/// Upper bound of a --seed flag (seeds are non-negative).
inline constexpr std::int64_t kMaxSeed = std::numeric_limits<std::int64_t>::max();

/// The five schemes of the paper's Table 1, in its column order.
[[nodiscard]] const std::vector<Scheme>& paper_schemes();
/// The scheme columns of Tables 2 and 3 (paper order).
[[nodiscard]] const std::vector<Scheme>& table23_schemes();
/// Every checkpointing scheme: the coordinated ones, then the independent.
[[nodiscard]] const std::vector<Scheme>& all_schemes();

/// The NORMAL configs of catalog rows: each row's app on the default
/// machine.
[[nodiscard]] std::vector<ExperimentConfig> row_configs(const std::vector<BenchRow>& rows);

/// `base` under `scheme` with `checkpoints` evenly spaced checkpoints: the
/// interval is the NORMAL execution time / (checkpoints + 1).
[[nodiscard]] ExperimentConfig with_checkpoints(ExperimentConfig base, Scheme scheme,
                                                std::uint32_t checkpoints,
                                                const ExperimentResult& normal);

/// One table row: its NORMAL baseline and its cells, in column order.
struct RowResults {
  ExperimentResult normal;
  std::vector<ExperimentResult> cells;
};

/// Builds cell `column` of row `row` from the row's baseline result.
using CellConfigFn =
    std::function<ExperimentConfig(std::size_t row, std::size_t column, const ExperimentResult&)>;

/// Runs harness::run_normal on every baseline config, then `columns` cells
/// per row: two parallel phases, since a cell's config depends on its
/// baseline's execution time.
[[nodiscard]] std::vector<RowResults> run_rows(const std::vector<ExperimentConfig>& baselines,
                                               std::size_t columns,
                                               const CellConfigFn& cell_config);

/// Whether `cell` computed the same result digest as its NORMAL run; a
/// mismatch is reported on stderr.
[[nodiscard]] bool digest_ok(const ExperimentResult& normal, const ExperimentResult& cell);
/// digest_ok over every cell of every row (reports every mismatch).
[[nodiscard]] bool digests_ok(const std::vector<RowResults>& rows);

/// One cell as a JSON object: its scheme, determinism hash and
/// harness::run_metrics snapshot. `normal` adds the derived overhead fields
/// when present.
[[nodiscard]] obs::json::Value result_to_json(const ExperimentResult& result,
                                              const ExperimentResult* normal);

/// The standard per-table document: one entry per row with the baseline
/// and every cell.
[[nodiscard]] obs::json::Value table_json(const std::string& table,
                                          const std::vector<BenchRow>& rows,
                                          const std::vector<RowResults>& results);

/// Write `doc` to `path` and report the path on stdout.
void write_bench_json(const std::string& path, const obs::json::Value& doc);

/// cli.get_list<double>(key, fallback) with every value required to lie in
/// [lo, hi); throws std::invalid_argument naming the flag otherwise.
[[nodiscard]] std::vector<double> get_list_in(const util::Cli& cli, const std::string& key,
                                              const std::string& fallback, double lo,
                                              double hi);

/// --detector=binary|phi and, for phi, --phi-threshold (phi units, > 0,
/// default 8) and --phi-window (samples, default 32) into `membership`. A
/// phi knob with the binary detector throws std::invalid_argument.
void read_detector(const util::Cli& cli, chklib::membership::MembershipConfig& membership);

/// main() of a bench that takes no flags: any flag is an error (exit 2);
/// otherwise returns run()'s exit status.
int bench_main(int argc, char** argv, int (*run)());

}  // namespace chk::bench
