// Ablation: overhead vs checkpoint interval.
//
// The paper varies the interval per application (1-7 minutes) and notes
// that frequent checkpointing inflates failure-free overhead (and that
// independent schemes checkpoint "very often" to fight the domino effect,
// making this worse). We sweep the number of checkpoints in a fixed-length
// SOR run and report overhead per scheme: it scales linearly with
// checkpoint count for the write-through schemes and much more slowly for
// the buffered + staggered one.
#include <cstdio>
#include <map>

#include "bench_common.hpp"

namespace chk::bench {
namespace {

const std::vector<Scheme>& sweep_schemes() {
  static const std::vector<Scheme> all{Scheme::kCoordNB, Scheme::kIndep,
                                       Scheme::kCoordNBMS};
  return all;
}

const std::vector<std::uint32_t>& sweep_counts() {
  static const std::vector<std::uint32_t> counts{1, 2, 4, 6, 8, 12};
  return counts;
}

// The overhead of sweep scheme `s` at the `i`-th checkpoint count.
double overhead_s(const RowResults& sor, std::size_t i, std::size_t s) {
  return sor.cells[i * sweep_schemes().size() + s].exec_time_s - sor.normal.exec_time_s;
}

void print_table(const RowResults& sor) {
  util::Table table({"checkpoints", "interval (s)", "Coord_NB (s)", "Indep (s)",
                     "Coord_NBMS (s)", "NB per ckpt"});
  for (std::size_t i = 0; i < sweep_counts().size(); ++i) {
    const std::uint32_t k = sweep_counts()[i];
    const double interval = sor.normal.exec_time_s / (k + 1.0);
    table.add_row({util::Table::integer(k), util::Table::fixed(interval, 0),
                   util::Table::fixed(overhead_s(sor, i, 0), 2),
                   util::Table::fixed(overhead_s(sor, i, 1), 2),
                   util::Table::fixed(overhead_s(sor, i, 2), 2),
                   util::Table::fixed(overhead_s(sor, i, 0) / k, 2)});
  }
  std::fputs(
      table.render("Overhead (s) vs checkpoint frequency — SOR-1024, fixed run length")
          .c_str(),
      stdout);
  std::puts("\nOverhead scales with checkpoint count; the per-checkpoint cost is\n"
            "stable (Table 1's metric), and Coord_NBMS keeps even frequent\n"
            "checkpointing affordable.");
}

void write_json(const RowResults& sor) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("ablation_interval"));
  doc.set("row", Value::string("SOR-1024"));
  doc.set("normal", result_to_json(sor.normal, nullptr));
  Value points = Value::array();
  for (std::size_t i = 0; i < sweep_counts().size(); ++i) {
    const std::uint32_t k = sweep_counts()[i];
    Value point = Value::object();
    point.set("checkpoints", Value::number(std::uint64_t{k}));
    point.set("interval_s", Value::number(sor.normal.exec_time_s / (k + 1.0)));
    // Keyed in scheme-name order.
    std::map<std::string, double> by_scheme;
    for (std::size_t s = 0; s < sweep_schemes().size(); ++s) {
      by_scheme[std::string(to_string(sweep_schemes()[s]))] = overhead_s(sor, i, s);
    }
    Value overhead = Value::object();
    for (const auto& [scheme, seconds] : by_scheme) overhead.set(scheme, Value::number(seconds));
    point.set("overhead_s", std::move(overhead));
    points.push_back(std::move(point));
  }
  doc.set("points", std::move(points));
  write_bench_json("BENCH_ablation_interval.json", doc);
}

// Every (checkpoint-count, scheme) point is one cell of the SOR-1024 row.
int run() {
  const std::vector<ExperimentConfig> baselines =
      row_configs({harness::find_row("SOR-1024")});
  const std::size_t columns = sweep_schemes().size();
  const auto results = run_rows(
      baselines, sweep_counts().size() * columns,
      [&](std::size_t, std::size_t c, const ExperimentResult& normal) {
        return with_checkpoints(baselines[0], sweep_schemes()[c % columns],
                                sweep_counts()[c / columns], normal);
      });
  print_table(results[0]);
  write_json(results[0]);
  return digests_ok(results) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
