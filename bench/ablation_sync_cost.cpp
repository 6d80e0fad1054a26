// Ablation: where does coordinated checkpointing's overhead come from?
//
// The paper's central conclusion: "the overhead for synchronizing the
// processes in a coordinated checkpoint is not a relevant factor... the
// major contribution is the checkpoint saving operation". We isolate the
// synchronization cost by re-running Coord_NB on a machine whose stable
// storage is (nearly) free — what remains is protocol synchronization —
// and sweep the node count to show it stays negligible as the machine
// grows.
#include <cstdio>

#include "apps/sor.hpp"
#include "bench_common.hpp"

namespace chk::bench {
namespace {

xplorer::MachineConfig free_storage_machine(std::size_t nodes) {
  auto machine = xplorer::MachineConfig::parsytec_xplorer();
  machine.num_nodes = nodes;
  machine.disk.bandwidth = 1e15;
  machine.disk.latency = des::Duration::zero();
  machine.host_link.bandwidth = 1e15;
  machine.host_link.latency = des::Duration::zero();
  machine.node.mem_copy_bw = 1e15;
  machine.node.background_io_cpu_steal = 0.0;
  return machine;
}

ExperimentConfig sor_config(std::size_t nodes, Scheme scheme, bool free_storage,
                            double interval_s) {
  ExperimentConfig config;
  config.label = util::format("SOR/n{}{}", nodes, free_storage ? "/free" : "");
  config.app = apps::make_sor({.n = 512, .iterations = 100});
  config.scheme = scheme;
  config.checkpoints = 3;
  config.interval = des::Duration::seconds(interval_s);
  config.machine = free_storage ? free_storage_machine(nodes) : [nodes] {
    auto machine = xplorer::MachineConfig::parsytec_xplorer();
    machine.num_nodes = nodes;
    return machine;
  }();
  return config;
}

struct Cell {
  double normal = 0, full = 0, sync_only = 0;
  std::uint64_t ctrl_msgs = 0, ctrl_bytes = 0;
};

const std::vector<std::size_t>& node_counts() {
  static const std::vector<std::size_t> counts{2, 4, 8, 16, 32};
  return counts;
}

// Per node count, the NORMAL run on the real machine sets the interval of
// three cells: Coord_NB on it, and the free-storage machine's own baseline
// and Coord_NB run with empty images. Saving those costs nothing at all,
// so the residual overhead is the synchronization protocol itself
// (requests, markers, acks, commit).
std::vector<RowResults> run_cells() {
  std::vector<ExperimentConfig> baselines;
  for (std::size_t nodes : node_counts()) {
    baselines.push_back(sor_config(nodes, Scheme::kNone, /*free_storage=*/false, 60));
  }
  return run_rows(baselines, 3, [](std::size_t r, std::size_t column,
                                   const ExperimentResult& normal) {
    const double interval = normal.exec_time_s / 4.0;
    const std::size_t nodes = node_counts()[r];
    if (column == 0) return sor_config(nodes, Scheme::kCoordNB, false, interval);
    if (column == 1) return sor_config(nodes, Scheme::kNone, true, 60);
    auto config = sor_config(nodes, Scheme::kCoordNB, true, interval);
    config.ablate_empty_checkpoints = true;
    return config;
  });
}

Cell cell_of(const RowResults& row) {
  const ExperimentResult& full = row.cells[0];
  Cell cell;
  cell.normal = row.normal.exec_time_s;
  cell.full = full.exec_time_s - row.normal.exec_time_s;
  cell.sync_only = row.cells[2].exec_time_s - row.cells[1].exec_time_s;
  cell.ctrl_msgs = full.control_messages;
  cell.ctrl_bytes = full.control_bytes;
  return cell;
}

void print_table(const std::vector<RowResults>& rows) {
  util::Table table({"nodes", "normal (s)", "full overhead (s)", "sync-only (s)",
                     "sync share", "ctrl msgs", "ctrl bytes"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t nodes = node_counts()[r];
    const Cell cell = cell_of(rows[r]);
    table.add_row({util::Table::integer(static_cast<long long>(nodes)),
                   util::Table::fixed(cell.normal, 1), util::Table::fixed(cell.full, 3),
                   util::Table::fixed(cell.sync_only, 3),
                   cell.full > 0 ? util::Table::percent(cell.sync_only / cell.full, 1) : "-",
                   util::Table::integer(static_cast<long long>(cell.ctrl_msgs)),
                   util::Table::bytes(static_cast<double>(cell.ctrl_bytes))});
  }
  std::fputs(table.render("Synchronization vs saving cost, Coord_NB on SOR-512, "
                          "3 checkpoints")
                 .c_str(),
             stdout);
  std::puts("\nThe sync share stays in the low percent range at every machine size:\n"
            "the overhead is the checkpoint *saving*, not the coordination — the\n"
            "paper's central conclusion.");
}

void write_json(const std::vector<RowResults>& rows) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("ablation_sync_cost"));
  Value points = Value::array();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Cell cell = cell_of(rows[r]);
    Value point = Value::object();
    point.set("nodes", Value::number(std::uint64_t{node_counts()[r]}));
    point.set("normal_s", Value::number(cell.normal));
    point.set("full_overhead_s", Value::number(cell.full));
    point.set("sync_only_s", Value::number(cell.sync_only));
    if (cell.full > 0) point.set("sync_share", Value::number(cell.sync_only / cell.full));
    point.set("control_messages", Value::number(cell.ctrl_msgs));
    point.set("control_bytes", Value::number(cell.ctrl_bytes));
    points.push_back(std::move(point));
  }
  doc.set("points", std::move(points));
  write_bench_json("BENCH_ablation_sync_cost.json", doc);
}

int run() {
  const std::vector<RowResults> rows = run_cells();
  print_table(rows);
  write_json(rows);
  return digests_ok(rows) ? 0 : 1;
}

}  // namespace
}  // namespace chk::bench

int main(int argc, char** argv) { return chk::bench::bench_main(argc, argv, chk::bench::run); }
