#include "bench_common.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "util/parallel.hpp"

namespace chk::bench {

const std::vector<Scheme>& paper_schemes() {
  static const std::vector<Scheme> schemes{Scheme::kCoordNB, Scheme::kIndep,
                                           Scheme::kCoordNBM, Scheme::kIndepM,
                                           Scheme::kCoordNBMS};
  return schemes;
}

const std::vector<Scheme>& table23_schemes() {
  static const std::vector<Scheme> schemes{Scheme::kCoordNB, Scheme::kIndep,
                                           Scheme::kCoordNBMS, Scheme::kIndepM};
  return schemes;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes{
      Scheme::kCoordNB,   Scheme::kCoordNBS, Scheme::kCoordNBM,
      Scheme::kCoordNBMS, Scheme::kIndep,    Scheme::kIndepM,
      Scheme::kIndepMS,
  };
  return schemes;
}

std::vector<ExperimentConfig> row_configs(const std::vector<BenchRow>& rows) {
  std::vector<ExperimentConfig> configs(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    configs[r].label = rows[r].label;
    configs[r].app = rows[r].app;
  }
  return configs;
}

ExperimentConfig with_checkpoints(ExperimentConfig base, Scheme scheme,
                                  std::uint32_t checkpoints, const ExperimentResult& normal) {
  base.scheme = scheme;
  base.checkpoints = checkpoints;
  base.interval = des::Duration::seconds(normal.exec_time_s / (checkpoints + 1.0));
  return base;
}

std::vector<RowResults> run_rows(const std::vector<ExperimentConfig>& baselines,
                                 std::size_t columns, const CellConfigFn& cell_config) {
  auto normals = util::parallel_map(
      baselines.size(), [&](std::size_t r) { return harness::run_normal(baselines[r]); });
  auto cells = util::parallel_map(baselines.size() * columns, [&](std::size_t i) {
    return harness::run_experiment(cell_config(i / columns, i % columns, normals[i / columns]));
  });
  std::vector<RowResults> rows(baselines.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].normal = std::move(normals[r]);
    for (std::size_t c = 0; c < columns; ++c) {
      rows[r].cells.push_back(std::move(cells[r * columns + c]));
    }
  }
  return rows;
}

bool digest_ok(const ExperimentResult& normal, const ExperimentResult& cell) {
  if (cell.digest == normal.digest) return true;
  std::fprintf(stderr, "digest mismatch: %s under %s differs from its NORMAL run\n",
               cell.label.c_str(), std::string(to_string(cell.scheme)).c_str());
  return false;
}

bool digests_ok(const std::vector<RowResults>& rows) {
  bool ok = true;
  for (const RowResults& row : rows) {
    for (const ExperimentResult& cell : row.cells) ok = digest_ok(row.normal, cell) && ok;
  }
  return ok;
}

obs::json::Value result_to_json(const ExperimentResult& result,
                                const ExperimentResult* normal) {
  using obs::json::Value;
  Value cell = Value::object();
  cell.set("scheme", Value::string(std::string(to_string(result.scheme))));
  cell.set("trace_hash", Value::string(util::format("{:016x}", result.trace_hash)));
  if (normal != nullptr && normal->exec_time_s > 0) {
    cell.set("overhead_s", Value::number(result.exec_time_s - normal->exec_time_s));
    cell.set("overhead_pct",
             Value::number((result.exec_time_s / normal->exec_time_s - 1.0) * 100.0));
  }
  cell.set("metrics", obs::metrics_to_json(harness::run_metrics(result)));
  return cell;
}

obs::json::Value table_json(const std::string& table, const std::vector<BenchRow>& rows,
                            const std::vector<RowResults>& results) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string(table));
  Value row_array = Value::array();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    Value entry = Value::object();
    entry.set("label", Value::string(rows[r].label));
    entry.set("approx_state_bytes", Value::number(rows[r].approx_state_bytes));
    entry.set("normal", result_to_json(results[r].normal, nullptr));
    Value cells = Value::array();
    for (const ExperimentResult& cell : results[r].cells) {
      cells.push_back(result_to_json(cell, &results[r].normal));
    }
    entry.set("cells", std::move(cells));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  return doc;
}

void write_bench_json(const std::string& path, const obs::json::Value& doc) {
  obs::write_text_file(path, doc.dump() + "\n");
  std::printf("\nWrote %s\n", path.c_str());
}

std::vector<double> get_list_in(const util::Cli& cli, const std::string& key,
                                const std::string& fallback, double lo, double hi) {
  std::vector<double> values = cli.get_list<double>(key, fallback);
  for (const double v : values) {
    if (v < lo || v >= hi) {
      throw std::invalid_argument(
          util::format("--{}: values must be in [{}, {}), got {}", key, lo, hi, v));
    }
  }
  return values;
}

void read_detector(const util::Cli& cli, chklib::membership::MembershipConfig& membership) {
  using chklib::membership::Detector;
  membership.detector = chklib::membership::parse_detector(cli.get("detector", "binary"));
  if (membership.detector != Detector::kPhiAccrual) {
    // A phi knob on the binary detector is a silently ignored flag waiting
    // to mislead: reject it loudly.
    for (const char* flag : {"phi-threshold", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --detector=phi (the binary "
                                    "detector has no phi knobs)");
      }
    }
    return;
  }
  const double threshold = cli.get_double("phi-threshold", 8.0, 0.0, 1e3);
  if (threshold <= 0) throw std::invalid_argument("--phi-threshold must be positive");
  membership.accrual.threshold_milli = static_cast<std::int64_t>(threshold * 1000.0);
  membership.accrual.window = static_cast<std::uint32_t>(cli.get_int("phi-window", 32, 1, 1024));
}

int bench_main(int argc, char** argv, int (*run)()) {
  try {
    util::Cli(argc, argv).reject_unread();
  } catch (const std::invalid_argument& err) {
    return util::usage_error(argv[0], err);
  }
  return run();
}

}  // namespace chk::bench
