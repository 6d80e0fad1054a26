// Storage-fault ablation: scheme robustness and cost over unreliable
// stable storage.
//
// The paper treats the stable store as perfectly reliable; this sweep
// measures what absorbing storage misbehaviour costs. Each error point
// sets the per-operation write/read I/O-error probability to `rate`,
// silent bit-rot to rate/5 and a 1.5x degraded-throughput window process,
// then runs every paper scheme on the same app under an identical crash
// schedule (Poisson failures plus targeted mid-write and during-recovery
// strikes). The retrying storage client absorbs transient errors, failed
// rounds/intervals are skipped or re-initiated, and verified recovery
// falls back past rotted generations — so every run must still reproduce
// the failure-free digest.
//
//   ./ablation_storagefault [--app=SOR-384] [--rates=0.05,0.1,0.2]
//                           [--nodes=8] [--checkpoints=0] [--intervals=5]
//                           [--mtbf-frac=0.7] [--max-failures=3]
//                           [--seed=2026]
//                           [--json-out=BENCH_storagefault.json] [--quick]
//
// --quick shrinks the sweep (1 error point). Output is byte-identical
// across repeats with the same seed.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) try {
  using namespace chk;
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::string app_label = cli.get("app", "SOR-384");
  const std::vector<double> rates =
      bench::get_list_in(cli, "rates", quick ? "0.1" : "0.05,0.1,0.2", 0.0, 1.0);
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1, 1024));
  const auto checkpoints =
      static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0, 1'000'000));
  const double intervals = cli.get_double("intervals", 5.0, 1e-3, 1e3);
  const double mtbf_frac = cli.get_double("mtbf-frac", 0.7, 1e-3, 1e3);
  const auto max_failures =
      static_cast<std::uint32_t>(cli.get_int("max-failures", 3, 0, 1000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026, 0, bench::kMaxSeed));
  const std::string json_out = cli.get("json-out", "BENCH_storagefault.json");
  cli.reject_unread();
  const std::vector<harness::Scheme>& schemes = bench::paper_schemes();

  // Baseline: failure-free, perfect storage — sets the checkpoint interval,
  // the crash process MTBF and the digest every faulted run must compute.
  harness::ExperimentConfig base;
  base.label = app_label;
  base.app = harness::find_row(app_label).app;
  base.machine.num_nodes = nodes;
  base.seed = seed;
  base.checkpoints = checkpoints;
  const harness::ExperimentResult normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(normal.exec_time_s / intervals);
  // Identical crash schedule at every error point: the fault plan's arrival
  // stream is schedule-independent, so the columns isolate pure storage-
  // fault cost under the same failures.
  faultsim::FaultPlan crashes;
  crashes.mtbf = des::Duration::seconds(normal.exec_time_s * mtbf_frac);
  crashes.max_failures = max_failures;
  crashes.stream = 1;
  base.faults = crashes;

  // Rate 0 first (the per-scheme reference: crashes but perfect storage),
  // then the sweep; all cells fan out and are collected in fixed order.
  std::vector<double> points;
  points.push_back(0.0);
  points.insert(points.end(), rates.begin(), rates.end());
  const std::size_t columns = schemes.size();
  const auto results = util::parallel_map(points.size() * columns, [&](std::size_t i) {
    const double rate = points[i / columns];
    harness::ExperimentConfig config = base;
    config.scheme = schemes[i % columns];
    if (rate > 0.0) {
      xplorer::StorageFaultConfig faults;
      faults.write_error = rate;
      faults.read_error = rate;
      faults.bitrot = rate / 5;
      faults.degrade_factor = 1.5;
      config.storage_faults = faults;
    }
    return harness::run_experiment(config);
  });

  bool all_ok = true;
  for (const harness::ExperimentResult& r : results) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }

  std::vector<std::string> header{"rate"};
  for (harness::Scheme scheme : schemes) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row{util::Table::fixed(points[p], 2)};
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      const double reference = results[s].exec_time_s;  // rate 0, same scheme
      const double overhead = (r.exec_time_s / reference - 1.0) * 100.0;
      row.push_back(util::format("{} ({}%) rty={} gen={}",
                                 util::Table::fixed(r.exec_time_s, 1),
                                 util::Table::fixed(overhead, 1), r.storage_retries,
                                 r.generations_skipped));
    }
    table.add_row(std::move(row));
  }
  std::fputs(
      table
          .render(util::format(
              "{} on {} nodes over unreliable stable storage (write/read "
              "error=rate, bit-rot=rate/5, 1.5x degraded windows; identical "
              "crash schedule per column, MTBF {}T, <= {} failures; exec "
              "time s, overhead vs the same scheme at rate 0, client "
              "retries, generation fallbacks; digests + invariants "
              "verified: {})",
              app_label, nodes, util::Table::fixed(mtbf_frac, 2), max_failures,
              all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("storagefault"));
  doc.set("app", Value::string(app_label));
  doc.set("nodes", Value::number(std::uint64_t{nodes}));
  doc.set("seed", Value::number(seed));
  doc.set("mtbf_frac", Value::number(mtbf_frac));
  doc.set("max_failures", Value::number(std::uint64_t{max_failures}));
  doc.set("normal_exec_s", Value::number(normal.exec_time_s));
  doc.set("all_verified", Value::boolean(all_ok));
  Value row_array = Value::array();
  index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    Value entry = Value::object();
    entry.set("rate", Value::number(points[p]));
    Value cell_array = Value::array();
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      Value cv = Value::object();
      cv.set("scheme", Value::string(std::string(to_string(r.scheme))));
      cv.set("digest_ok", Value::boolean(r.digest == normal.digest));
      cv.set("metrics", obs::metrics_to_json(harness::run_metrics(r)));
      cell_array.push_back(std::move(cv));
    }
    entry.set("cells", std::move(cell_array));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  obs::write_text_file(json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", json_out.c_str());
  return all_ok ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return chk::util::usage_error(argv[0], err);
}
