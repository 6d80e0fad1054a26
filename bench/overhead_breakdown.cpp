// Paper-style overhead breakdown: where does each scheme's failure-free
// overhead go?
//
// Runs the SOR benchmark under every checkpointing scheme with the obs
// tracer attached and prints the per-scheme attribution table (sync wait,
// memory copy, stable write, storage contention, logging, CPU
// interference). The paper's central finding shows up directly: the
// stable-storage write dominates and the synchronization share is small.
//
//   ./overhead_breakdown [--n=256] [--iters=60] [--nodes=8] [--checkpoints=3]
//                        [--interval-s=<auto>] [--seed=2026]
//                        [--trace-out=<file>] [--metrics-out=<file>]
//                        [--trace-scheme=Coord_NBM] [--json-out=<file>]
//
// --trace-out writes the selected scheme's run as Chrome/Perfetto trace
// JSON (load with ui.perfetto.dev); --metrics-out writes its metrics
// snapshot + attribution; --json-out (default BENCH_overhead_breakdown.json)
// collects every scheme's breakdown machine-readably.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "apps/sor.hpp"
#include "bench_common.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chk;

obs::json::Value scheme_json(const harness::ExperimentResult& result,
                             const harness::ExperimentResult& normal) {
  using obs::json::Value;
  Value entry = Value::object();
  entry.set("scheme", Value::string(std::string(to_string(result.scheme))));
  entry.set("overhead_s", Value::number(result.exec_time_s - normal.exec_time_s));
  entry.set("trace_hash", Value::string(util::format("{:016x}", result.trace_hash)));
  entry.set("attribution", obs::attribution_to_json(result.obs->attribution));
  entry.set("metrics", obs::metrics_to_json(result.obs->metrics));
  return entry;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);

  harness::ExperimentConfig base;
  base.label = "SOR";
  base.app = apps::make_sor({
      .n = static_cast<std::size_t>(cli.get_int("n", 256, 1, 4096)),
      .iterations = static_cast<std::uint32_t>(cli.get_int("iters", 60, 1, 1'000'000)),
  });
  base.machine.num_nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1, 1024));
  base.checkpoints = static_cast<std::uint32_t>(cli.get_int("checkpoints", 3, 0, 1'000'000));
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026, 0, bench::kMaxSeed));
  base.observe = true;
  const bool fixed_interval = cli.has("interval-s");
  const double interval_s = cli.get_double("interval-s", 30.0, 1e-3, 1e6);
  const std::string trace_scheme = cli.get("trace-scheme", "Coord_NBM");
  const std::string trace_out = cli.get("trace-out", "");
  const std::string metrics_out = cli.get("metrics-out", "");
  const std::string json_out = cli.get("json-out", "BENCH_overhead_breakdown.json");
  cli.reject_unread();
  const auto& schemes = bench::all_schemes();
  const auto traced =
      std::find_if(schemes.begin(), schemes.end(),
                   [&](harness::Scheme scheme) { return to_string(scheme) == trace_scheme; });
  if (traced == schemes.end()) {
    throw std::invalid_argument("--trace-scheme=" + trace_scheme +
                                " is not a checkpointing scheme");
  }

  std::printf("Baseline run (no checkpointing, %zu nodes)...\n", base.machine.num_nodes);
  const auto normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(
      fixed_interval ? interval_s : normal.exec_time_s / (base.checkpoints + 1.0));

  // Every scheme's run is independent: fan out, then report in fixed order.
  const auto results = util::parallel_map(schemes.size(), [&](std::size_t s) {
    harness::ExperimentConfig config = base;
    config.scheme = schemes[s];
    return harness::run_experiment(config);
  });

  // Buckets are summed over ranks (rank-seconds); the comparable total is
  // the wall-clock overhead every rank experiences, overhead x num_ranks.
  // The difference is critical-path idle not chargeable to any one rank
  // (e.g. waiting on a neighbour that is checkpointing).
  util::Table table({"scheme", "overhead (s)", "rank-s", "sync wait", "mem copy",
                     "stable write", "contention", "logging", "interference", "attributed",
                     "unattributed"});
  const double ranks = static_cast<double>(base.machine.num_nodes);
  for (const auto& result : results) {
    const obs::RankBuckets& total = result.obs->attribution.total;
    const double overhead = result.exec_time_s - normal.exec_time_s;
    table.add_row({std::string(to_string(result.scheme)), util::Table::fixed(overhead, 3),
                   util::Table::fixed(overhead * ranks, 3),
                   util::Table::fixed(total.sync_wait_s, 3),
                   util::Table::fixed(total.mem_copy_s, 3),
                   util::Table::fixed(total.stable_write_s, 3),
                   util::Table::fixed(total.storage_contention_s, 3),
                   util::Table::fixed(total.logging_s, 3),
                   util::Table::fixed(total.interference_s, 3),
                   util::Table::fixed(total.bucket_sum_s(), 3),
                   util::Table::fixed(overhead * ranks - total.bucket_sum_s(), 3)});
  }
  std::fputs(table.render(util::format(
                              "Overhead breakdown by scheme — SOR, {} checkpoints, "
                              "{} nodes (buckets summed over ranks; unattributed = "
                              "overhead x ranks - attributed, the critical-path "
                              "idle not chargeable to one rank)",
                              base.checkpoints, base.machine.num_nodes))
                 .c_str(),
             stdout);

  // Detailed exports for one selected scheme.
  const harness::ExperimentResult& selected =
      results[static_cast<std::size_t>(traced - schemes.begin())];
  if (!trace_out.empty()) {
    obs::write_text_file(
        trace_out, obs::to_chrome_trace(selected.obs->trace, base.machine.num_nodes).dump());
    std::printf("\nWrote %s (%s, %zu events; open with ui.perfetto.dev)\n",
                trace_out.c_str(), trace_scheme.c_str(), selected.obs->trace.events.size());
  }
  if (!metrics_out.empty()) {
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("scheme", Value::string(trace_scheme));
    doc.set("metrics", obs::metrics_to_json(selected.obs->metrics));
    doc.set("attribution", obs::attribution_to_json(selected.obs->attribution));
    obs::write_text_file(metrics_out, doc.dump() + "\n");
    std::printf("Wrote %s\n", metrics_out.c_str());
  }

  // Machine-readable summary of the whole table.
  {
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("table", Value::string("overhead_breakdown"));
    doc.set("app", Value::string(base.label));
    doc.set("nodes", Value::number(std::uint64_t{base.machine.num_nodes}));
    doc.set("checkpoints", Value::number(std::uint64_t{base.checkpoints}));
    doc.set("normal_exec_s", Value::number(normal.exec_time_s));
    Value entries = Value::array();
    for (const auto& result : results) entries.push_back(scheme_json(result, normal));
    doc.set("schemes", std::move(entries));
    obs::write_text_file(json_out, doc.dump() + "\n");
    std::printf("Wrote %s\n", json_out.c_str());
  }
  return 0;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
