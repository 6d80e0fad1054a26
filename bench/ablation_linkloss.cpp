// Link-loss ablation: scheme robustness and cost over unreliable links.
//
// The paper assumes reliable FIFO channels; this sweep measures what the
// reliable transport (acks, retransmission, duplicate suppression) costs
// when the links underneath actually misbehave. Each loss point sets the
// per-frame drop probability to `loss`, duplication to loss/2 and
// corruption to loss/4, runs every paper scheme on the same app, and
// reports completion time, the overhead relative to the same scheme on
// perfect links and the transport's repair activity. Every run must
// reproduce the perfect-link digest — exactly-once FIFO delivery means
// the application cannot tell the links were lossy.
//
//   ./ablation_linkloss [--app=SOR-384] [--losses=0.02,0.05,0.1,0.2]
//                       [--json-out=BENCH_linkloss.json] [--quick]
//
// Every run is on the paper's 8 nodes, checkpointing every NORMAL time / 5
// until the app completes. --quick shrinks the sweep (2 loss points).
// Output is byte-identical across repeats.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) try {
  using namespace chk;
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::string app_label = cli.get("app", "SOR-384");
  const std::vector<double> losses =
      bench::get_list_in(cli, "losses", quick ? "0.05,0.2" : "0.02,0.05,0.1,0.2", 0.0, 1.0);
  const std::string json_out = cli.get("json-out", "BENCH_linkloss.json");
  cli.reject_unread();
  const std::vector<harness::Scheme>& schemes = bench::paper_schemes();

  // Baseline: failure-free, perfect links — sets the checkpoint interval
  // and the digest every lossy run must still compute.
  const bench::Baseline baseline = bench::run_baseline(app_label);
  const harness::ExperimentConfig& base = baseline.config;
  const harness::ExperimentResult& normal = baseline.normal;

  // Loss 0 first (the per-scheme reference), then the sweep; all cells
  // fan out and are collected in fixed order.
  std::vector<double> points;
  points.push_back(0.0);
  points.insert(points.end(), losses.begin(), losses.end());
  const std::size_t columns = schemes.size();
  const auto results = util::parallel_map(points.size() * columns, [&](std::size_t i) {
    const double loss = points[i / columns];
    harness::ExperimentConfig config = base;
    config.scheme = schemes[i % columns];
    if (loss > 0.0) {
      chklib::LinkFaultConfig faults;
      faults.drop = loss;
      faults.duplicate = loss / 2;
      faults.corrupt = loss / 4;
      config.link_faults = faults;
    }
    return harness::run_experiment(config);
  });

  bool all_ok = true;
  for (const harness::ExperimentResult& r : results) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }

  std::vector<std::string> header{"loss"};
  for (harness::Scheme scheme : schemes) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row{util::Table::fixed(points[p], 2)};
    for (std::size_t s = 0; s < columns; ++s) {
      const harness::ExperimentResult& r = results[index++];
      const double reference = results[s].exec_time_s;  // loss 0, same scheme
      const double overhead = (r.exec_time_s / reference - 1.0) * 100.0;
      row.push_back(util::format("{} ({}%) rtx={}",
                                 util::Table::fixed(r.exec_time_s, 1),
                                 util::Table::fixed(overhead, 1), r.retransmits));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table
                 .render(util::format(
                     "{} on {} nodes over lossy links (drop=loss, dup=loss/2, "
                     "corrupt=loss/4; reliable transport on; exec time s, "
                     "overhead vs the same scheme at loss 0, retransmissions; "
                     "digests + invariants verified: {})",
                     app_label, base.machine.num_nodes, all_ok ? "yes" : "NO"))
                 .c_str(),
             stdout);

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("linkloss"));
  doc.set("app", Value::string(app_label));
  doc.set("nodes", Value::number(std::uint64_t{base.machine.num_nodes}));
  doc.set("seed", Value::number(base.seed));
  doc.set("normal_exec_s", Value::number(normal.exec_time_s));
  doc.set("all_verified", Value::boolean(all_ok));
  Value row_array = Value::array();
  index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    Value entry = Value::object();
    entry.set("loss", Value::number(points[p]));
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
  bench::write_bench_json(json_out, doc);
  return all_ok ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return chk::util::usage_error(argv[0], err);
}
