// Fault-injection campaign: expected completion time under failures.
//
// The paper's tables compare the schemes' failure-free overhead; this
// driver compares what actually matters when failures happen — the
// expected completion time under an exponential (MTBF-parameterized)
// failure arrival process, with multiple failures per run, failures landing
// inside checkpoint stable-storage writes and failures striking mid-
// recovery. For each app the MTBF is swept as a fraction of the failure-
// free execution time; each (app, MTBF, scheme) cell runs `--runs` seeded
// campaign runs that differ only in the failure schedule.
//
//   ./campaign [--apps=SOR-384,NQUEENS-14] [--mtbf-fracs=0.35,0.7,1.4]
//              [--runs=4] [--max-failures=6] [--nodes=8] [--checkpoints=0]
//              [--intervals=5] [--seed=2026] [--campaign-seed=1]
//              [--link-loss=0] [--link-dup=0] [--link-corrupt=0]
//              [--link-delay=0] [--link-delay-mean=0.001]
//              [--io-error=0] [--io-degrade=1] [--bitrot=0] [--keep-depth=0]
//              [--detect-timeout=0] [--hb-period=0.25] [--target-coordinator]
//              [--detector=binary|phi] [--phi-threshold=8] [--phi-window=32]
//              [--json-out=BENCH_campaign.json] [--quick]
//
// --intervals sets the checkpoint interval to normal_exec/intervals;
// --checkpoints=0 keeps checkpointing active until the app completes (the
// right setting when failures extend the run). --link-loss/--link-dup/
// --link-corrupt/--link-delay add per-frame link faults on top of the
// failure process; the reliable FIFO transport always repairs them.
// --io-error/--io-degrade/--bitrot make the stable storage itself
// unreliable (transient write/read I/O errors, degraded-throughput
// windows, silent image corruption); the retrying storage client and
// verified multi-generation recovery absorb them, with --keep-depth
// (0 = auto) controlling how many generations retention keeps per rank.
// --detect-timeout=S (> 0) arms the cluster-membership service: failures
// go through heartbeat detection, quorum eviction and coordinator election
// instead of the oracle, with --hb-period setting the beacon period and
// --target-coordinator aiming every strike at the elected coordinator.
// --detector picks how suspicion forms: "binary" (fixed timeout, the
// default) or "phi" (accrual detection adapting to the observed heartbeat
// inter-arrivals), with --phi-threshold (suspicion level, phi units) and
// --phi-window (inter-arrival samples); phi knobs on the binary detector
// are rejected rather than ignored.
// --quick shrinks the sweep for smoke testing
// (1 app, 2 MTBF points, 2 runs). Every run verifies the application
// digest against the failure-free baseline; the output is byte-identical
// across repeats with the same seeds.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "faultsim/campaign.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chk;

struct Cell {
  std::string app;
  double mtbf_frac = 0;
  harness::Scheme scheme = harness::Scheme::kNone;
  faultsim::CampaignResult result;
};

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::vector<std::string> app_labels =
      cli.get_list<std::string>("apps", quick ? "SOR-384" : "SOR-384,NQUEENS-14");
  for (const std::string& label : app_labels) (void)harness::find_row(label);  // known apps only
  const std::vector<double> mtbf_fracs =
      bench::get_list_in(cli, "mtbf-fracs", quick ? "0.4,0.8" : "0.35,0.7,1.4", 1e-3, 1e3);
  const auto runs = static_cast<std::uint32_t>(cli.get_int("runs", quick ? 2 : 4, 1, 1000));
  const auto max_failures =
      static_cast<std::uint32_t>(cli.get_int("max-failures", 6, 0, 1000));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1, 1024));
  const auto checkpoints =
      static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0, 1'000'000));
  const double intervals = cli.get_double("intervals", 5.0, 1e-3, 1e3);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026, 0, bench::kMaxSeed));
  const auto campaign_seed =
      static_cast<std::uint64_t>(cli.get_int("campaign-seed", 1, 0, bench::kMaxSeed));
  chklib::LinkFaultConfig link_faults;
  link_faults.drop = cli.get_double("link-loss", 0.0, 0.0, 1.0);
  link_faults.duplicate = cli.get_double("link-dup", 0.0, 0.0, 1.0);
  link_faults.corrupt = cli.get_double("link-corrupt", 0.0, 0.0, 1.0);
  link_faults.delay_prob = cli.get_double("link-delay", 0.0, 0.0, 1.0);
  link_faults.delay_mean_s = cli.get_double("link-delay-mean", 1e-3, 0.0, 1e3);
  link_faults.validate();
  xplorer::StorageFaultConfig storage_faults;
  const double io_error = cli.get_double("io-error", 0.0, 0.0, 1.0);
  storage_faults.write_error = io_error;
  storage_faults.read_error = io_error;
  storage_faults.bitrot = cli.get_double("bitrot", 0.0, 0.0, 1.0);
  storage_faults.degrade_factor = cli.get_double("io-degrade", 1.0, 1.0, 1e3);
  storage_faults.validate();
  const auto keep_depth = static_cast<std::uint32_t>(cli.get_int("keep-depth", 0, 0, 1000));
  std::optional<chklib::membership::MembershipConfig> membership;
  const double detect_timeout = cli.get_double("detect-timeout", 0.0, 0.0, 1e3);
  const double hb_period = cli.get_double("hb-period", 0.25, 0.0, 1e3);
  chklib::membership::MembershipConfig m;
  bench::read_detector(cli, m);
  if (detect_timeout > 0) {
    m.detect_timeout = des::Duration::seconds(detect_timeout);
    m.hb_period = des::Duration::seconds(hb_period);
    m.validate(nodes);
    membership = m;
  } else if (m.detector == chklib::membership::Detector::kPhiAccrual) {
    throw std::invalid_argument(
        "--detector=phi needs --detect-timeout > 0 to arm the membership "
        "service (the detector has nothing to run on otherwise)");
  }
  const bool target_coordinator = cli.get_bool("target-coordinator", false);
  const std::string json_out = cli.get("json-out", "BENCH_campaign.json");
  cli.reject_unread();
  if (target_coordinator && !membership.has_value()) {
    throw std::invalid_argument(
        "--target-coordinator needs --detect-timeout > 0 — without the membership "
        "service there is no elected coordinator to aim at");
  }
  const std::vector<harness::Scheme>& schemes = bench::paper_schemes();

  // Failure-free baselines: the MTBF sweep and the checkpoint interval are
  // both expressed relative to each app's normal execution time, and the
  // baseline digest is the ground truth every faulted run must reproduce.
  std::printf("Baselines (no checkpointing, %zu nodes)...\n", nodes);
  const std::vector<harness::ExperimentResult> normal_runs =
      util::parallel_map(app_labels.size(), [&](std::size_t a) {
        harness::ExperimentConfig config;
        config.label = app_labels[a];
        config.app = harness::find_row(app_labels[a]).app;
        config.machine.num_nodes = nodes;
        config.seed = seed;
        return harness::run_normal(config);
      });
  std::map<std::string, harness::ExperimentResult> normals;
  for (std::size_t a = 0; a < app_labels.size(); ++a) {
    normals.emplace(app_labels[a], normal_runs[a]);
  }

  // One campaign per (app, mtbf, scheme) cell; cells are independent, so
  // fan out and collect in fixed order (output never depends on completion
  // order).
  std::vector<Cell> cells;
  for (const std::string& label : app_labels) {
    for (double frac : mtbf_fracs) {
      for (harness::Scheme scheme : schemes) {
        cells.push_back(Cell{label, frac, scheme, {}});
      }
    }
  }
  auto campaigns = util::parallel_map(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    const harness::ExperimentResult& normal = normals.at(cell.app);
    faultsim::CampaignConfig config;
    config.base.label = cell.app;
    config.base.app = harness::find_row(cell.app).app;
    config.base.scheme = cell.scheme;
    config.base.machine.num_nodes = nodes;
    config.base.seed = seed;
    config.base.checkpoints = checkpoints;
    config.base.interval = des::Duration::seconds(normal.exec_time_s / intervals);
    config.mtbf = des::Duration::seconds(normal.exec_time_s * cell.mtbf_frac);
    config.runs = runs;
    config.campaign_seed = campaign_seed;
    config.max_failures_per_run = max_failures;
    config.expected_digest = normal.digest;
    if (link_faults.enabled()) config.link_faults = link_faults;
    if (storage_faults.enabled()) config.storage_faults = storage_faults;
    config.membership = membership;
    // The sweep always spans every scheme; independent schemes have no
    // coordinator to aim at, so they keep the uniform victim draw.
    config.target_coordinator = target_coordinator && chklib::is_coordinated(cell.scheme);
    config.keep_depth = keep_depth;
    return faultsim::run_campaign(config);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].result = std::move(campaigns[i]);

  // Expected-completion-time table: rows = app x MTBF, columns = schemes.
  std::vector<std::string> header{"app", "MTBF/T"};
  for (harness::Scheme scheme : schemes) {
    header.emplace_back(to_string(scheme));
  }
  util::Table table(header);
  std::size_t cell_index = 0;
  bool all_verified = true;
  for (const std::string& label : app_labels) {
    for (double frac : mtbf_fracs) {
      std::vector<std::string> row{label, util::Table::fixed(frac, 2)};
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const faultsim::CampaignSummary& sum = cells[cell_index++].result.summary;
        all_verified = all_verified && sum.all_verified;
        const double slowdown =
            sum.mean_completion_s / normals.at(label).exec_time_s;
        row.push_back(util::format("{} ({}x)",
                                   util::Table::fixed(sum.mean_completion_s, 1),
                                   util::Table::fixed(slowdown, 2)));
      }
      table.add_row(std::move(row));
    }
  }
  std::fputs(
      table
          .render(util::format(
              "Expected completion time under failures (s, mean of {} runs; "
              "MTBF as a fraction of the failure-free time T; every run "
              "injects Poisson failures plus targeted mid-write and "
              "during-recovery strikes; digests verified: {})",
              runs, all_verified ? "yes" : "NO"))
          .c_str(),
      stdout);

  // Machine-readable document: fixed iteration order, simulated quantities
  // only — byte-identical across repeats with the same seeds.
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("campaign"));
  doc.set("nodes", Value::number(std::uint64_t{nodes}));
  doc.set("runs", Value::number(std::uint64_t{runs}));
  doc.set("max_failures_per_run", Value::number(std::uint64_t{max_failures}));
  doc.set("seed", Value::number(seed));
  doc.set("campaign_seed", Value::number(campaign_seed));
  doc.set("link_loss", Value::number(link_faults.drop));
  doc.set("link_dup", Value::number(link_faults.duplicate));
  doc.set("link_corrupt", Value::number(link_faults.corrupt));
  doc.set("link_delay", Value::number(link_faults.delay_prob));
  doc.set("io_error", Value::number(storage_faults.write_error));
  doc.set("io_degrade", Value::number(storage_faults.degrade_factor));
  doc.set("bitrot", Value::number(storage_faults.bitrot));
  doc.set("keep_depth", Value::number(std::uint64_t{keep_depth}));
  doc.set("detect_timeout_s",
          Value::number(membership.has_value()
                            ? membership->detect_timeout.to_seconds()
                            : 0.0));
  doc.set("hb_period_s",
          Value::number(membership.has_value() ? membership->hb_period.to_seconds()
                                               : 0.0));
  doc.set("detector",
          Value::string(membership.has_value()
                            ? chklib::membership::to_string(membership->detector)
                            : "off"));
  doc.set("phi_threshold",
          Value::number(
              membership.has_value() &&
                      membership->detector == chklib::membership::Detector::kPhiAccrual
                  ? static_cast<double>(membership->accrual.threshold_milli) / 1000.0
                  : 0.0));
  doc.set("phi_window",
          Value::number(
              membership.has_value() &&
                      membership->detector == chklib::membership::Detector::kPhiAccrual
                  ? std::uint64_t{membership->accrual.window}
                  : std::uint64_t{0}));
  doc.set("target_coordinator", Value::boolean(target_coordinator));
  doc.set("all_verified", Value::boolean(all_verified));
  Value row_array = Value::array();
  cell_index = 0;
  for (const std::string& label : app_labels) {
    const harness::ExperimentResult& normal = normals.at(label);
    for (double frac : mtbf_fracs) {
      Value entry = Value::object();
      entry.set("app", Value::string(label));
      entry.set("normal_exec_s", Value::number(normal.exec_time_s));
      entry.set("mtbf_frac", Value::number(frac));
      entry.set("mtbf_s", Value::number(normal.exec_time_s * frac));
      Value cell_array = Value::array();
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const Cell& cell = cells[cell_index++];
        Value cv = Value::object();
        cv.set("scheme", Value::string(std::string(to_string(cell.scheme))));
        cv.set("summary", faultsim::summary_to_json(cell.result.summary));
        Value run_array = Value::array();
        for (const faultsim::RunOutcome& outcome : cell.result.outcomes) {
          run_array.push_back(faultsim::outcome_to_json(outcome));
        }
        cv.set("runs", std::move(run_array));
        cell_array.push_back(std::move(cv));
      }
      entry.set("cells", std::move(cell_array));
      row_array.push_back(std::move(entry));
    }
  }
  doc.set("rows", std::move(row_array));
  obs::write_text_file(json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", json_out.c_str());
  return all_verified ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
