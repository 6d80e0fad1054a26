// Membership ablation: failure detection quality vs link loss, binary
// timeout against phi-accrual.
//
// The membership service turns failure handling from an oracle into a
// protocol: heartbeats, suspicion quorums, view changes, election and
// fencing. Detection quality gates everything downstream, and this sweep
// measures it from both sides. The binary detector's central knob is the
// detection timeout: a conservative value rides out loss bursts but leaves
// real crashes undetected for seconds; an aggressive one under heavy loss
// evicts perfectly live ranks — the false-suspicion storm. The phi-accrual
// detector (src/chklib/membership/accrual.hpp) replaces the fixed timeout
// with a suspicion level derived from each link's observed heartbeat
// inter-arrivals, so retransmission-stretched links widen their own
// windows. The headline comparison: at 20% frame loss the aggressive
// binary timeout evicts live ranks every run, phi-accrual evicts none —
// while its real-crash detection latency stays within 2x the binary's.
//
// A second section kills the *coordinator* mid-round for each coordinated
// scheme under each detector: the cluster detects the death, elects a
// successor (the view id encodes it), re-initiates the aborted round at a
// higher epoch, and the run completes verified — with the measured
// detection latency (crash -> evicting view) reported per detector.
//
//   ./ablation_membership [--app=SOR-384] [--detector=both|binary|phi]
//                         [--timeouts=0.6,1.5,4.0] [--phi-thresholds=4,8,12]
//                         [--phi-window=32] [--losses=0,0.05,0.2]
//                         [--hb-period=0.25] [--nodes=8] [--checkpoints=0]
//                         [--intervals=5] [--seed=2026]
//                         [--json-out=BENCH_membership.json] [--quick]
//
// --detector narrows the sweep to one detector ("both" runs the full A/B
// grid); --phi-thresholds are suspicion thresholds in phi units (phi 8 ~
// "the silence is < 1e-8 probable"); phi knobs combined with
// --detector=binary are rejected rather than ignored. --quick shrinks the
// sweep (2 timeouts x 1 threshold x 2 loss points). Output is
// byte-identical across repeats with the same seed.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chk;
using chklib::membership::Detector;

/// The coordinated schemes whose coordinator the kill section murders.
const std::vector<harness::Scheme>& coordinated_schemes() {
  static const std::vector<harness::Scheme> schemes{
      harness::Scheme::kCoordNB, harness::Scheme::kCoordNBM,
      harness::Scheme::kCoordNBMS};
  return schemes;
}

double mean_latency_s(const harness::ExperimentResult& r) {
  if (r.detection_latency_ns.empty()) return 0.0;
  double sum = 0;
  for (const std::int64_t ns : r.detection_latency_ns) sum += static_cast<double>(ns);
  return sum * 1e-9 / static_cast<double>(r.detection_latency_ns.size());
}

obs::json::Value cell_json(const harness::ExperimentResult& r, bool digest_ok) {
  using obs::json::Value;
  Value cv = Value::object();
  cv.set("scheme", Value::string(std::string(to_string(r.scheme))));
  // Exact per-detection latencies; the metrics carry the same samples in
  // the log-spaced "membership/detection_latency_s" histogram.
  Value lats = Value::array();
  double lat_max = 0;
  for (const std::int64_t ns : r.detection_latency_ns) {
    const double s = static_cast<double>(ns) * 1e-9;
    lats.push_back(Value::number(s));
    if (s > lat_max) lat_max = s;
  }
  cv.set("detection_latency_s", std::move(lats));
  cv.set("detection_lat_mean_s", Value::number(mean_latency_s(r)));
  cv.set("detection_lat_max_s", Value::number(lat_max));
  cv.set("digest_ok", Value::boolean(digest_ok));
  cv.set("metrics", obs::metrics_to_json(harness::run_metrics(r)));
  return cv;
}

/// One grid row: a detector point (binary timeout or phi threshold) at one
/// loss rate, across the five schemes.
struct GridRow {
  Detector detector = Detector::kBinaryTimeout;
  double knob = 0;  ///< detect_timeout_s (binary) or phi threshold (phi)
  double loss = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::string app_label = cli.get("app", "SOR-384");
  bool run_binary = true;
  bool run_phi = true;
  const std::string detector_flag = cli.get("detector", "both");
  if (detector_flag == "binary") {
    run_phi = false;
  } else if (detector_flag == "phi") {
    run_binary = false;
  } else if (detector_flag != "both") {
    throw std::invalid_argument("--detector: expected \"both\", \"binary\" or \"phi\", got \"" +
                                detector_flag + "\"");
  }
  if (!run_phi) {
    for (const char* flag : {"phi-thresholds", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --detector=phi or both (the binary "
                                    "detector has no phi knobs)");
      }
    }
  }
  const std::vector<double> timeouts =
      bench::get_list_in(cli, "timeouts", quick ? "0.6,4.0" : "0.6,1.5,4.0", 1e-3, 1e3);
  const std::vector<double> thresholds =
      bench::get_list_in(cli, "phi-thresholds", quick ? "8" : "4,8,12", 1e-3, 1e3);
  const auto phi_window = static_cast<std::uint32_t>(cli.get_int("phi-window", 32, 1, 1024));
  const std::vector<double> losses =
      bench::get_list_in(cli, "losses", quick ? "0,0.2" : "0,0.05,0.2", 0.0, 1.0);
  const double hb_period = cli.get_double("hb-period", 0.25, 0.0, 1e3);
  for (double t : timeouts) {
    if (t <= hb_period) {
      throw std::invalid_argument(
          "--timeouts: every detection timeout must exceed --hb-period (" +
          std::to_string(hb_period) + " s)");
    }
  }
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1, 1024));
  const auto checkpoints =
      static_cast<std::uint32_t>(cli.get_int("checkpoints", 0, 0, 1'000'000));
  const double intervals = cli.get_double("intervals", 5.0, 1e-3, 1e3);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026, 0, bench::kMaxSeed));
  const std::string json_out = cli.get("json-out", "BENCH_membership.json");
  cli.reject_unread();
  const std::vector<harness::Scheme>& schemes = bench::paper_schemes();

  // Baseline: failure-free, perfect links, no detector — sets the
  // checkpoint interval and the digest every membership run must still
  // compute (fencing has to keep wrongful evictions answer-preserving).
  harness::ExperimentConfig base;
  base.label = app_label;
  base.app = harness::find_row(app_label).app;
  base.machine.num_nodes = nodes;
  base.seed = seed;
  base.checkpoints = checkpoints;
  const harness::ExperimentResult normal = harness::run_normal(base);
  base.interval = des::Duration::seconds(normal.exec_time_s / intervals);

  auto make_membership = [&](Detector detector, double knob) {
    chklib::membership::MembershipConfig membership;
    membership.hb_period = des::Duration::seconds(hb_period);
    membership.detector = detector;
    if (detector == Detector::kBinaryTimeout) {
      membership.detect_timeout = des::Duration::seconds(knob);
    } else {
      // Phi keeps the lax default timeout as its warm-up bootstrap; the
      // steady-state aggressiveness comes from the threshold, not a
      // hand-tuned timeout — that is the point of the comparison.
      membership.accrual.threshold_milli =
          static_cast<std::int64_t>(knob * 1000.0);
      membership.accrual.window = phi_window;
    }
    return membership;
  };

  // Section 1: detector x knob x link-loss grid, detector always on.
  std::vector<GridRow> grid;
  if (run_binary) {
    for (double timeout : timeouts) {
      for (double loss : losses) {
        grid.push_back({Detector::kBinaryTimeout, timeout, loss});
      }
    }
  }
  if (run_phi) {
    for (double threshold : thresholds) {
      for (double loss : losses) {
        grid.push_back({Detector::kPhiAccrual, threshold, loss});
      }
    }
  }
  const std::size_t columns = schemes.size();
  const auto results = util::parallel_map(grid.size() * columns, [&](std::size_t i) {
    const GridRow& row = grid[i / columns];
    harness::ExperimentConfig config = base;
    config.scheme = schemes[i % columns];
    config.membership = make_membership(row.detector, row.knob);
    if (row.loss > 0.0) {
      chklib::LinkFaultConfig faults;
      faults.drop = row.loss;
      faults.duplicate = row.loss / 2;
      faults.corrupt = row.loss / 4;
      config.link_faults = faults;
    }
    return harness::run_experiment(config);
  });

  // Section 2: coordinator killed mid-run, clean links, one strike aimed
  // at whoever the current elected coordinator is — once per detector, so
  // the JSON carries the real-crash detection-latency A/B.
  std::vector<Detector> kill_detectors;
  if (run_binary) kill_detectors.push_back(Detector::kBinaryTimeout);
  if (run_phi) kill_detectors.push_back(Detector::kPhiAccrual);
  const double kill_timeout =
      timeouts.size() > 1 ? timeouts[timeouts.size() / 2] : timeouts.front();
  const double kill_threshold =
      thresholds.size() > 1 ? thresholds[thresholds.size() / 2] : thresholds.front();
  const std::size_t coordinated = coordinated_schemes().size();
  const auto kills =
      util::parallel_map(kill_detectors.size() * coordinated, [&](std::size_t i) {
        const Detector detector = kill_detectors[i / coordinated];
        harness::ExperimentConfig config = base;
        config.scheme = coordinated_schemes()[i % coordinated];
        config.membership = make_membership(
            detector, detector == Detector::kBinaryTimeout ? kill_timeout : kill_threshold);
        if (detector == Detector::kPhiAccrual) {
          // If the strike lands before the accrual windows warm up, phi
          // falls back to its bootstrap timeout. Give it the same bootstrap
          // binary runs with, so the latency A/B compares detectors rather
          // than warm-up defaults.
          config.membership->detect_timeout = des::Duration::seconds(kill_timeout);
        }
        faultsim::FaultPlan plan;
        plan.mtbf = des::Duration::seconds(normal.exec_time_s * 0.4);
        plan.max_failures = 1;
        plan.target_coordinator = true;
        config.faults = plan;
        return harness::run_experiment(config);
      });

  bool all_ok = true;
  for (const harness::ExperimentResult& r : results) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }
  for (const harness::ExperimentResult& r : kills) {
    all_ok = all_ok && r.digest == normal.digest && r.invariant_violations == 0;
  }

  // The headline A/B: wrongful evictions at the highest loss point, the
  // most aggressive binary timeout against every phi threshold.
  const double max_loss = *std::max_element(losses.begin(), losses.end());
  std::uint64_t binary_aggressive_wrongful = 0;
  std::uint64_t phi_wrongful_at_max_loss = 0;
  {
    std::size_t index = 0;
    for (const GridRow& row : grid) {
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        const harness::ExperimentResult& r = results[index++];
        if (row.loss != max_loss) continue;
        if (row.detector == Detector::kBinaryTimeout && row.knob == timeouts.front()) {
          binary_aggressive_wrongful += r.wrongful_evictions;
        }
        if (row.detector == Detector::kPhiAccrual) {
          phi_wrongful_at_max_loss += r.wrongful_evictions;
        }
      }
    }
  }

  std::vector<std::string> header{"detector", "knob", "loss"};
  for (harness::Scheme scheme : schemes) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (const GridRow& gr : grid) {
    std::vector<std::string> row{
        chklib::membership::to_string(gr.detector),
        util::Table::fixed(gr.knob, 1), util::Table::fixed(gr.loss, 2)};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const harness::ExperimentResult& r = results[index++];
      row.push_back(util::format("{} ev={} wr={} rj={}",
                                 util::Table::fixed(r.exec_time_s, 1), r.evictions,
                                 r.wrongful_evictions, r.rejoins));
    }
    table.add_row(std::move(row));
  }
  std::fputs(
      table
          .render(util::format(
              "{} on {} nodes, detector A/B (hb={}s; knob = detection timeout "
              "s for binary, suspicion threshold phi for phi; exec time s, "
              "evictions, wrongful evictions, rejoins per scheme). Aggressive "
              "binary timeouts under loss evict live ranks — fenced, rejoined, "
              "answer preserved — where phi-accrual adapts and evicts none; "
              "digests + invariants verified: {})",
              app_label, nodes, util::Table::fixed(hb_period, 2),
              all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  std::vector<std::string> kill_header{"detector", "scheme",  "exec_s", "views",
                                       "evictions", "detect_s", "forced", "digest"};
  util::Table kill_table(kill_header);
  index = 0;
  for (Detector detector : kill_detectors) {
    for (std::size_t s = 0; s < coordinated_schemes().size(); ++s) {
      const harness::ExperimentResult& r = kills[index++];
      kill_table.add_row({chklib::membership::to_string(detector),
                          std::string(to_string(r.scheme)),
                          util::Table::fixed(r.exec_time_s, 1),
                          std::to_string(r.views_established),
                          std::to_string(r.evictions),
                          util::Table::fixed(mean_latency_s(r), 2),
                          std::to_string(r.forced_recoveries),
                          r.digest == normal.digest ? "ok" : "BAD"});
    }
  }
  std::fputs(kill_table
                 .render("Coordinator killed mid-run per detector: the cluster "
                         "detects the death (detect_s = crash to evicting "
                         "view), elects a successor and the run completes "
                         "verified")
                 .c_str(),
             stdout);

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("membership"));
  doc.set("app", Value::string(app_label));
  doc.set("nodes", Value::number(std::uint64_t{nodes}));
  doc.set("seed", Value::number(seed));
  doc.set("hb_period_s", Value::number(hb_period));
  doc.set("phi_window", Value::number(std::uint64_t{phi_window}));
  doc.set("normal_exec_s", Value::number(normal.exec_time_s));
  doc.set("all_verified", Value::boolean(all_ok));
  doc.set("binary_aggressive_wrongful", Value::number(binary_aggressive_wrongful));
  doc.set("phi_wrongful_at_max_loss", Value::number(phi_wrongful_at_max_loss));
  Value row_array = Value::array();
  index = 0;
  for (const GridRow& gr : grid) {
    Value entry = Value::object();
    entry.set("detector", Value::string(chklib::membership::to_string(gr.detector)));
    if (gr.detector == Detector::kBinaryTimeout) {
      entry.set("detect_timeout_s", Value::number(gr.knob));
    } else {
      entry.set("phi_threshold", Value::number(gr.knob));
    }
    entry.set("loss", Value::number(gr.loss));
    Value cell_array = Value::array();
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const harness::ExperimentResult& r = results[index++];
      cell_array.push_back(cell_json(r, r.digest == normal.digest));
    }
    entry.set("cells", std::move(cell_array));
    row_array.push_back(std::move(entry));
  }
  doc.set("rows", std::move(row_array));
  Value kill_array = Value::array();
  index = 0;
  for (Detector detector : kill_detectors) {
    for (std::size_t s = 0; s < coordinated_schemes().size(); ++s) {
      const harness::ExperimentResult& r = kills[index++];
      Value kv = cell_json(r, r.digest == normal.digest);
      kv.set("detector", Value::string(chklib::membership::to_string(detector)));
      kill_array.push_back(std::move(kv));
    }
  }
  doc.set("coordinator_kill", std::move(kill_array));
  obs::write_text_file(json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", json_out.c_str());
  return all_ok ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
