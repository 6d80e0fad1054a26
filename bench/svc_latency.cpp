// svc latency sweep: the five paper schemes measured by what a live
// request-serving workload feels — tail latency SLOs — instead of batch
// completion time.
//
// Each cell hosts the sharded KV service (src/svc) on `--nodes` ranks,
// drives it with an open-loop Poisson client population at one arrival
// rate, runs one checkpoint scheme, and (at faulty points) a Poisson crash
// process with the given MTBF. Per-request end-to-end latency is measured
// against the *scheduled* arrival instant, so freezes, checkpoint drains
// and recovery windows land in the tail exactly as a live population would
// experience them. Every run must reproduce the simulator-free LWW
// reference digest — faults may cost latency, never data.
//
//   ./svc_latency [--nodes=8] [--rates=200,400] [--mtbfs=0,1.5]
//                 [--horizon=4] [--interval=0.8] [--max-failures=2]
//                 [--membership] [--detector=binary|phi] [--detect-timeout=0.6]
//                 [--hb-period=0.25] [--phi-threshold=8] [--phi-window=32]
//                 [--seed=2026] [--json-out=BENCH_svc.json] [--quick]
//
// --rates are per-rank arrival rates (Hz); --mtbfs are crash-process MTBFs
// in seconds, 0 = fault-free. --membership puts the cluster-membership
// service under the latency lens: every sweep cell runs heartbeat
// detection during the request traffic (crashes are *detected*, not
// oracle-reported), and a second section kills the elected coordinator
// mid-traffic for every scheme — one view change, measured detection
// latency, and the membership_wait attribution bucket keeping the
// blocked-time partition exact. --detector picks binary or phi-accrual
// suspicion (phi knobs with --detector=binary are rejected). --quick
// shrinks the sweep to one rate and {fault-free, one faulty} points.
// Output is byte-identical across repeats with the same seed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "svc/kvstore.hpp"
#include "util/parallel.hpp"

namespace {

using namespace chk;

/// One cell of the sweep: the experiment outcome plus the merged workload
/// metrics rank 0 deposited at drain.
struct Cell {
  harness::ExperimentResult result;
  svc::SvcMetrics metrics;
};

/// One sweep or kill cell: run `config` and collect the metrics its svc
/// workload deposits in `params.sink`.
Cell run_cell(const harness::ExperimentConfig& config, const svc::SvcParams& params) {
  Cell cell;
  cell.result = harness::run_experiment(config);
  cell.metrics = *params.sink;
  return cell;
}

/// Merged latency counts as a quantile-ready snapshot (edges in seconds).
obs::HistogramSnapshot latency_snapshot(const svc::SvcMetrics& m) {
  obs::HistogramSnapshot snap;
  snap.edges = obs::LogHistogram::make_edges(svc::kLatMinExp, svc::kLatMaxExp, 1e-9);
  snap.counts = m.latency_counts;
  if (snap.counts.empty()) snap.counts.assign(svc::kLatBuckets, 0);
  for (const std::uint64_t c : snap.counts) snap.total_count += c;
  snap.sum = static_cast<double>(m.latency_sum_ns) * 1e-9;
  return snap;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);

  const std::vector<double> rates =
      bench::get_list_in(cli, "rates", quick ? "300" : "200,400", 1.0, 1e6);
  const std::vector<double> mtbfs = bench::get_list_in(cli, "mtbfs", "0,1.5", 0.0, 1e9);
  std::optional<chklib::membership::MembershipConfig> membership;
  const bool membership_on = cli.get_bool("membership", false);
  if (!membership_on) {
    for (const char* flag :
         {"detector", "detect-timeout", "hb-period", "phi-threshold", "phi-window"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --membership (there is no detector "
                                    "to configure without it)");
      }
    }
  } else {
    chklib::membership::MembershipConfig m;
    bench::read_detector(cli, m);
    // Aggressive by default: the svc horizon is seconds, so detection at
    // the lax 2 s default would dominate every faulty cell's tail. The
    // links are clean here — storms need loss — so 0.6 s is safe.
    m.detect_timeout =
        des::Duration::seconds(cli.get_double("detect-timeout", 0.6, 0.0, 1e3));
    m.hb_period = des::Duration::seconds(cli.get_double("hb-period", 0.25, 0.0, 1e3));
    membership = m;
  }
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 8, 1, 64));
  const double horizon = cli.get_double("horizon", 4.0, 1e-3, 1e3);
  const double interval = cli.get_double("interval", 0.8, 1e-3, 1e3);
  const auto max_failures =
      static_cast<std::uint32_t>(cli.get_int("max-failures", 2, 0, 1000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026, 0, bench::kMaxSeed));
  const std::string json_out = cli.get("json-out", "BENCH_svc.json");
  cli.reject_unread();
  if (membership.has_value()) membership->validate(nodes);
  const std::vector<harness::Scheme>& schemes = bench::paper_schemes();

  svc::SvcParams base_params;
  base_params.horizon_s = horizon;

  // Every cell must land on this digest: the shard contents are a pure
  // function of the generated request set (LWW), so scheme and fault
  // timing may shift latency but never the data. One reference per rate.
  std::vector<double> references;
  references.reserve(rates.size());
  for (const double rate : rates) {
    svc::SvcParams p = base_params;
    p.arrival_hz = rate;
    references.push_back(svc::svc_reference_digest(p, nodes, seed));
  }

  const std::size_t columns = schemes.size();
  const std::vector<Cell> cells =
      util::parallel_map(rates.size() * mtbfs.size() * columns, [&](std::size_t i) {
        const double rate = rates[i / columns / mtbfs.size()];
        const double mtbf = mtbfs[i / columns % mtbfs.size()];
        svc::SvcParams params = base_params;
        params.arrival_hz = rate;
        params.sink = std::make_shared<svc::SvcMetrics>();
        harness::ExperimentConfig config;
        config.label = util::format("svc-{}hz", rate);
        config.app = svc::make_svc(params);
        config.scheme = schemes[i % columns];
        config.interval = des::Duration::seconds(interval);
        config.checkpoints = 0;  // keep checkpointing until the service drains
        config.seed = seed;
        config.membership = membership;
        if (mtbf > 0) {
          faultsim::FaultPlan crashes;
          crashes.mtbf = des::Duration::seconds(mtbf);
          crashes.max_failures = max_failures;
          crashes.stream = 1;
          config.faults = crashes;
        }
        return run_cell(config, params);
      });

  // Coordinator kill under traffic (--membership only): rank 0 — the
  // elected coordinator of the initial view — dies at mid-horizon while
  // requests flow, for every scheme at the first arrival rate. The
  // cluster must *detect* the death (one view change), and the
  // kMembershipWait episode must keep the per-rank blocked-time partition
  // exact, so these runs carry the obs tracer.
  const std::vector<Cell> kill_cells =
      util::parallel_map(membership.has_value() ? columns : 0, [&](std::size_t s) {
        svc::SvcParams params = base_params;
        params.arrival_hz = rates.front();
        params.sink = std::make_shared<svc::SvcMetrics>();
        harness::ExperimentConfig config;
        config.label = util::format("svc-kill-{}hz", rates.front());
        config.app = svc::make_svc(params);
        config.scheme = schemes[s];
        config.interval = des::Duration::seconds(interval);
        config.checkpoints = 0;
        config.seed = seed;
        config.membership = membership;
        config.observe = true;
        config.failure = harness::FailureSpec{
            des::TimePoint::origin() + des::Duration::seconds(horizon * 0.5), 0};
        return run_cell(config, params);
      });
  // Exactness of the attribution partition: every rank's bucket sum must
  // equal its total (the obs_test tolerance).
  auto partition_exact = [](const Cell& cell) {
    if (!cell.result.obs.has_value()) return false;
    for (const obs::RankBuckets& rank : cell.result.obs->attribution.ranks) {
      if (std::fabs(rank.bucket_sum_s() - rank.total_s()) > 1e-9) return false;
    }
    return true;
  };

  bool all_ok = true;
  {
    std::size_t index = 0;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      for (std::size_t m = 0; m < mtbfs.size(); ++m) {
        for (std::size_t s = 0; s < columns; ++s) {
          const Cell& cell = cells[index++];
          all_ok = all_ok && cell.result.digest == references[r] &&
                   cell.result.invariant_violations == 0 &&
                   cell.metrics.completed == cell.metrics.issued;
        }
      }
    }
    for (const Cell& cell : kill_cells) {
      all_ok = all_ok && cell.result.digest == references.front() &&
               cell.result.invariant_violations == 0 &&
               cell.metrics.completed == cell.metrics.issued &&
               cell.result.membership_crashes == 1 &&
               cell.result.views_established >= 1 && partition_exact(cell);
    }
  }

  std::vector<std::string> header{"rate", "mtbf"};
  for (const harness::Scheme scheme : schemes) header.emplace_back(to_string(scheme));
  util::Table table(header);
  std::size_t index = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t m = 0; m < mtbfs.size(); ++m) {
      std::vector<std::string> row{util::Table::fixed(rates[r], 0),
                                   util::Table::fixed(mtbfs[m], 1)};
      for (std::size_t s = 0; s < columns; ++s) {
        const Cell& cell = cells[index++];
        const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
        const double p50 = obs::histogram_quantile(snap, 0.50);
        const double p99 = obs::histogram_quantile(snap, 0.99);
        const double p999 = obs::histogram_quantile(snap, 0.999);
        row.push_back(util::format("{}/{}/{} ms rec={}",
                                   util::Table::fixed(p50 * 1e3, 2),
                                   util::Table::fixed(p99 * 1e3, 1),
                                   util::Table::fixed(p999 * 1e3, 1),
                                   cell.result.recoveries.size()));
      }
      table.add_row(std::move(row));
    }
  }
  std::fputs(
      table
          .render(util::format(
              "svc on {} nodes: end-to-end request latency p50/p99/p999 "
              "(upper-edge bounds) and recovery count per scheme; open-loop "
              "Poisson arrivals per rank, horizon {} s, checkpoint interval "
              "{} s, crash MTBF per row (0 = fault-free, <= {} failures); "
              "digests + invariants + open-loop conservation verified: {})",
              nodes, util::Table::fixed(horizon, 1), util::Table::fixed(interval, 1),
              max_failures, all_ok ? "yes" : "NO"))
          .c_str(),
      stdout);

  if (!kill_cells.empty()) {
    util::Table kill_table({"scheme", "p50/p99/p999 ms", "views", "detect_s",
                            "mwait_s", "partition", "digest"});
    for (const Cell& cell : kill_cells) {
      const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
      const double detect_s = cell.result.detection_latency_ns.empty()
                                  ? 0.0
                                  : static_cast<double>(
                                        cell.result.detection_latency_ns.front()) *
                                        1e-9;
      const double mwait = cell.result.obs.has_value()
                               ? cell.result.obs->attribution.total.membership_wait_s
                               : 0.0;
      kill_table.add_row(
          {std::string(to_string(cell.result.scheme)),
           util::format("{}/{}/{}",
                        util::Table::fixed(obs::histogram_quantile(snap, 0.50) * 1e3, 2),
                        util::Table::fixed(obs::histogram_quantile(snap, 0.99) * 1e3, 1),
                        util::Table::fixed(obs::histogram_quantile(snap, 0.999) * 1e3, 1)),
           std::to_string(cell.result.views_established),
           util::Table::fixed(detect_s, 2), util::Table::fixed(mwait, 2),
           partition_exact(cell) ? "exact" : "BROKEN",
           cell.result.digest == references.front() ? "ok" : "BAD"});
    }
    std::fputs(
        kill_table
            .render(util::format(
                "Coordinator (rank 0) killed at {} s under {} Hz traffic, {} "
                "detector: the cluster detects the death mid-traffic (one view "
                "change), tail latency absorbs detection + recovery, and the "
                "membership_wait bucket keeps the per-rank blocked-time "
                "partition exact",
                util::Table::fixed(horizon * 0.5, 1), util::Table::fixed(rates.front(), 0),
                chklib::membership::to_string(membership->detector)))
            .c_str(),
        stdout);
  }

  using obs::json::Value;
  Value doc = Value::object();
  doc.set("table", Value::string("svc_latency"));
  doc.set("nodes", Value::number(std::uint64_t{nodes}));
  doc.set("seed", Value::number(seed));
  doc.set("horizon_s", Value::number(horizon));
  doc.set("interval_s", Value::number(interval));
  doc.set("max_failures", Value::number(std::uint64_t{max_failures}));
  doc.set("membership", Value::boolean(membership.has_value()));
  doc.set("detector",
          Value::string(membership.has_value()
                            ? chklib::membership::to_string(membership->detector)
                            : "off"));
  doc.set("detect_timeout_s",
          Value::number(membership.has_value()
                            ? membership->detect_timeout.to_seconds()
                            : 0.0));
  doc.set("hb_period_s",
          Value::number(membership.has_value() ? membership->hb_period.to_seconds()
                                               : 0.0));
  doc.set("all_verified", Value::boolean(all_ok));
  Value row_array = Value::array();
  index = 0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    for (std::size_t m = 0; m < mtbfs.size(); ++m) {
      Value entry = Value::object();
      entry.set("arrival_hz", Value::number(rates[r]));
      entry.set("mtbf_s", Value::number(mtbfs[m]));
      entry.set("reference_digest", Value::number(references[r]));
      Value cell_array = Value::array();
      for (std::size_t s = 0; s < columns; ++s) {
        const Cell& cell = cells[index++];
        const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
        Value cv = Value::object();
        cv.set("scheme", Value::string(std::string(to_string(cell.result.scheme))));
        cv.set("issued", Value::number(cell.metrics.issued));
        cv.set("completed", Value::number(cell.metrics.completed));
        cv.set("hits", Value::number(cell.metrics.hits));
        cv.set("live_keys", Value::number(cell.metrics.live_keys));
        cv.set("live_bytes", Value::number(cell.metrics.live_bytes));
        cv.set("lat_p50_s", Value::number(obs::histogram_quantile(snap, 0.50)));
        cv.set("lat_p99_s", Value::number(obs::histogram_quantile(snap, 0.99)));
        cv.set("lat_p999_s", Value::number(obs::histogram_quantile(snap, 0.999)));
        cv.set("lat_mean_s",
               Value::number(snap.total_count == 0
                                 ? 0.0
                                 : snap.sum / static_cast<double>(snap.total_count)));
        cv.set("lat_max_s",
               Value::number(static_cast<double>(cell.metrics.latency_max_ns) * 1e-9));
        cv.set("queue_wait_s",
               Value::number(static_cast<double>(cell.metrics.queue_wait_sum_ns) * 1e-9));
        Value counts = Value::array();
        for (const std::uint64_t c : snap.counts) counts.push_back(Value::number(c));
        cv.set("lat_counts", std::move(counts));
        // Recovery-downtime windows: when each failure hit and how long the
        // service was down until every process was restarted.
        Value recoveries = Value::array();
        for (const harness::RecoveryReport& rec : cell.result.recoveries) {
          Value rv = Value::object();
          rv.set("failed_at_s", Value::number(rec.failed_at.to_seconds()));
          rv.set("failed_rank", Value::number(std::uint64_t{rec.failed_rank}));
          rv.set("downtime_s", Value::number(rec.recovery_latency.to_seconds()));
          recoveries.push_back(std::move(rv));
        }
        cv.set("recoveries", std::move(recoveries));
        // The measured checkpoint-image curve: the shard grows and shrinks
        // with the put/delete mix, so bytes per capture is data, not a
        // constant.
        Value images = Value::array();
        for (const chklib::ProtocolStats::ImageRecord& img : cell.result.image_log) {
          Value iv = Value::object();
          iv.set("index", Value::number(std::uint64_t{img.index}));
          iv.set("rank", Value::number(std::uint64_t{img.rank}));
          iv.set("bytes", Value::number(img.bytes));
          iv.set("at_s", Value::number(static_cast<double>(img.at_ns) * 1e-9));
          iv.set("delta", Value::boolean(img.delta));
          images.push_back(std::move(iv));
        }
        cv.set("image_log", std::move(images));
        cv.set("digest_ok", Value::boolean(cell.result.digest == references[r]));
        cv.set("metrics", obs::metrics_to_json(harness::run_metrics(cell.result)));
        cell_array.push_back(std::move(cv));
      }
      entry.set("cells", std::move(cell_array));
      row_array.push_back(std::move(entry));
    }
  }
  doc.set("rows", std::move(row_array));
  if (!kill_cells.empty()) {
    Value kill_array = Value::array();
    for (const Cell& cell : kill_cells) {
      const obs::HistogramSnapshot snap = latency_snapshot(cell.metrics);
      Value kv = Value::object();
      kv.set("scheme", Value::string(std::string(to_string(cell.result.scheme))));
      kv.set("lat_p50_s", Value::number(obs::histogram_quantile(snap, 0.50)));
      kv.set("lat_p99_s", Value::number(obs::histogram_quantile(snap, 0.99)));
      kv.set("lat_p999_s", Value::number(obs::histogram_quantile(snap, 0.999)));
      Value lats = Value::array();
      for (const std::int64_t ns : cell.result.detection_latency_ns) {
        lats.push_back(Value::number(static_cast<double>(ns) * 1e-9));
      }
      kv.set("detection_latency_s", std::move(lats));
      kv.set("membership_wait_s",
             Value::number(cell.result.obs.has_value()
                               ? cell.result.obs->attribution.total.membership_wait_s
                               : 0.0));
      kv.set("partition_exact", Value::boolean(partition_exact(cell)));
      kv.set("digest_ok", Value::boolean(cell.result.digest == references.front()));
      kv.set("metrics", obs::metrics_to_json(harness::run_metrics(cell.result)));
      kill_array.push_back(std::move(kv));
    }
    doc.set("coordinator_kill", std::move(kill_array));
  }
  obs::write_text_file(json_out, doc.dump() + "\n");
  std::printf("\nWrote %s\n", json_out.c_str());
  return all_ok ? 0 : 1;
} catch (const std::invalid_argument& err) {
  return util::usage_error(argv[0], err);
}
