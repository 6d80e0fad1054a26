#include "harness/experiment.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "chklib/proto/coordinated.hpp"
#include "chklib/proto/independent.hpp"
#include "chklib/verify/monitor.hpp"
#include "des/simulator.hpp"
#include "faultsim/injector.hpp"

namespace chk::harness {

namespace {

/// Log-histogram exponents for membership detection latency: 2^20 ns
/// (~1 ms) .. 2^34 ns (~17 s), wide enough for aggressive phi thresholds
/// and the laxest deadman alike.
constexpr int kDetectLatMinExp = 20;
constexpr int kDetectLatMaxExp = 34;

/// Upper edges of the ckpt/window_s buckets, in seconds.
constexpr double kWindowEdgesS[] = {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0};

/// The membership/detection_latency_s histogram: log-spaced, negative
/// latencies clamped to 0, the sum kept in integer ns and scaled once.
obs::HistogramSnapshot detection_latency_histogram(const std::vector<std::int64_t>& latency_ns) {
  obs::HistogramSnapshot h;
  h.edges = obs::LogHistogram::make_edges(kDetectLatMinExp, kDetectLatMaxExp, 1e-9);
  h.counts.assign(h.edges.size() + 1, 0);
  std::uint64_t sum_ns = 0;
  for (const std::int64_t ns : latency_ns) {
    const auto clamped = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    ++h.counts[obs::LogHistogram::bucket_of(clamped, kDetectLatMinExp, kDetectLatMaxExp)];
    sum_ns += clamped;
  }
  h.total_count = latency_ns.size();
  h.sum = static_cast<double>(sum_ns) * 1e-9;
  return h;
}

/// Write every scalar of the run's result into `m`.
void publish_result(const ExperimentResult& result, obs::MetricsSnapshot& m) {
  auto& c = m.counters;
  auto& g = m.gauges;
  c["run/events"] = result.events;
  c["comm/app_messages"] = result.app_messages;
  c["comm/app_bytes"] = result.app_bytes;
  c["comm/control_messages"] = result.control_messages;
  c["comm/control_bytes"] = result.control_bytes;
  c["comm/checkpoint_bytes"] = result.checkpoint_net_bytes;
  c["ckpt/local_checkpoints"] = result.local_checkpoints;
  c["ckpt/committed_rounds"] = result.committed_rounds;
  c["ckpt/gc_reclaimed"] = result.gc_reclaimed;
  c["ckpt/bytes_written"] = result.bytes_written;
  c["storage/peak_bytes"] = result.peak_storage_bytes;
  c["storage/final_bytes"] = result.final_storage_bytes;
  c["storage/final_checkpoints"] = result.final_stored_checkpoints;

  g["run/exec_time_s"] = result.exec_time_s;
  g["overhead/app_blocked_s"] = result.app_blocked_s;
  g["overhead/interference_s"] = result.interference_s;
  g["storage/disk_busy_s"] = result.disk_busy_s;
  g["storage/disk_wait_s"] = result.disk_wait_s;
  g["storage/host_link_busy_s"] = result.host_link_busy_s;
  g["comm/link_busy_s"] = result.link_busy_s;

  // Invariant monitor (all zero unless config.verify).
  c["verify/checks"] = result.invariant_checks;
  c["verify/violations"] = result.invariant_violations;
  c["verify/in_flight_at_end"] = result.messages_in_flight_at_end;

  // Transport / link-fault counters (all zero with faults off).
  c["comm/retransmits"] = result.retransmits;
  c["comm/dups_suppressed"] = result.dups_suppressed;
  c["comm/corrupt_detected"] = result.corrupt_detected;
  c["comm/link_drops"] = result.link_drops;
  c["comm/link_duplicates"] = result.link_duplicates;
  c["comm/link_corrupted"] = result.link_corrupted;
  c["comm/link_delayed"] = result.link_delayed;
  c["ckpt/aborted_rounds"] = result.aborted_rounds;
  c["ckpt/tokens_regenerated"] = result.tokens_regenerated;

  // Cluster-membership counters (all zero with the membership service off).
  c["membership/heartbeats_sent"] = result.heartbeats_sent;
  c["membership/suspicions"] = result.suspicions;
  c["membership/views_established"] = result.views_established;
  c["membership/evictions"] = result.evictions;
  c["membership/wrongful_evictions"] = result.wrongful_evictions;
  c["membership/rejoins"] = result.rejoins;
  c["membership/crashes"] = result.membership_crashes;
  c["membership/forced_recoveries"] = result.forced_recoveries;
  c["membership/suspicions_cleared"] = result.suspicions_cleared;
  c["membership/detections"] = result.detections;
  m.histograms["membership/detection_latency_s"] =
      detection_latency_histogram(result.detection_latency_ns);

  // Stable-storage fault counters (all zero with storage faults off).
  c["storage/io_write_errors"] = result.io_write_errors;
  c["storage/io_read_errors"] = result.io_read_errors;
  c["storage/bitrot_injected"] = result.bitrot_injected;
  c["storage/degraded_ops"] = result.degraded_ops;
  c["storage/retries"] = result.storage_retries;
  c["storage/write_failures"] = result.storage_write_failures;
  c["storage/read_failures"] = result.storage_read_failures;
  c["storage/reclaimed_bytes"] = result.reclaimed_bytes;
  c["ckpt/write_failures"] = result.ckpt_write_failures;
  c["ckpt/commit_write_failures"] = result.commit_write_failures;
  c["ckpt/corrupt_discarded"] = result.corrupt_discarded;
  c["recovery/generations_skipped"] = result.generations_skipped;
  g["storage/retry_wait_s"] = result.storage_retry_wait_s;

  // Fault injection (all zero unless config.faults).
  c["faults/injected"] = result.injections.injected;
  c["faults/mid_write"] = result.injections.mid_write;
  c["faults/during_recovery"] = result.injections.during_recovery;

  // Recovery outcome counters (all zero in failure-free runs).
  std::uint64_t interrupted = 0;
  std::uint64_t mid_write = 0;
  bool rolled_to_origin = false;  // any recovery fell back to the initial state
  std::uint64_t max_domino_depth = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_reread = 0;
  double latency_s = 0;
  for (const RecoveryReport& rep : result.recoveries) {
    interrupted += rep.interrupted ? 1 : 0;
    mid_write += rep.mid_write ? 1 : 0;
    rolled_to_origin = rolled_to_origin || rep.rolled_to_origin;
    for (const std::uint32_t depth : rep.domino_depth) {
      max_domino_depth = std::max<std::uint64_t>(max_domino_depth, depth);
    }
    bytes_read += rep.bytes_read;
    bytes_reread += rep.bytes_reread;
    latency_s += rep.recovery_latency.to_seconds();
  }
  c["recovery/failures"] = result.recoveries.size();
  c["recovery/interrupted"] = interrupted;
  c["recovery/mid_write"] = mid_write;
  c["recovery/rolled_to_origin"] = rolled_to_origin ? 1 : 0;
  c["recovery/max_domino_depth"] = max_domino_depth;
  c["recovery/bytes_read"] = bytes_read;
  c["recovery/bytes_reread"] = bytes_reread;
  c["recovery/writes_discarded"] = result.writes_discarded;
  g["recovery/latency_total_s"] = latency_s;
}

/// Write what only an observed run has into `m`: the trace's event count
/// and checkpoint windows and the per-rank overhead attribution.
void publish_trace(const ObsData& data, obs::MetricsSnapshot& m) {
  auto& c = m.counters;
  auto& g = m.gauges;
  c["run/trace_events"] = data.trace.events.size();

  const obs::RankBuckets& total = data.attribution.total;
  g["attrib/sync_wait_s"] = total.sync_wait_s;
  g["attrib/mem_copy_s"] = total.mem_copy_s;
  g["attrib/stable_write_s"] = total.stable_write_s;
  g["attrib/storage_contention_s"] = total.storage_contention_s;
  g["attrib/logging_s"] = total.logging_s;
  g["attrib/interference_s"] = total.interference_s;
  g["attrib/recovery_s"] = total.recovery_s;
  g["attrib/retransmit_wait_s"] = total.retransmit_wait_s;
  g["attrib/storage_retry_wait_s"] = total.storage_retry_wait_s;
  g["attrib/svc_queue_wait_s"] = total.svc_queue_wait_s;
  g["attrib/membership_wait_s"] = total.membership_wait_s;
  g["attrib/total_s"] = total.total_s();

  m.histograms["ckpt/window_s"] = checkpoint_window_histogram(data.trace);
}

/// The run's metrics snapshot; `data` (observed runs only) adds the
/// trace-derived metrics.
obs::MetricsSnapshot snapshot(const ExperimentResult& result, const ObsData* data) {
  obs::MetricsSnapshot m;
  publish_result(result, m);
  if (data != nullptr) publish_trace(*data, m);
  return m;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  obs::Tracer tracer;  // outlives the runtime (teardown may still emit)
  des::Simulator sim;
  chklib::Runtime runtime(sim, config.machine, config.seed);
  if (config.observe) sim.set_tracer(&tracer);
  runtime.set_app(config.label, config.app);

  // Unreliable links, which install the reliable transport with them.
  // Configured before the protocol exists so its control traffic rides the
  // transport from the first send.
  const bool lossy_links = config.link_faults.has_value() && config.link_faults->enabled();
  const bool membership_on = config.membership.has_value();
  if (lossy_links && !config.reliable_transport) {
    throw std::invalid_argument(
        "reliable_transport = false with link faults on: lossy links always "
        "ride the reliable transport");
  }
  if (lossy_links) {
    runtime.comm().set_link_faults(
        *config.link_faults,
        runtime.fork_rng(0x11F0u).fork(config.link_faults->stream));
  }
  // Unreliable stable storage. Installed before any write is submitted;
  // its RNG stream (tag 0x510F) is forked independently of the link-fault
  // stream (0x11F0), so the two fault domains compose seed-stably.
  const bool faulty_storage =
      config.storage_faults.has_value() && config.storage_faults->enabled();
  if (faulty_storage) {
    runtime.machine().storage().set_faults(
        *config.storage_faults,
        runtime.fork_rng(0x510Fu).fork(config.storage_faults->stream));
  }
  // Retention: one generation normally; two when the storage can rot or
  // fail a write, so verified recovery has a generation to fall back to.
  std::uint32_t keep_depth = config.keep_depth;
  if (keep_depth == 0) keep_depth = faulty_storage ? 2 : 1;
  // Watchdogs: off by default (arming the timers perturbs fault-free event
  // sequencing); auto-armed whenever the links are lossy — retransmission
  // backoff can hold a control frame for seconds — or the storage can fail
  // a commit write, which aborts rounds through the same re-initiation
  // path — or the membership service can crash / fence ranks mid-round,
  // which strands acks the same way.
  const bool needs_watchdog = lossy_links || faulty_storage || membership_on;
  const des::Duration round_timeout =
      needs_watchdog ? config.interval + des::Duration::secs(30) : des::Duration::zero();

  std::unique_ptr<chklib::Protocol> protocol;
  if (is_coordinated(config.scheme)) {
    protocol = std::make_unique<chklib::CoordinatedProtocol>(
        runtime,
        chklib::CoordinatedProtocol::Config{.scheme = config.scheme,
                                            .interval = config.interval,
                                            .rounds = config.checkpoints,
                                            .ablate_discard_state =
                                                config.ablate_empty_checkpoints,
                                            .incremental = config.incremental,
                                            .round_timeout = round_timeout,
                                            .keep_depth = keep_depth});
  } else if (is_independent(config.scheme)) {
    protocol = std::make_unique<chklib::IndependentProtocol>(
        runtime, chklib::IndependentProtocol::Config{.scheme = config.scheme,
                                                     .interval = config.interval,
                                                     .count = config.checkpoints,
                                                     .gc = config.gc,
                                                     .gc_mode = config.gc_mode,
                                                     .message_logging =
                                                         config.message_logging,
                                                     .keep_depth = keep_depth});
  }

  std::unique_ptr<chklib::verify::Monitor> monitor;
  if (config.verify) {
    monitor = std::make_unique<chklib::verify::Monitor>(runtime, config.scheme);
    monitor->install();
  }

  std::unique_ptr<chklib::RecoveryManager> recovery;
  std::unique_ptr<faultsim::FaultInjector> injector;
  std::unique_ptr<chklib::membership::MembershipService> membership;
  if (protocol) {
    if (membership_on) {
      // The service takes failures first (so they route through detection +
      // election instead of the oracle) and attaches itself to the comm
      // system when constructed, so the protocol sees it from its own
      // start(); its RNG stream (tag 0xBEA7) is forked independently of
      // every other fault domain, so detection phases compose seed-stably.
      recovery = std::make_unique<chklib::RecoveryManager>(runtime, *protocol);
      membership = std::make_unique<chklib::membership::MembershipService>(
          runtime, *recovery, *config.membership,
          runtime.fork_rng(0xBEA7u).fork(config.membership->stream));
    }
    protocol->start();
    if (membership) membership->start();
    if (recovery == nullptr &&
        (config.failure.has_value() || config.faults.has_value())) {
      recovery = std::make_unique<chklib::RecoveryManager>(runtime, *protocol);
    }
    if (recovery) {
      if (config.failure.has_value()) {
        recovery->inject_failure_at(config.failure->when, config.failure->rank);
      }
      if (config.faults.has_value()) {
        injector = std::make_unique<faultsim::FaultInjector>(runtime, *recovery,
                                                             *config.faults);
        if (config.faults->target_coordinator &&
            (!membership || !is_coordinated(config.scheme))) {
          throw std::invalid_argument(
              "faults.target_coordinator needs the membership service on a "
              "coordinated scheme — there is no elected coordinator to aim at");
        }
        injector->arm();
      }
    }
  }

  runtime.start_apps();
  const auto run = runtime.run_to_completion(config.max_events);

  ExperimentResult result;
  result.label = config.label;
  result.scheme = config.scheme;
  result.exec_time_s = runtime.apps_finished_at().to_seconds();
  result.events = sim.events_executed();
  result.trace_hash = sim.trace_hash();
  if (membership) membership->finalize();  // closes still-open exclusion spans
  if (monitor) {
    result.invariant_checks = monitor->checks();
    result.invariant_violations = monitor->violations();
    result.messages_in_flight_at_end = monitor->in_flight();
  }

  auto& machine = runtime.machine();
  for (Rank r = 0; r < runtime.num_ranks(); ++r) {
    result.interference_s += machine.node(r).interference_time().to_seconds();
  }
  if (protocol) result.app_blocked_s = protocol->stats().app_blocked.to_seconds();
  result.disk_busy_s = machine.storage().disk().busy_time().to_seconds();
  result.disk_wait_s = machine.storage().disk().wait_time().to_seconds();
  result.host_link_busy_s = machine.storage().host_link().busy_time().to_seconds();
  result.link_busy_s = machine.network().total_link_busy().to_seconds();

  result.app_messages = runtime.comm().app_messages();
  result.app_bytes = runtime.comm().app_bytes();
  result.control_messages = runtime.comm().control_messages();
  result.control_bytes = runtime.comm().control_bytes();
  result.checkpoint_net_bytes = machine.network().bytes_sent(xplorer::Traffic::kCheckpoint);

  result.retransmits = runtime.comm().retransmits();
  result.dups_suppressed = runtime.comm().dups_suppressed();
  result.corrupt_detected = runtime.comm().corrupt_detected();
  result.link_drops = runtime.comm().link_drops();
  result.link_duplicates = runtime.comm().link_duplicates();
  result.link_corrupted = runtime.comm().link_corrupted();
  result.link_delayed = runtime.comm().link_delayed();

  if (membership) {
    const auto& ms = membership->stats();
    result.heartbeats_sent = ms.heartbeats_sent;
    result.suspicions = ms.suspicions;
    result.views_established = ms.views_established;
    result.evictions = ms.evictions;
    result.wrongful_evictions = ms.wrongful_evictions;
    result.rejoins = ms.rejoins;
    result.membership_crashes = ms.crashes;
    result.forced_recoveries = ms.forced_recoveries;
    result.suspicions_cleared = ms.suspicions_cleared;
    result.detections = ms.detections;
    result.detection_latency_ns = ms.detection_latency_ns;
  }

  if (protocol) {
    const auto& stats = protocol->stats();
    result.local_checkpoints = stats.local_checkpoints;
    result.committed_rounds = stats.committed_rounds;
    result.gc_reclaimed = stats.gc_reclaimed;
    result.aborted_rounds = stats.aborted_rounds;
    result.tokens_regenerated = stats.tokens_regenerated;
    result.ckpt_write_failures = stats.ckpt_write_failures;
    result.commit_write_failures = stats.commit_write_failures;
    result.corrupt_discarded = stats.corrupt_discarded;
    result.image_log = stats.image_log;
  }
  if (const auto* faults = machine.storage().faults()) {
    result.io_write_errors = faults->write_errors();
    result.io_read_errors = faults->read_errors();
    result.bitrot_injected = faults->bitrot_flagged();
    result.degraded_ops = faults->degraded_ops();
  }
  {
    const auto& client = runtime.store().client();
    result.storage_retries = client.retries();
    result.storage_write_failures = client.write_failures();
    result.storage_read_failures = client.read_failures();
    result.storage_retry_wait_s = client.retry_wait().to_seconds();
  }
  result.reclaimed_bytes = machine.storage().bytes_reclaimed();
  result.bytes_written = machine.storage().bytes_written();
  result.peak_storage_bytes = machine.storage().peak_bytes();
  result.final_storage_bytes = runtime.store().total_checkpoint_bytes();
  result.final_stored_checkpoints = runtime.store().checkpoint_count();

  result.digest = runtime.result_digest();
  if (recovery) {
    result.recoveries = recovery->reports();
    for (const RecoveryReport& rep : result.recoveries) {
      result.generations_skipped += rep.generations_skipped;
    }
  }
  if (injector) result.injections = injector->stats();
  result.writes_discarded = machine.storage().writes_discarded();

  if (config.observe) {
    ObsData data;
    data.trace = tracer.take();
    data.attribution = obs::attribute(data.trace, runtime.num_ranks());
    data.metrics = snapshot(result, &data);
    result.obs = std::move(data);
  }
  (void)run;
  return result;
}

obs::MetricsSnapshot run_metrics(const ExperimentResult& result) {
  return snapshot(result, nullptr);
}

obs::HistogramSnapshot checkpoint_window_histogram(const obs::Trace& trace) {
  obs::HistogramSnapshot h;
  h.edges.assign(std::begin(kWindowEdgesS), std::end(kWindowEdgesS));
  h.counts.assign(h.edges.size() + 1, 0);
  for (const obs::Event& e : trace.events) {
    if (e.kind != obs::EventKind::kCkptWindow) continue;
    const double seconds = static_cast<double>(e.dur_ns) * 1e-9;
    const auto bucket = static_cast<std::size_t>(
        std::lower_bound(h.edges.begin(), h.edges.end(), seconds) - h.edges.begin());
    ++h.counts[bucket];
    ++h.total_count;
    h.sum += seconds;
  }
  return h;
}

ExperimentResult run_normal(ExperimentConfig config) {
  config.scheme = Scheme::kNone;
  config.failure.reset();
  config.faults.reset();
  config.link_faults.reset();  // baselines measure the fault-free machine
  config.membership.reset();
  return run_experiment(config);
}

DeterminismReport check_determinism(const ExperimentConfig& config) {
  DeterminismReport report;
  report.first = run_experiment(config);
  report.second = run_experiment(config);
  report.deterministic = report.first.trace_hash == report.second.trace_hash &&
                         report.first.events == report.second.events &&
                         report.first.exec_time_s == report.second.exec_time_s &&
                         report.first.digest == report.second.digest;
  return report;
}

}  // namespace chk::harness
