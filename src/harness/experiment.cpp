#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

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

/// Publish every scalar of the run's result into `reg`.
void publish_result(const ExperimentResult& result, obs::Registry& reg) {
  reg.counter("run/events").set(result.events);
  reg.counter("comm/app_messages").set(result.app_messages);
  reg.counter("comm/app_bytes").set(result.app_bytes);
  reg.counter("comm/control_messages").set(result.control_messages);
  reg.counter("comm/control_bytes").set(result.control_bytes);
  reg.counter("comm/checkpoint_bytes").set(result.checkpoint_net_bytes);
  reg.counter("ckpt/local_checkpoints").set(result.local_checkpoints);
  reg.counter("ckpt/committed_rounds").set(result.committed_rounds);
  reg.counter("ckpt/gc_reclaimed").set(result.gc_reclaimed);
  reg.counter("ckpt/bytes_written").set(result.bytes_written);
  reg.counter("storage/peak_bytes").set(result.peak_storage_bytes);
  reg.counter("storage/final_bytes").set(result.final_storage_bytes);
  reg.counter("storage/final_checkpoints").set(result.final_stored_checkpoints);

  reg.gauge("run/exec_time_s").set(result.exec_time_s);
  reg.gauge("overhead/app_blocked_s").set(result.app_blocked_s);
  reg.gauge("overhead/interference_s").set(result.interference_s);
  reg.gauge("storage/disk_busy_s").set(result.disk_busy_s);
  reg.gauge("storage/disk_wait_s").set(result.disk_wait_s);
  reg.gauge("storage/host_link_busy_s").set(result.host_link_busy_s);
  reg.gauge("comm/link_busy_s").set(result.link_busy_s);

  // Invariant monitor (all zero unless config.verify).
  reg.counter("verify/checks").set(result.invariant_checks);
  reg.counter("verify/violations").set(result.invariant_violations);
  reg.counter("verify/in_flight_at_end").set(result.messages_in_flight_at_end);

  // Transport / link-fault counters (all zero with faults off).
  reg.counter("comm/retransmits").set(result.retransmits);
  reg.counter("comm/dups_suppressed").set(result.dups_suppressed);
  reg.counter("comm/corrupt_detected").set(result.corrupt_detected);
  reg.counter("comm/link_drops").set(result.link_drops);
  reg.counter("comm/link_duplicates").set(result.link_duplicates);
  reg.counter("comm/link_corrupted").set(result.link_corrupted);
  reg.counter("comm/link_delayed").set(result.link_delayed);
  reg.counter("ckpt/aborted_rounds").set(result.aborted_rounds);
  reg.counter("ckpt/tokens_regenerated").set(result.tokens_regenerated);
  reg.counter("comm/partition_drops").set(result.partition_drops);

  // Cluster-membership counters (all zero with the membership service off).
  reg.counter("membership/heartbeats_sent").set(result.heartbeats_sent);
  reg.counter("membership/suspicions").set(result.suspicions);
  reg.counter("membership/views_established").set(result.views_established);
  reg.counter("membership/evictions").set(result.evictions);
  reg.counter("membership/wrongful_evictions").set(result.wrongful_evictions);
  reg.counter("membership/rejoins").set(result.rejoins);
  reg.counter("membership/crashes").set(result.membership_crashes);
  reg.counter("membership/forced_recoveries").set(result.forced_recoveries);
  reg.counter("membership/suspicions_cleared").set(result.suspicions_cleared);
  reg.counter("membership/detections").set(result.detections);
  auto& detect_hist = reg.log_histogram("membership/detection_latency_s",
                                        kDetectLatMinExp, kDetectLatMaxExp, 1e-9);
  for (const std::int64_t ns : result.detection_latency_ns) {
    detect_hist.observe(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)));
  }

  // Stable-storage fault counters (all zero with storage faults off).
  reg.counter("storage/io_write_errors").set(result.io_write_errors);
  reg.counter("storage/io_read_errors").set(result.io_read_errors);
  reg.counter("storage/bitrot_injected").set(result.bitrot_injected);
  reg.counter("storage/degraded_ops").set(result.degraded_ops);
  reg.counter("storage/retries").set(result.storage_retries);
  reg.counter("storage/write_failures").set(result.storage_write_failures);
  reg.counter("storage/read_failures").set(result.storage_read_failures);
  reg.counter("storage/reclaimed_bytes").set(result.reclaimed_bytes);
  reg.counter("ckpt/write_failures").set(result.ckpt_write_failures);
  reg.counter("ckpt/commit_write_failures").set(result.commit_write_failures);
  reg.counter("ckpt/corrupt_discarded").set(result.corrupt_discarded);
  reg.counter("recovery/generations_skipped").set(result.generations_skipped);
  reg.gauge("storage/retry_wait_s").set(result.storage_retry_wait_s);

  // Fault injection (all zero unless config.faults).
  reg.counter("faults/injected").set(result.injections.injected);
  reg.counter("faults/mid_write").set(result.injections.mid_write);
  reg.counter("faults/during_recovery").set(result.injections.during_recovery);

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
  reg.counter("recovery/failures").set(result.recoveries.size());
  reg.counter("recovery/interrupted").set(interrupted);
  reg.counter("recovery/mid_write").set(mid_write);
  reg.counter("recovery/rolled_to_origin").set(rolled_to_origin ? 1 : 0);
  reg.counter("recovery/max_domino_depth").set(max_domino_depth);
  reg.counter("recovery/bytes_read").set(bytes_read);
  reg.counter("recovery/bytes_reread").set(bytes_reread);
  reg.counter("recovery/writes_discarded").set(result.writes_discarded);
  reg.gauge("recovery/latency_total_s").set(latency_s);
}

/// Publish what only an observed run has: the trace's event count and
/// checkpoint windows and the per-rank overhead attribution.
void publish_trace(const ObsData& data, obs::Registry& reg) {
  reg.counter("run/trace_events").set(data.trace.events.size());

  const obs::RankBuckets& total = data.attribution.total;
  reg.gauge("attrib/sync_wait_s").set(total.sync_wait_s);
  reg.gauge("attrib/mem_copy_s").set(total.mem_copy_s);
  reg.gauge("attrib/stable_write_s").set(total.stable_write_s);
  reg.gauge("attrib/storage_contention_s").set(total.storage_contention_s);
  reg.gauge("attrib/logging_s").set(total.logging_s);
  reg.gauge("attrib/interference_s").set(total.interference_s);
  reg.gauge("attrib/recovery_s").set(total.recovery_s);
  reg.gauge("attrib/retransmit_wait_s").set(total.retransmit_wait_s);
  reg.gauge("attrib/storage_retry_wait_s").set(total.storage_retry_wait_s);
  reg.gauge("attrib/svc_queue_wait_s").set(total.svc_queue_wait_s);
  reg.gauge("attrib/membership_wait_s").set(total.membership_wait_s);
  reg.gauge("attrib/total_s").set(total.total_s());

  auto& windows = reg.histogram("ckpt/window_s", {0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0});
  for (const obs::Event& e : data.trace.events) {
    if (e.kind == obs::EventKind::kCkptWindow) {
      windows.observe(static_cast<double>(e.dur_ns) * 1e-9);
    }
  }
}

/// The run's metrics snapshot; `data` (observed runs only) adds the
/// trace-derived metrics.
obs::MetricsSnapshot snapshot(const ExperimentResult& result, const ObsData* data) {
  obs::Registry reg;
  publish_result(result, reg);
  if (data != nullptr) publish_trace(*data, reg);
  return reg.snapshot();
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  obs::Tracer tracer;  // outlives the runtime (teardown may still emit)
  des::Simulator sim;
  chklib::Runtime runtime(sim, config.machine, config.seed);
  if (config.observe) runtime.set_tracer(&tracer);
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
  const des::Duration token_timeout = round_timeout / 4;

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
                                            .full_every = config.full_every,
                                            .round_timeout = round_timeout,
                                            .token_timeout = token_timeout,
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
    auto options = chklib::verify::Monitor::options_for(config.scheme);
    options.check_membership = membership_on;
    monitor = std::make_unique<chklib::verify::Monitor>(runtime, options);
    monitor->install();
  }

  std::unique_ptr<chklib::RecoveryManager> recovery;
  std::unique_ptr<faultsim::FaultInjector> injector;
  std::unique_ptr<chklib::membership::MembershipService> membership;
  if (protocol) {
    if (membership_on) {
      // The service intercepts failures (so they route through detection +
      // election instead of the oracle) and must be attached before the
      // protocol starts; its RNG stream (tag 0xBEA7) is forked independently
      // of every other fault domain, so detection phases compose seed-stably.
      recovery = std::make_unique<chklib::RecoveryManager>(runtime, *protocol);
      membership = std::make_unique<chklib::membership::MembershipService>(
          runtime, *recovery, *config.membership,
          runtime.fork_rng(0xBEA7u).fork(config.membership->stream));
      if (is_coordinated(config.scheme)) {
        static_cast<chklib::CoordinatedProtocol&>(*protocol).set_membership(
            membership.get());
      }
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
        if (config.faults->target_coordinator) {
          if (!membership || !is_coordinated(config.scheme)) {
            throw std::invalid_argument(
                "faults.target_coordinator needs the membership service on a "
                "coordinated scheme — there is no elected coordinator to aim at");
          }
          injector->set_coordinator_provider(
              [service = membership.get()] { return service->coordinator(); });
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
  result.partition_drops = runtime.comm().partition_drops();

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
