// Experiment harness: build a machine + runtime + protocol + application,
// run to completion, and collect every metric the paper's tables (and our
// ablations) report.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chklib/comm/link_fault.hpp"
#include "chklib/membership/service.hpp"
#include "chklib/proto/protocol.hpp"
#include "chklib/proto/scheme.hpp"
#include "chklib/recovery/line.hpp"
#include "chklib/recovery/manager.hpp"
#include "chklib/runtime.hpp"
#include "faultsim/injector.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "xplorer/config.hpp"
#include "xplorer/storage_fault.hpp"

namespace chk::harness {

using chklib::AppFn;
using chklib::LineMode;
using chklib::Rank;
using chklib::RecoveryReport;
using chklib::Scheme;

struct FailureSpec {
  des::TimePoint when;
  Rank rank = 0;
};

struct ExperimentConfig {
  std::string label = "app";
  AppFn app;
  Scheme scheme = Scheme::kNone;
  /// Checkpoint interval (coordinated: between commits; independent: per
  /// node between local checkpoints, jittered).
  des::Duration interval = des::Duration::secs(60);
  /// Number of checkpoints (coordinated rounds / per-node count); 0 = until done.
  std::uint32_t checkpoints = 3;
  bool gc = false;
  LineMode gc_mode = LineMode::kStrict;
  /// Independent + pessimistic sender logging: recovery restores each
  /// rank's newest verified image, and GC ignores gc_mode.
  bool message_logging = false;
  xplorer::MachineConfig machine;  ///< default: the paper's testbed
  std::uint64_t seed = 2026;
  std::optional<FailureSpec> failure;
  /// Stochastic fault injection (exponential MTBF arrivals, optional
  /// targeted mid-write / during-recovery strikes). Requires a checkpointing
  /// scheme — without one there is no recovery path to exercise. Composes
  /// with `failure` (the hand-placed failure fires in addition).
  std::optional<faultsim::FaultPlan> faults;
  /// Unreliable-link model: per-link drop / duplicate / corrupt / delay
  /// faults on the message network, always carried by the reliable FIFO
  /// transport (acks, retransmission, duplicate suppression). Unset (or
  /// all-zero probabilities) = perfect links on the raw path, bit-identical
  /// to pre-fault-model builds.
  std::optional<chklib::LinkFaultConfig> link_faults;
  /// Must stay true when link faults are on: false then throws
  /// std::invalid_argument. Lossy links always ride the transport; the
  /// field remains only because the perfbench workloads set it.
  bool reliable_transport = true;
  /// Cluster-membership service: heartbeat failure detection, quorum view
  /// changes, deterministic coordinator election and fencing. Opt-in —
  /// unset, runs are bit-identical to pre-membership builds. When set,
  /// crashes go through the detector (eviction + elected recovery) instead
  /// of the oracle path, and coordinated schemes survive coordinator death
  /// mid-round.
  std::optional<chklib::membership::MembershipConfig> membership;
  /// Unreliable stable storage: per-operation transient write/read I/O
  /// errors, timed degraded-throughput windows, and silent bit-rot of
  /// durable images. Unset (or all-inactive) = perfect storage,
  /// bit-identical to pre-fault-model builds.
  std::optional<xplorer::StorageFaultConfig> storage_faults;
  /// Checkpoint retention depth (generations kept per rank after GC /
  /// commit pruning). Zero = auto: 1 normally, raised to 2 when storage
  /// faults are enabled so verified recovery has a generation to fall
  /// back to.
  std::uint32_t keep_depth = 0;
  /// Safety valve: abort (throw) if the simulation exceeds this many events.
  std::uint64_t max_events = std::uint64_t{1} << 40;
  /// Ablation: coordinated checkpoints capture empty images (isolates the
  /// protocol's synchronization cost). Incompatible with failure injection.
  bool ablate_empty_checkpoints = false;
  /// Incremental checkpointing (coordinated schemes only; a full image
  /// every CoordinatedProtocol::kFullEvery checkpoints).
  bool incremental = false;
  /// Install the verify/ invariant monitor for this run (FIFO channels,
  /// coordinated quiescence, stagger mutual exclusion, ...). Defaults to on
  /// in CHK_INVARIANTS builds, where a violation aborts the process.
#ifdef CHK_INVARIANTS
  bool verify = true;
#else
  bool verify = false;
#endif
  /// Attach the obs tracer for this run and return the event stream,
  /// metrics snapshot and per-rank overhead attribution in the result.
  /// Observation never perturbs the simulation: trace_hash and exec_time_s
  /// are identical with this on or off.
  bool observe = false;
};

/// Observability payload of one observed run (config.observe).
struct ObsData {
  obs::Trace trace;
  obs::MetricsSnapshot metrics;
  obs::AttributionReport attribution;
};

struct ExperimentResult {
  std::string label;
  Scheme scheme = Scheme::kNone;
  double exec_time_s = 0;  ///< application completion time (simulated)
  std::uint64_t events = 0;
  /// Order-sensitive hash of the executed event trace (determinism check:
  /// identical config + seed must yield identical hashes).
  std::uint64_t trace_hash = 0;

  // invariant checking (populated when config.verify is set)
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t messages_in_flight_at_end = 0;

  // overhead breakdown
  double app_blocked_s = 0;     ///< time applications spent in checkpoint windows
  double interference_s = 0;    ///< CPU stolen by background checkpoint writes
  double frozen_stall_s = 0;    ///< always zero; perfbench reads it (ROADMAP item 6)
  double disk_busy_s = 0;
  double disk_wait_s = 0;       ///< queueing delay at the disk (contention)
  double host_link_busy_s = 0;
  double link_busy_s = 0;       ///< total mesh link busy time

  // traffic
  std::uint64_t app_messages = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t control_messages = 0;  ///< the protocols' synchronization cost
  std::uint64_t control_bytes = 0;
  std::uint64_t checkpoint_net_bytes = 0;

  // unreliable links + reliable transport (all zero with faults off)
  std::uint64_t retransmits = 0;       ///< frames re-sent after an RTO
  std::uint64_t dups_suppressed = 0;   ///< duplicate frames dropped by the receiver
  std::uint64_t corrupt_detected = 0;  ///< checksum failures (frame discarded)
  std::uint64_t link_drops = 0;        ///< frames the fault model destroyed
  std::uint64_t link_duplicates = 0;   ///< frames the fault model duplicated
  std::uint64_t link_corrupted = 0;    ///< frames the fault model corrupted
  std::uint64_t link_delayed = 0;      ///< frames given extra delay
  std::uint32_t aborted_rounds = 0;    ///< rounds the coordinator watchdog re-initiated
  std::uint32_t tokens_regenerated = 0;  ///< stagger tokens re-issued by the watchdog

  // cluster membership (all zero with the membership service off)
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t suspicions = 0;          ///< detector timeouts (incl. false ones)
  std::uint64_t views_established = 0;   ///< view changes that took effect
  std::uint64_t evictions = 0;           ///< ranks removed from a view
  std::uint64_t wrongful_evictions = 0;  ///< live ranks evicted (then fenced)
  std::uint64_t rejoins = 0;             ///< fenced ranks re-admitted
  std::uint64_t membership_crashes = 0;  ///< failures routed through the detector
  std::uint64_t forced_recoveries = 0;   ///< dead ranks recovered by the deadman timer
  std::uint64_t suspicions_cleared = 0;  ///< suspicions retracted without a view change
  std::uint64_t detections = 0;          ///< real crashes evicted by a quorum view
  /// Per-detection latency (crash -> evicting view) in ns, in order. Also
  /// exported as the log-spaced "membership/detection_latency_s" histogram.
  std::vector<std::int64_t> detection_latency_ns;

  // unreliable stable storage (all zero with storage faults off)
  std::uint64_t io_write_errors = 0;      ///< write attempts the fault model failed
  std::uint64_t io_read_errors = 0;       ///< read attempts the fault model failed
  std::uint64_t bitrot_injected = 0;      ///< durable images silently corrupted
  std::uint64_t degraded_ops = 0;         ///< operations inside a degraded window
  std::uint64_t storage_retries = 0;      ///< client retry attempts (after backoff)
  std::uint64_t storage_write_failures = 0;  ///< terminal write failures (retries exhausted)
  std::uint64_t storage_read_failures = 0;   ///< terminal read failures
  double storage_retry_wait_s = 0;        ///< app-blocking backoff time (attribution bucket)
  std::uint64_t ckpt_write_failures = 0;  ///< checkpoint image/log writes lost terminally
  std::uint32_t commit_write_failures = 0;  ///< commit writes lost (round re-initiated)
  std::uint64_t corrupt_discarded = 0;    ///< rotted checkpoints found and erased
  std::uint32_t generations_skipped = 0;  ///< recovery fallbacks to an older generation
  std::uint64_t reclaimed_bytes = 0;      ///< stable-storage bytes erased (GC + discards)

  // checkpointing
  std::uint64_t local_checkpoints = 0;
  std::uint32_t committed_rounds = 0;
  std::uint64_t gc_reclaimed = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t peak_storage_bytes = 0;
  std::uint64_t final_storage_bytes = 0;
  std::size_t final_stored_checkpoints = 0;
  /// Per-capture image sizes in capture order: the measured bytes-per-round
  /// curve for apps with time-varying registered state.
  std::vector<chklib::ProtocolStats::ImageRecord> image_log;

  std::optional<double> digest;
  std::vector<RecoveryReport> recoveries;
  /// Fault-injection outcome (all-zero unless config.faults was set).
  faultsim::InjectionStats injections;
  /// Stable-storage writes invalidated mid-pipeline by crashes.
  std::uint64_t writes_discarded = 0;

  /// Present iff the run was observed (ExperimentConfig::observe).
  std::optional<ObsData> obs;
};

/// Run one experiment (one simulated execution).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Every scalar of `result` (plus its recovery and injection aggregates and
/// the membership detection-latency histogram) under its metric name: the
/// one place that maps result fields to metric names. Benches and the
/// campaign serialize this snapshot; an observed run's ObsData::metrics is
/// the same snapshot plus the trace-derived attrib/*, run/trace_events and
/// ckpt/window_s.
[[nodiscard]] obs::MetricsSnapshot run_metrics(const ExperimentResult& result);

/// The ckpt/window_s histogram of an observed run: each kCkptWindow span's
/// length in seconds, over fixed upper edges 1 ms, 10 ms, 50 ms, 100 ms,
/// 500 ms, 1 s and 5 s. An edge is inclusive; longer windows land in the
/// one overflow bucket.
[[nodiscard]] obs::HistogramSnapshot checkpoint_window_histogram(const obs::Trace& trace);

/// Convenience: run the same app/machine without checkpointing.
[[nodiscard]] ExperimentResult run_normal(ExperimentConfig config);

/// DES determinism check: run `config` twice and compare event counts,
/// completion times, result digests and event-trace hashes.
struct DeterminismReport {
  bool deterministic = false;
  ExperimentResult first;
  ExperimentResult second;
};
[[nodiscard]] DeterminismReport check_determinism(const ExperimentConfig& config);

}  // namespace chk::harness
