// Whole-application rollback recovery.
//
// Failure model (matching the paper's system class): a node failure takes
// the whole application down; recovery rolls every process back to a
// consistent global state — the last committed global checkpoint for
// coordinated schemes, the computed recovery line (possibly dominoing to
// the initial state) for independent schemes — restores process states
// from stable storage with fully timed reads, replays logged channel
// contents (coordinated), and restarts the application processes.
//
// Failures are serialized: a failure that lands while a previous restore is
// still in flight aborts that restore (its loader processes die with the
// crash, its partial report is published with `interrupted` set) and starts
// a fresh recovery from the surviving stable-storage state. Stable-storage
// writes that were in the pipeline at the instant of failure are discarded —
// a crashed node cannot complete a checkpoint write.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chklib/proto/protocol.hpp"
#include "chklib/runtime.hpp"
#include "des/time.hpp"

namespace chk::chklib {

struct RecoveryReport {
  des::TimePoint failed_at;
  Rank failed_rank = 0;
  des::Duration recovery_latency;  ///< failure -> all processes restarted
  RecoveryLine line;
  /// failure time minus restored checkpoint capture time, per rank (work lost).
  std::vector<des::Duration> rollback_distance;
  /// newest saved index minus restored index, per rank (domino depth).
  std::vector<std::uint32_t> domino_depth;
  /// Stable-storage image bytes read back during restore (channel logs are
  /// metadata-sized and excluded). Includes bytes_reread.
  std::uint64_t bytes_read = 0;
  /// The incremental-chain share of bytes_read: predecessor full images and
  /// deltas read *in addition to* each rank's line image.
  std::uint64_t bytes_reread = 0;
  std::uint64_t channel_messages_replayed = 0;
  /// Checkpoint generations the restore had to discard and fall back past:
  /// a planned line image (or one of its delta-chain predecessors, or its
  /// channel log) turned out unreadable — terminal read error or bit-rot —
  /// so the bad generation was erased and the rollback re-planned against
  /// the surviving stable-storage state.
  std::uint32_t generations_skipped = 0;
  bool rolled_to_origin = false;
  /// The failure landed while checkpoint stable-storage writes were still in
  /// the mesh/host-link/disk pipeline (those writes were discarded).
  bool mid_write = false;
  /// Number of in-flight stable-storage writes the crash invalidated.
  std::uint64_t inflight_discarded = 0;
  /// This recovery's restore was aborted by a subsequent overlapping
  /// failure; the report is partial (recovery_latency covers only the time
  /// until the second failure, and the application did not restart from it).
  bool interrupted = false;
};

/// Domino depth of one rank: how many newer-than-restored checkpoints the
/// rollback discards. GC or discarded in-flight writes can leave the newest
/// saved index below the line momentarily — clamp to zero instead of
/// wrapping the unsigned subtraction.
[[nodiscard]] constexpr std::uint32_t domino_depth(std::uint32_t newest,
                                                   std::uint32_t restored) noexcept {
  return newest > restored ? newest - restored : 0;
}

/// Passive observer of recovery lifecycle, for fault injection and tests.
/// All callbacks run in kernel context except on_restore_progress, which
/// runs in a loader process's context — observers must only inspect state
/// or schedule simulator events, never call back into RecoveryManager
/// synchronously.
class RecoveryObserver {
 public:
  virtual ~RecoveryObserver() = default;
  virtual void on_recovery_begin(Rank /*failed*/) {}
  /// One rank's restore finished; `remaining` ranks are still loading.
  virtual void on_restore_progress(Rank /*restored*/, std::size_t /*remaining*/) {}
  virtual void on_recovery_end(const RecoveryReport& /*report*/) {}
};

class RecoveryManager {
 public:
  RecoveryManager(Runtime& runtime, Protocol& protocol)
      : rt_(&runtime), protocol_(&protocol) {}
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Schedule a crash of `rank` at absolute simulated time `when`. If the
  /// application has already finished by then, the failure is a no-op.
  void inject_failure_at(des::TimePoint when, Rank rank);

  /// Crash `rank` now. Safe from both kernel and process context (a strike
  /// originating inside a running process — e.g. triggered off a storage
  /// write hook — is deferred one event so the failure bookkeeping never
  /// unwinds the caller's own stack). No-op once the application is done.
  /// With a membership service on the comm system, the crash goes to it
  /// first (MembershipService::crash: the rank goes silent and the cluster
  /// must *detect* it); the oracle rollback below runs only if it declines.
  void fail_now(Rank rank);

  /// Trigger the whole-application rollback now, bypassing the membership
  /// service. The service calls this once detection has run its course
  /// (eviction confirmed, rejoin grace expired); same context-safety and
  /// no-op rules as fail_now.
  void recover_now(Rank rank);

  /// The protocol this manager rolls back.
  [[nodiscard]] Protocol& protocol() noexcept { return *protocol_; }

  /// A restore is in flight (loader processes still pending).
  [[nodiscard]] bool recovering() const noexcept { return active_.has_value(); }

  /// Whether a failure at this instant would roll back to a non-origin line,
  /// i.e. the restore would issue timed stable-storage reads. Metadata-only
  /// planning query (the protocols' recovery_line() is pure); used by fault
  /// injection to target failures whose recovery actually has a restore
  /// window.
  [[nodiscard]] bool restore_would_read() const {
    return !protocol_->recovery_line().at_origin();
  }

  /// Observers are notified in registration order; duplicates are ignored.
  void add_observer(RecoveryObserver* observer);
  void remove_observer(RecoveryObserver* observer) noexcept;

  [[nodiscard]] const std::vector<RecoveryReport>& reports() const noexcept { return reports_; }

 private:
  /// The body of inject_failure_at, fail_now and recover_now: a no-op once
  /// the apps are done; from process context, deferred one event; then the
  /// membership service's crash (when `intercept`) or on_failure.
  void fail(Rank rank, bool intercept);
  void on_failure(Rank failed);
  void abort_active_recovery();
  /// Compute the line against the current stable-storage state, reset the
  /// protocol, and spawn one loader per rank. Called once per attempt —
  /// initially from on_failure, again after each discarded generation.
  void plan_and_spawn();
  /// A loader found its generation unreadable (terminal read error or
  /// bit-rot). Erase the `bad` indices at rank `r`, bump
  /// generations_skipped, and re-plan the rollback one event later in
  /// kernel context. `attempt` guards against stale triggers (a sibling
  /// loader re-planned first, or a new failure superseded this recovery).
  void replan_after_bad_generation(std::shared_ptr<RecoveryReport> report,
                                   std::uint32_t attempt, Rank r,
                                   std::vector<std::uint32_t> bad);
  void finish_recovery(const std::shared_ptr<RecoveryReport>& shared_report);

  /// The restore currently in flight, if any.
  struct ActiveRecovery {
    std::shared_ptr<RecoveryReport> report;
    std::shared_ptr<std::size_t> pending;  ///< loader ranks not yet restored
    std::vector<des::Process*> loaders;
    /// Payload-logged sends this attempt's loaders collected, awaiting
    /// lost-message replay (independent + message logging).
    std::vector<Envelope> replay;
    /// Newest saved index per rank at failure time (domino-depth metric).
    std::vector<std::uint32_t> newest;
    std::uint32_t attempt = 0;  ///< restore attempts (re-plans) so far
  };

  Runtime* rt_;
  Protocol* protocol_;
  std::vector<RecoveryObserver*> observers_;
  std::optional<ActiveRecovery> active_;
  std::vector<RecoveryReport> reports_;
};

}  // namespace chk::chklib
