// Independent (uncoordinated) checkpointing.
//
// Every node checkpoints at its own pace — a jittered local timer, no
// synchronization messages at all. Each application message piggybacks the
// sender's checkpoint-interval index, and the endpoints record send /
// receive dependency records that are saved with the *next* checkpoint;
// the recovery-line algorithms (recovery/line.hpp) rebuild a consistent
// global state from those records after a failure, rolling processes back
// through the domino effect when necessary. Multiple checkpoints per
// process accumulate in stable storage; an optional garbage collector
// reclaims those below the current recovery line (cf. [12]).
//
// Indep   = application blocked during its own stable-storage write.
// Indep_M = main-memory checkpointing (blocked only for the memory copy).
// Indep_MS (extension) = Indep_M plus stagger arbitration: background
//          writes acquire a global FIFO grant so only one node streams to
//          stable storage at a time, without coordinating the checkpoints
//          themselves.
#pragma once

#include <memory>
#include <string>

#include "chklib/ckpt/image.hpp"
#include "chklib/proto/protocol.hpp"
#include "chklib/proto/scheme.hpp"
#include "chklib/recovery/line.hpp"
#include "des/sync.hpp"
#include "util/rng.hpp"

namespace chk::chklib {

/// Build per-rank histories from everything currently in stable storage
/// (metadata scan; free). Shared by GC and recovery.
[[nodiscard]] std::vector<ProcessHistory> collect_histories(const CheckpointStore& store,
                                                            std::size_t num_ranks);

class IndependentProtocol final : public Protocol {
 public:
  struct Config {
    Scheme scheme = Scheme::kIndep;
    des::Duration interval = des::Duration::secs(60);
    /// Checkpoints per node; 0 = keep going until the run ends.
    std::uint32_t count = 3;
    /// Timer jitter as a fraction of the interval (desynchronizes nodes).
    double jitter = 0.15;
    bool gc = false;
    /// Line for GC without message logging; recovery always uses the
    /// strict line (log-free recovery must not cross any message).
    LineMode gc_mode = LineMode::kStrict;
    /// Pessimistic sender-based message logging (the paper's §1 remedy):
    /// checkpoint images additionally carry the payloads of the interval's
    /// sends, so recovery can replay lost messages and restore each rank's
    /// newest image — no domino effect, at the price of larger checkpoints.
    bool message_logging = false;
    /// Retention depth: GC never prunes a rank below its newest
    /// `keep_depth` verified generations (>= 1), even when the recovery
    /// line says they are reclaimable. With unreliable storage a depth of
    /// at least 2 lets recovery fall back to an older cut when the newest
    /// image turns out to be rotted at restore time.
    std::uint32_t keep_depth = 1;
  };

  IndependentProtocol(Runtime& runtime, Config config);
  ~IndependentProtocol() override { halt(); }  // daemons reference *this

  void start() override;

  // ProtocolHooks
  void on_send(Rank src, Envelope& env) override;
  void on_arrival(Rank dst, const Envelope& env) override;
  void on_deliver(des::Process& self, Rank dst, const Envelope& env) override;

  // Recovery
  [[nodiscard]] RecoveryLine recovery_line() const override;
  void prepare_recovery(const RecoveryLine& line) override;
  void resume_after_recovery() override;

  // Introspection (tests)
  [[nodiscard]] std::uint32_t intervals_of(Rank r) const noexcept {
    return agents_[r]->intervals;
  }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// Run one garbage-collection pass now (also runs automatically after
  /// each durable checkpoint when cfg.gc is set). Returns reclaimed count.
  std::uint64_t run_gc();

 private:
  struct Agent {
    std::uint32_t intervals = 0;  ///< checkpoints taken (current interval index)
    bool pending = false;         ///< timer fired; capture at next safe point
    std::vector<SendRecord> sends;  ///< current-interval records (volatile)
    std::vector<RecvRecord> recvs;
    ChannelLog sent_log;         ///< current-interval payloads (message logging)
    des::SimSemaphore token;     ///< stagger grant
    des::SimSemaphore captured;  ///< paces the timer daemon
  };

  void install_safe_points();
  void spawn_daemons();
  void timer_main(Rank r, des::Process& self);
  void dispatcher_main(Rank r, des::Process& self);
  void safe_point(Rank r, des::Process& self);
  /// Capture the state and the interval's dependency records; the save is
  /// save_image's.
  void do_local_checkpoint(des::Process& carrier, Rank r);
  /// Admission: none, or the FIFO write grant (Indep_MS).
  std::uint32_t acquire_write(Rank r, des::Process& writer, std::uint32_t index) override;
  void release_write(Rank r, std::uint32_t index) override;
  /// A durable image triggers GC (cfg.gc). On a terminal failure the
  /// interval is skipped (no image at this index) and the failed image's
  /// dependency records migrate forward into the next checkpoint so later
  /// cuts stay fully characterized.
  void image_written(Rank r, des::Process& writer, xplorer::IoStatus status,
                     WriteContext context, CheckpointImage& image) override;
  [[nodiscard]] std::string writer_name(Rank r, std::uint32_t index) const override;

  Config cfg_;
  std::vector<std::unique_ptr<Agent>> agents_;
  /// Indep_MS write grants (arbitrated by rank 0's dispatcher).
  GrantArbiter grants_;
};

}  // namespace chk::chklib
