// Abstract checkpointing protocol.
//
// A protocol owns the per-node "checkpointer thread" daemons, interposes on
// application messages (ProtocolHooks), drives checkpoint triggers, and
// cooperates with the RecoveryManager after a failure.
//
// The save half of every local checkpoint is shared (save_image): the
// scheme's two choices -- does the application block for its own
// stable-storage write or only for a memory copy (is_buffered), and are the
// writes staggered -- apply equally to both protocol classes. A protocol
// supplies only its write admission (acquire_write / release_write) and
// what a durable or failed image means to it (image_written).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "chklib/ckpt/image.hpp"
#include "chklib/comm/hooks.hpp"
#include "chklib/proto/scheme.hpp"
#include "chklib/runtime.hpp"
#include "des/process.hpp"
#include "des/simulator.hpp"

namespace chk::chklib {

/// Per-rank checkpoint index to restore; 0 = the initial state.
struct RecoveryLine {
  std::vector<std::uint32_t> index;
  [[nodiscard]] bool at_origin() const noexcept {
    for (auto i : index) {
      if (i != 0) return false;
    }
    return true;
  }
};

struct ProtocolStats {
  std::uint64_t local_checkpoints = 0;  ///< per-process checkpoint operations
  std::uint32_t committed_rounds = 0;   ///< globally committed epochs (coordinated)
  std::uint32_t aborted_rounds = 0;     ///< rounds the watchdog timed out and re-initiated
  std::uint32_t tokens_regenerated = 0; ///< stagger tokens re-issued by the watchdog
  std::uint64_t gc_reclaimed = 0;       ///< checkpoints deleted by garbage collection
  /// Checkpoint image/log writes that failed terminally (retries
  /// exhausted); the round aborted or the interval was skipped.
  std::uint64_t ckpt_write_failures = 0;
  /// Commit-record writes that failed terminally; the coordinator aborted
  /// the round and re-initiated it at the next epoch.
  std::uint32_t commit_write_failures = 0;
  /// Stored checkpoints discarded because their checksum no longer
  /// verified (bit-rot found by GC or recovery planning).
  std::uint64_t corrupt_discarded = 0;
  /// Total time application processes spent blocked performing checkpoint
  /// work (the scheme's blocking window, summed over ranks and rounds).
  des::Duration app_blocked;
  /// One record per captured checkpoint image, in capture order: the
  /// measured image-size curve for applications whose registered state
  /// grows and shrinks over time (the svc shard). `index` is the epoch
  /// (coordinated) or the per-rank checkpoint index (independent).
  struct ImageRecord {
    std::uint32_t index = 0;
    std::uint32_t rank = 0;
    std::uint64_t bytes = 0;
    std::int64_t at_ns = 0;
    bool delta = false;  ///< incremental delta rather than a full image
  };
  std::vector<ImageRecord> image_log;
};

/// FIFO write-grant arbiter (Coord_NBS, Indep_MS): one rank at a time holds
/// the grant to write to stable storage, and later requests queue in
/// arrival order. A plain value: the protocol that owns it delivers the
/// grants it hands out.
class GrantArbiter {
 public:
  struct Grant {
    Rank holder = 0;
    /// Epoch of the request or release that handed the grant on.
    std::uint32_t epoch = 0;
  };

  /// A kTokenRequest or kTokenRelease reached the arbiter. Returns the
  /// grant to deliver, if the message handed one out.
  [[nodiscard]] std::optional<Grant> handle(const ControlMsg& msg);
  /// The holder is done (or gone): the oldest queued requester, if any,
  /// gets the grant under `epoch`.
  [[nodiscard]] std::optional<Grant> release(std::uint32_t epoch);
  [[nodiscard]] const std::optional<Grant>& held() const noexcept { return held_; }
  void reset() noexcept {
    queue_.clear();
    held_.reset();
  }

 private:
  std::deque<Rank> queue_;
  std::optional<Grant> held_;
};

class Protocol : public ProtocolHooks {
 public:
  Protocol(Runtime& runtime, Scheme scheme) : rt_(&runtime), scheme_(scheme) {}
  ~Protocol() override = default;

  /// Install hooks and spawn daemons / trigger timers. Call once, before
  /// Runtime::start_apps.
  virtual void start() = 0;

  /// Compute the recovery line from stable-storage metadata (free).
  [[nodiscard]] virtual RecoveryLine recovery_line() const = 0;

  /// Recovery step 1 (all processes already dead, channels flushed, the
  /// rolled-back post-line checkpoints already erased): reset protocol
  /// state to the line.
  virtual void prepare_recovery(const RecoveryLine& line) = 0;

  /// Recovery step 2 (state restored): respawn daemons, rearm triggers.
  virtual void resume_after_recovery() = 0;

  /// Kill all protocol processes and cancel pending trigger timers.
  virtual void halt();

  /// Membership service, kernel context: a proposed view gathered its ack
  /// majority.
  virtual void on_view_established() {}
  /// Membership service, kernel context: live rank `r` was fenced (true)
  /// or rejoined (false).
  virtual void on_rank_fenced(Rank /*r*/, bool /*fenced*/) {}

  /// Completed checkpoints: committed global rounds (coordinated) or
  /// durable local checkpoints (independent).
  [[nodiscard]] const ProtocolStats& stats() const noexcept { return stats_; }

 protected:
  /// The save half of rank r's local checkpoint, run by `carrier` (the
  /// application, or a daemon once the application finished) right after
  /// the capture. Records the image, then realizes the scheme's window:
  /// write-through blocks the carrier for the whole admitted write and its
  /// aftermath; buffered schemes block it for a memory copy and hand the
  /// image to a tracked background writer. The window is closed once, into
  /// app_blocked and a kCkptWindow span.
  void save_image(des::Process& carrier, Rank r, CheckpointImage image, bool delta);

  /// Write admission, run by the process about to write rank r's image
  /// `index`: block `writer` until the scheme lets the write start. Returns
  /// the tag release_write receives.
  virtual std::uint32_t acquire_write(Rank r, des::Process& writer, std::uint32_t index) = 0;
  /// The write admitted under `tag` finished, durable or not.
  virtual void release_write(Rank r, std::uint32_t tag) = 0;
  /// What the finished write means to the protocol. Runs in `writer` after
  /// release_write; `context` says who pays for any further write (the
  /// application inside its window, or the background writer). A terminal
  /// failure is already counted in ckpt_write_failures.
  virtual void image_written(Rank r, des::Process& writer, xplorer::IoStatus status,
                             WriteContext context, CheckpointImage& image) = 0;
  /// Name of the background writer process for rank r's image `index`.
  [[nodiscard]] virtual std::string writer_name(Rank r, std::uint32_t index) const = 0;

  /// Track a protocol-owned process so halt() can kill it.
  des::Process& track(des::Process& proc) {
    procs_.push_back(&proc);
    return proc;
  }
  void track_timer(des::EventHandle handle) { timers_.push_back(std::move(handle)); }

  Runtime* rt_;
  ProtocolStats stats_;
  std::vector<des::Process*> procs_;
  std::vector<des::EventHandle> timers_;

 private:
  Scheme scheme_;

  /// One admitted image write: acquire, write (bracketed as background I/O
  /// when `context` is kBackground), release, count a terminal failure,
  /// then image_written.
  void write_image(des::Process& writer, Rank r, CheckpointImage& image, WriteContext context);
};

}  // namespace chk::chklib
