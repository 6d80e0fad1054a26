// Coordinated checkpointing (the paper's [11]: Silva & Silva, "Global
// Checkpointing for Distributed Programs", SRDS'92 — a coordinator-driven
// two-phase, non-blocking protocol over reliable FIFO channels), adapted
// to CHK-LIB's user-defined checkpointing model: processes capture at the
// safe points the application declares (AppContext::checkpoint_here).
//
// Round structure for epoch e:
//   1. The coordinator broadcasts CkptRequest(e) to every node's daemon,
//      which marks the checkpoint pending; the application takes it at its
//      next safe point (at most one loop iteration later).
//   2. The local checkpoint bumps the epoch (subsequent sends are tagged
//      e), captures the registered state, the channel sequence counters
//      and the arrived-but-unconsumed pre-e messages, then sends a
//      ChannelMarker(e) to every peer. The application is blocked for the
//      scheme's window: the whole stable-storage write (Coord_NB), only a
//      memory copy (Coord_NBM/NBMS).
//   3. Pre-e messages arriving after the local cut are appended to the
//      channel log; markers bound that logging (FIFO channels). Post-e
//      messages may be consumed before the local cut (the receiver's cut
//      then simply lies after the consumption): on recovery the restored
//      sequence state suppresses the re-sent duplicates, so no induced
//      checkpoints or message holding are needed.
//   4. Once its state is durable and all markers have arrived, a node
//      writes its channel log and acks; all N acks make the coordinator
//      write the commit record and broadcast Commit(e); epoch e-1 is then
//      discarded (constant storage footprint).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "chklib/ckpt/image.hpp"
#include "chklib/ckpt/incremental.hpp"
#include "chklib/proto/protocol.hpp"
#include "chklib/proto/scheme.hpp"
#include "des/sync.hpp"

namespace chk::chklib::membership {
class MembershipService;
}  // namespace chk::chklib::membership

namespace chk::chklib {

class CoordinatedProtocol final : public Protocol {
 public:
  struct Config {
    Scheme scheme = Scheme::kCoordNB;
    des::Duration interval = des::Duration::secs(60);
    /// Total global checkpoints to take; 0 = keep going until the run ends.
    std::uint32_t rounds = 3;
    /// Ablation knob: capture empty state images. The remaining overhead is
    /// pure protocol synchronization (requests, markers, acks, commit) —
    /// used to isolate the paper's "sync cost is negligible" claim.
    bool ablate_discard_state = false;
    /// Incremental checkpointing (the technique of the paper's related work
    /// [13]): checkpoints between full ones store only the dirty chunks of
    /// the registered state; recovery applies the delta chain. Commit-time
    /// garbage collection keeps the chain back to the last full image.
    bool incremental = false;
    /// With incremental on: take a full image every N checkpoints (epoch 1,
    /// 1+N, ... are full), bounding the recovery chain length.
    std::uint32_t full_every = 4;
    /// Round watchdog: if > 0, the coordinator aborts a round whose acks
    /// have not completed within this duration and re-initiates it at the
    /// next epoch (the lost messages' checkpoints become tentative and are
    /// superseded). Zero disables the watchdog entirely — arming the timer
    /// perturbs event sequencing, so fault-free runs keep it off.
    des::Duration round_timeout = des::Duration::zero();
    /// Stagger-token watchdog period (Coord_NBMS): if > 0, writers beacon
    /// each token pass to the coordinator, which regenerates the token
    /// toward the next expected holder when a whole period elapses with no
    /// progress. Zero disables (and suppresses the beacons).
    des::Duration token_timeout = des::Duration::zero();
    /// Retention depth: commit-time GC keeps the delta chains of the
    /// newest `keep_depth` committed generations (>= 1). With unreliable
    /// storage a depth of at least 2 lets recovery fall back to the
    /// previous generation when the newest image turns out to be rotted.
    std::uint32_t keep_depth = 1;
  };

  CoordinatedProtocol(Runtime& runtime, Config config);
  ~CoordinatedProtocol() override { halt(); }  // daemons reference *this

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
  [[nodiscard]] std::uint32_t epoch_of(Rank r) const noexcept { return agents_[r]->epoch; }
  [[nodiscard]] std::uint32_t pending_epoch_of(Rank r) const noexcept {
    return agents_[r]->pending_epoch;
  }
  [[nodiscard]] std::uint32_t committed_epoch() const noexcept {
    return rt_->store().committed_epoch();
  }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Attach the cluster-membership service (call before start()): the
  /// coordinator becomes the *elected* one (rank 0 is only the initial
  /// holder via view 0), round messages are stamped with the view they run
  /// under, acks from evicted ranks stop counting, and fenced ranks
  /// discard their in-flight round state instead of corrupting a commit.
  /// Without it the protocol behaves exactly as before.
  void set_membership(membership::MembershipService* membership);
  /// The round-initiating coordinator: elected when membership is attached,
  /// rank 0 otherwise.
  [[nodiscard]] Rank coordinator() const noexcept;

 private:
  struct Agent {
    std::uint32_t epoch = 0;          ///< last locally captured epoch
    std::uint32_t pending_epoch = 0;  ///< requested epoch (capture at next safe point)
    bool logging = false;             ///< channel log open for `epoch`
    bool durable = false;             ///< state image on disk
    bool finishing = false;           ///< log write + ack underway/done
    ChannelLog log;
    /// Marker senders per epoch; the channel log closes once every peer's
    /// marker for the rank's epoch is in.
    std::map<std::uint32_t, std::set<Rank>> markers;
    des::SimSemaphore token;          ///< stagger permission to write
    IncrementalTracker tracker;       ///< dirty-chunk baseline (incremental mode)
    std::uint32_t last_ckpt_epoch = 0;
    /// Highest ring-token epoch honoured (Coord_NBMS). The token watchdog
    /// re-issues a token it cannot tell from lost, so the original may
    /// still arrive after the copy; such duplicates are dropped so the
    /// stagger semaphore never creeps. Ring tokens carry strictly
    /// increasing epochs at any given rank, so the floor test is exact.
    std::uint32_t last_token_epoch = 0;
    /// Epochs of accepted ring tokens whose permit is not yet consumed
    /// (Coord_NBMS). Releases and acquires are FIFO-matched, so the front
    /// entry is exactly the token that admits the next writer — the writer
    /// forwards *that* epoch, not its own image index, so a straggler
    /// admitted by a newer token cannot relabel (and thereby duplicate)
    /// the ring token.
    std::deque<std::uint32_t> ring_tokens;
    /// Coord_NBS: a write grant was requested and not yet received. The
    /// round watchdog re-issues a grant it cannot tell from lost (see
    /// on_round_timeout), so grants arriving without an outstanding
    /// request are duplicates of one that did arrive, and are dropped.
    bool grant_outstanding = false;
    /// Commit epochs this rank has observed, ascending — the retention
    /// floor for keep-depth GC.
    std::vector<std::uint32_t> commit_history;
  };

  /// Epochs 1, 1+full_every, ... carry full images in incremental mode.
  [[nodiscard]] bool is_full_epoch(std::uint32_t epoch) const noexcept {
    return ((epoch - 1) % cfg_.full_every) == 0;
  }

  void install_safe_points();
  void spawn_daemons();
  void schedule_next_round(des::Duration delay);
  void begin_round(std::uint32_t epoch);
  void daemon_main(Rank r, des::Process& self);
  void handle_control(Rank r, des::Process& self, const ControlMsg& msg);
  void safe_point(Rank r, des::Process& self);
  /// Capture, channel-log opening and markers; the save is save_image's.
  void do_local_checkpoint(des::Process& carrier, Rank r, std::uint32_t epoch);
  /// Admission: none (Coord_NB, Coord_NBM), the coordinator's FIFO write
  /// grant (Coord_NBS), or the stagger ring token (Coord_NBMS, whose tag is
  /// the admitting token's epoch).
  std::uint32_t acquire_write(Rank r, des::Process& writer, std::uint32_t epoch) override;
  /// Return the grant, or pass the ring token on (plus its beacon).
  void release_write(Rank r, std::uint32_t tag) override;
  /// A durable image may complete the rank's part of the round.
  void image_written(Rank r, des::Process& writer, xplorer::IoStatus status,
                     WriteContext context, CheckpointImage& image) override;
  [[nodiscard]] std::string writer_name(Rank r, std::uint32_t epoch) const override;
  /// Deliver a write grant from the arbiter at `from`.
  void send_grant(Rank from, const GrantArbiter::Grant& grant);
  /// `log_ctx` says who pays for the channel-log write if this call
  /// completes the checkpoint: kAppBlocking only when the application
  /// process carries it inside its blocking window.
  void try_finish(Rank r, des::Process& proc,
                  WriteContext log_ctx = WriteContext::kBackground);
  void handle_commit(Rank r, std::uint32_t epoch);
  /// Round watchdog expiry: abort the stalled round, re-initiate at the
  /// next epoch (and re-issue a possibly-lost Coord_NBS write grant).
  void on_round_timeout(std::uint32_t epoch);
  /// Round-abort bookkeeping shared by every abort path: stats, the
  /// ring-token floor, the invariant-observer hook and the trace event.
  void note_round_abort(std::uint32_t epoch);
  void arm_token_watchdog();
  /// Token watchdog expiry: regenerate the stagger token toward the next
  /// expected holder if no ring progress was beaconed this period.
  void on_token_timeout(std::uint32_t epoch);
  /// The view this message was stamped under (0 with no membership).
  [[nodiscard]] std::uint64_t current_view() const noexcept;
  /// Membership callback: a new view gathered its quorum — abort an
  /// in-flight round (its acks are now unmatchable) and re-initiate it
  /// under the new coordinator at the next epoch; advance a write grant
  /// parked at a crashed holder.
  void on_view_established();
  /// Membership callback: rank `r` was fenced (true) or rejoined (false).
  /// Fencing discards the rank's in-flight round state; its token
  /// semaphore is deliberately left alone (an Indep_MS-style acquire may
  /// be blocked on it).
  void on_rank_fenced(Rank r, bool fenced);

  Config cfg_;
  membership::MembershipService* membership_ = nullptr;
  /// View the in-flight round was initiated under (0 with no membership).
  std::uint64_t round_view_ = 0;
  std::vector<std::unique_ptr<Agent>> agents_;
  /// Ranks that acked the in-progress round.
  std::set<Rank> acked_;
  std::uint32_t round_epoch_ = 0;
  bool round_in_progress_ = false;
  /// Coord_NBS write grants (arbitrated by the coordinator's daemon).
  GrantArbiter grants_;
  // Watchdog state (armed only when the corresponding timeout is > 0).
  des::EventHandle round_watchdog_;
  des::EventHandle token_watchdog_;
  Rank token_pos_ = 0;          ///< next expected stagger-token holder
  bool token_progress_ = false; ///< a beacon arrived this watchdog period
  bool ring_done_ = true;       ///< the stagger ring completed this round
  /// Highest aborted round epoch this incarnation. An aborted round's ring
  /// token may still be in transit when the re-initiated round injects a
  /// fresh one; honouring the stale token would put two tokens in the ring
  /// (and let its writer relabel it with a live epoch), so tokens at or
  /// below this floor are dropped on arrival instead.
  std::uint32_t ring_abort_floor_ = 0;
};

}  // namespace chk::chklib
