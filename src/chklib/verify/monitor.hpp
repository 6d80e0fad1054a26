// Runtime protocol-invariant monitor.
//
// A Monitor is an InvariantObserver installed on a Runtime's CommSystem and
// CheckpointStore. It re-derives, independently of the endpoint/protocol
// bookkeeping it is checking, what a correct CHK-LIB execution must look
// like, and reports any divergence through an InvariantSink:
//
//   fifo        per-(src,dst) channel delivery is FIFO, loss-free and
//               duplication-free within an incarnation: transmissions are
//               dense and monotone, the arrival stream is exactly the
//               transmission stream replayed in order;
//   epoch       the checkpoint epoch stamped on outgoing messages never
//               decreases at a sender (within an incarnation);
//   quiescence  coordinated rounds: once rank q received p's channel
//               marker for epoch e, no pre-e application message from p
//               may arrive at q — a global checkpoint never swallows or
//               reorders application traffic;
//   consume     no message is consumed twice (mirrors the restored
//               ChannelSeqState across rollbacks);
//   stagger     staggered schemes: at most one rank is writing a
//               checkpoint image to stable storage at any instant;
//   membership  with the cluster-membership service attached: a view id
//               always identifies its proposer (view % N == src, so there
//               is at most one live coordinator per membership epoch), the
//               same view id never announces two different member sets,
//               rounds are initiated and committed by their view's
//               coordinator under the *same* view (no committed round
//               spans two membership epochs), and no rank outside a view's
//               member set contributes an ack toward its commits (fenced
//               ranks never corrupt a commit).
//
// The monitor is passive: it allocates only host memory and never touches
// simulated time, so an instrumented run is bit-identical to a bare one.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "chklib/comm/observer.hpp"
#include "chklib/proto/scheme.hpp"
#include "chklib/runtime.hpp"
#include "chklib/verify/invariants.hpp"

namespace chk::chklib::verify {

class Monitor final : public InvariantObserver {
 public:
  /// The fifo, epoch and consume checks always run; these select the rest.
  struct Options {
    Scheme scheme = Scheme::kNone;
    Policy policy = default_policy();
    /// Default: armed automatically for coordinated schemes.
    bool check_quiescence = false;
    /// Default: armed automatically for staggered schemes.
    bool check_stagger = false;
    /// Membership-safety checks (see header comment). Off by default; the
    /// harness arms it when the membership service is attached.
    bool check_membership = false;
  };

  /// Builds scheme-appropriate options (quiescence for Coord_*, stagger
  /// for the *S variants).
  [[nodiscard]] static Options options_for(Scheme scheme, Policy policy = default_policy());

  Monitor(Runtime& runtime, Options options);
  ~Monitor() override;

  /// Hook into the runtime's comm system and checkpoint store. The monitor
  /// unhooks itself on destruction.
  void install();
  void uninstall();

  [[nodiscard]] const InvariantSink& sink() const noexcept { return sink_; }
  [[nodiscard]] std::uint64_t checks() const noexcept { return sink_.checks(); }
  [[nodiscard]] std::uint64_t violations() const noexcept {
    return sink_.violations().size();
  }
  /// Messages transmitted but not yet arrived in the current incarnation.
  [[nodiscard]] std::uint64_t in_flight() const noexcept;

  // ---- InvariantObserver ---------------------------------------------------
  void on_transmit(const Envelope& env) override;
  void on_endpoint_arrival(const Envelope& env) override;
  void on_consume(Rank dst, const Envelope& env) override;
  void on_control_delivered(Rank dst, const ControlMsg& msg) override;
  void on_incarnation_bump(std::uint32_t incarnation) override;
  void on_flush(Rank rank) override;
  void on_restore_seq(Rank rank, const ChannelSeqState& state) override;
  void on_round_abort(std::uint32_t epoch) override;
  void on_token_regenerated(std::uint32_t epoch) override;
  void on_image_write_begin(Rank rank, std::uint32_t index) override;
  void on_image_write_end(Rank rank, std::uint32_t index) override;

 private:
  using ChannelKey = std::pair<Rank, Rank>;  // (src, dst)

  /// Everything the monitor believes about one directed channel in the
  /// current incarnation.
  struct ChannelState {
    bool tx_seen = false;
    std::uint64_t tx_base = 0;  ///< first transmitted seq since baseline
    std::uint64_t tx_next = 0;  ///< next expected outgoing seq
    bool rx_seen = false;
    std::uint64_t rx_next = 0;      ///< next expected arriving seq
    std::uint64_t tx_count = 0;     ///< transmissions since baseline
    std::uint64_t rx_count = 0;     ///< arrivals since baseline
    std::uint32_t marker_epoch = 0; ///< quiescence: latest channel marker
  };

  /// Receiver-side consumption state (mirror of the endpoint's dedup
  /// bookkeeping, maintained independently).
  struct ConsumeState {
    std::uint64_t upto = 0;
    std::set<std::uint64_t> extra;
  };

  ChannelState& channel(Rank src, Rank dst) { return channels_[{src, dst}]; }

  Runtime* rt_;
  Options opt_;
  InvariantSink sink_;
  bool installed_ = false;
  std::map<ChannelKey, ChannelState> channels_;
  std::map<ChannelKey, ConsumeState> consumed_;   // (dst, src) keyed
  std::map<Rank, std::uint32_t> last_tx_epoch_;   // epoch monotonicity per sender
  std::map<Rank, std::uint32_t> active_writes_;   // rank -> image index being written
  std::uint32_t aborted_epoch_ = 0;  // stagger: stragglers at/below this are exempt
  std::set<std::uint32_t> regen_epochs_;  // epochs whose ring token was re-issued
  // Membership checks: what each announced view claimed, and the view each
  // round (epoch) was last initiated under.
  std::map<std::uint64_t, std::uint64_t> view_members_;
  std::map<std::uint32_t, std::uint64_t> round_view_;
};

}  // namespace chk::chklib::verify
