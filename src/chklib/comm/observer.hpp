// Passive observation interface for the communication / checkpoint layers.
//
// Unlike ProtocolHooks (which the checkpointing protocols implement to
// *participate* in message handling), an InvariantObserver only watches:
// the comm system, endpoints and protocols report every externally visible
// transition through it. It is attached in one place, the CommSystem. The
// verify/ subsystem installs a Monitor there to check protocol invariants
// (FIFO channels, coordinated quiescence, stagger mutual exclusion) without
// perturbing the simulation — observer callbacks run at already-existing
// event boundaries and consume no simulated time.
//
// All methods have empty default bodies so observers implement only what
// they need and new callbacks never break existing observers.
#pragma once

#include <cstdint>
#include <vector>

#include "chklib/comm/envelope.hpp"

namespace chk::chklib {

struct ChannelSeqState;

class InvariantObserver {
 public:
  virtual ~InvariantObserver() = default;

  // ---- application message plane -----------------------------------------
  /// Sender handed an envelope to the network (epoch/incarnation stamped).
  virtual void on_transmit(const Envelope& env) { (void)env; }
  /// Envelope reached the destination endpoint, before duplicate
  /// suppression (kernel context).
  virtual void on_endpoint_arrival(const Envelope& env) { (void)env; }
  /// Arrival suppressed as already consumed by restored channel state.
  virtual void on_duplicate_dropped(const Envelope& env) { (void)env; }
  /// In-flight message from a rolled-back incarnation dropped on arrival.
  virtual void on_stale_dropped(Rank dst, std::uint32_t incarnation) {
    (void)dst;
    (void)incarnation;
  }
  /// Application consumed (recv'd) the envelope at `dst`.
  virtual void on_consume(Rank dst, const Envelope& env) {
    (void)dst;
    (void)env;
  }

  // ---- control plane ------------------------------------------------------
  /// Control message delivered into `dst`'s control mailbox.
  virtual void on_control_delivered(Rank dst, const ControlMsg& msg) {
    (void)dst;
    (void)msg;
  }

  // ---- recovery transitions ----------------------------------------------
  /// Incarnation bumped (all older in-flight traffic is now dead).
  virtual void on_incarnation_bump(std::uint32_t incarnation) { (void)incarnation; }
  /// Endpoint `rank` dropped all pending messages and reset its counters.
  virtual void on_flush(Rank rank) { (void)rank; }
  /// Endpoint `rank`'s sequence state was restored from a checkpoint.
  virtual void on_restore_seq(Rank rank, const ChannelSeqState& state) {
    (void)rank;
    (void)state;
  }
  /// Restored channel-log messages re-injected ahead of new arrivals.
  virtual void on_reinject(Rank rank, const std::vector<Envelope>& envelopes) {
    (void)rank;
    (void)envelopes;
  }

  /// A coordinated checkpoint round was aborted (watchdog timeout or a
  /// membership view change): writes begun under it may still be in flight
  /// and legitimately overlap the re-initiated round's first writer.
  virtual void on_round_abort(std::uint32_t epoch) { (void)epoch; }
  /// The stagger-token watchdog re-issued epoch `epoch`'s ring token. If
  /// the original was merely delayed (not destroyed), the ring briefly
  /// carries two tokens and same-epoch writes may overlap — a performance
  /// degradation, not a safety violation (both images are valid tentatives).
  virtual void on_token_regenerated(std::uint32_t epoch) { (void)epoch; }

  // ---- stable-storage checkpoint writes ----------------------------------
  /// `rank` started writing checkpoint image `index` to stable storage.
  virtual void on_image_write_begin(Rank rank, std::uint32_t index) {
    (void)rank;
    (void)index;
  }
  /// The image write completed (bytes durable).
  virtual void on_image_write_end(Rank rank, std::uint32_t index) {
    (void)rank;
    (void)index;
  }
};

}  // namespace chk::chklib
