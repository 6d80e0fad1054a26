// The communication fabric tying all endpoints to the machine model.
//
// Besides the endpoints and the transport, the fabric holds the three
// things every message path consults: the active protocol's hooks, the
// invariant monitor (verify/, optional) and the membership service
// (membership/, optional). The monitor and the service attach themselves;
// with neither attached, a message path only counts and forwards.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chklib/comm/endpoint.hpp"
#include "chklib/comm/envelope.hpp"
#include "chklib/comm/hooks.hpp"
#include "chklib/comm/link_fault.hpp"
#include "chklib/comm/transport.hpp"
#include "xplorer/machine.hpp"

namespace chk::chklib {

namespace verify {
class Monitor;
}  // namespace verify
namespace membership {
class MembershipService;
}  // namespace membership

/// Control kinds consumed by the membership service rather than a protocol
/// daemon's mailbox.
[[nodiscard]] constexpr bool is_membership_kind(ControlKind kind) noexcept {
  return kind >= ControlKind::kHeartbeat;
}

class CommSystem {
 public:
  explicit CommSystem(xplorer::Machine& machine);
  CommSystem(const CommSystem&) = delete;
  CommSystem& operator=(const CommSystem&) = delete;

  [[nodiscard]] xplorer::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] std::size_t num_ranks() const noexcept { return endpoints_.size(); }
  [[nodiscard]] Endpoint& endpoint(Rank rank) noexcept { return *endpoints_[rank]; }

  /// Install protocol interposition (nullptr = no checkpointing).
  void set_hooks(ProtocolHooks* hooks) noexcept { hooks_ = hooks; }
  [[nodiscard]] ProtocolHooks* hooks() const noexcept { return hooks_; }

  /// The invariant monitor every message path reports to (nullptr = none;
  /// see Monitor::install). It only watches: it never mutates simulation
  /// state or takes simulated time.
  void set_monitor(verify::Monitor* monitor) noexcept { monitor_ = monitor; }
  [[nodiscard]] verify::Monitor* monitor() const noexcept { return monitor_; }

  /// The membership service (nullptr = none; the service attaches itself
  /// when constructed). Membership control kinds (heartbeats, suspicions,
  /// view changes) go to it instead of the destination's control mailbox,
  /// after the monitor has seen them. A rank it reports down (crashed but
  /// not yet detected) neither sends nor receives: nothing it sends leaves
  /// the node, and nothing addressed to it or still in flight from it is
  /// delivered. The oracle recovery path never marks a rank down.
  void set_membership(membership::MembershipService* membership) noexcept {
    membership_ = membership;
  }
  [[nodiscard]] membership::MembershipService* membership() const noexcept {
    return membership_;
  }

  /// Install the unreliable-link model, and with it the reliable transport:
  /// lossy links only ever carry transport frames, so every frame the model
  /// judges (data, acks, retransmissions, datagrams) is one the transport
  /// can repair or tolerate. Call before traffic starts.
  void set_link_faults(const LinkFaultConfig& config, util::Rng rng);

  /// Layer the reliable FIFO transport (sequence numbers, cumulative acks,
  /// retransmission) under the message paths, restoring exactly-once FIFO
  /// delivery over lossy links. Without it messages take the raw network
  /// path, which only ever carries perfect links. Call before traffic
  /// starts.
  void enable_transport();
  [[nodiscard]] Transport* transport() noexcept { return transport_.get(); }

  /// Application-message transmission (sender process context): applies
  /// hooks, charges sender CPU, then hands the envelope to the network.
  void transmit(des::Process& self, Envelope env);

  /// Control-plane transmission (any context, asynchronous, negligible CPU
  /// but real network time — this is the protocols' "synchronization
  /// overhead" the paper measures).
  void send_control(Rank src, Rank dst, ControlMsg msg);

  /// Fire-and-forget control transmission: unsequenced, unacked, never
  /// retransmitted. Heartbeat beacons use this so a stalled FIFO stream
  /// (one lost data frame under RTO backoff) cannot head-of-line-block
  /// liveness signals into multi-second false silences. Over the raw path
  /// (perfect links, no transport) it behaves exactly like send_control.
  void send_control_datagram(Rank src, Rank dst, ControlMsg msg);

  /// Recovery support: stale-incarnation messages in flight are dropped on
  /// arrival after this is bumped.
  void bump_incarnation() noexcept;
  [[nodiscard]] std::uint32_t incarnation() const noexcept { return incarnation_; }
  /// Drop all queued messages at every endpoint.
  void flush_all();

  // -- statistics -------------------------------------------------------------
  [[nodiscard]] std::uint64_t app_messages() const noexcept { return app_messages_; }
  [[nodiscard]] std::uint64_t app_bytes() const noexcept { return app_bytes_; }
  [[nodiscard]] std::uint64_t control_messages() const noexcept { return control_messages_; }
  [[nodiscard]] std::uint64_t control_bytes() const noexcept { return control_bytes_; }
  [[nodiscard]] std::uint64_t dropped_stale() const noexcept { return dropped_stale_; }
  // Transport counters (zero when the transport is off).
  [[nodiscard]] std::uint64_t retransmits() const noexcept {
    return transport_ != nullptr ? transport_->stats().retransmits : 0;
  }
  [[nodiscard]] std::uint64_t dups_suppressed() const noexcept {
    return transport_ != nullptr ? transport_->stats().dups_suppressed : 0;
  }
  [[nodiscard]] std::uint64_t corrupt_detected() const noexcept {
    return transport_ != nullptr ? transport_->stats().corrupt_detected : 0;
  }
  // Raw link-weather counters (zero when no fault model is installed).
  [[nodiscard]] std::uint64_t link_drops() const noexcept {
    return faults_ != nullptr ? faults_->drops() : 0;
  }
  [[nodiscard]] std::uint64_t link_duplicates() const noexcept {
    return faults_ != nullptr ? faults_->duplicates() : 0;
  }
  [[nodiscard]] std::uint64_t link_corrupted() const noexcept {
    return faults_ != nullptr ? faults_->corrupted() : 0;
  }
  [[nodiscard]] std::uint64_t link_delayed() const noexcept {
    return faults_ != nullptr ? faults_->delayed() : 0;
  }

 private:
  /// Exactly-once hand-up paths (also the raw network callbacks when the
  /// transport is off): apply the recovery incarnation filter, then
  /// endpoint delivery.
  void deliver_app(Envelope env);
  void deliver_control(Rank dst, const ControlMsg& msg);
  /// The body of send_control and send_control_datagram: over the
  /// transport, `datagram` picks the unsequenced path.
  void send_control_msg(Rank src, Rank dst, ControlMsg msg, bool datagram);
  /// The membership service reports `rank` crashed but not yet detected.
  [[nodiscard]] bool rank_down(Rank rank) const noexcept;

  xplorer::Machine* machine_;
  ProtocolHooks* hooks_ = nullptr;
  verify::Monitor* monitor_ = nullptr;
  membership::MembershipService* membership_ = nullptr;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<LinkFaultModel> faults_;
  std::unique_ptr<Transport> transport_;
  std::uint32_t incarnation_ = 0;
  std::uint64_t app_messages_ = 0;
  std::uint64_t app_bytes_ = 0;
  std::uint64_t control_messages_ = 0;
  std::uint64_t control_bytes_ = 0;
  std::uint64_t dropped_stale_ = 0;
};

}  // namespace chk::chklib
