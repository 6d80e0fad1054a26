// Reliable FIFO transport over unreliable links.
//
// CHK-LIB's protocols assume reliable FIFO channels (markers bound channel
// logging *because* no message is lost, duplicated or reordered —
// SRDS'92). This sublayer provides that guarantee over the raw link +
// LinkFaultModel: per-directed-link sequence numbers, cumulative acks,
// timeout-driven retransmission with exponential backoff, duplicate
// suppression and checksum verification. Application envelopes and
// control messages share ONE sequence space per (src, dst) link — the
// quiescence invariant needs channel markers FIFO-ordered with the app
// traffic they fence, so they must ride the same stream.
//
// Per-link sender: frames are stamped with the next sequence number,
// buffered until cumulatively acked, and retransmitted in bulk when the
// RTO fires (the RTO starts at 50 ms, doubles per expiry up to 1 s, and
// resets when the cumulative ack advances). Per-link receiver: in-order
// frames are handed up immediately; out-of-order frames wait in a reorder
// buffer (the gap opens a `retransmit_wait` span attributed to the
// receiving rank); duplicates are suppressed but re-acked (a lost ack must
// not wedge the sender); checksum mismatches are dropped silently — the
// retransmit recovers them. Every data frame triggers a cumulative ack;
// acks are unsequenced, unacked, and themselves subject to link faults.
//
// Datagram plane: send_datagram() puts a control message on the wire with
// no sequence number, no ack and no retransmission — delivered if it
// survives the link, silently gone otherwise. Heartbeat beacons ride this
// plane: a stale beacon is worthless (the next one is due in one period),
// and retransmitting it through the FIFO stream would head-of-line-block
// behind any stalled data frame, manufacturing multi-second false
// silences out of ordinary loss — exactly the artifact a failure detector
// must not see. Link faults (drop/duplicate/corrupt/delay) apply to
// datagrams like any other frame; corruption is caught by the checksum
// and the frame is simply lost.
//
// The transport is incarnation-agnostic: it delivers exactly-once FIFO
// frames and lets the hand-up callbacks (CommSystem) apply the recovery
// incarnation filter, exactly where the raw path applied it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "chklib/comm/envelope.hpp"
#include "chklib/comm/link_fault.hpp"
#include "des/simulator.hpp"
#include "xplorer/network.hpp"

namespace chk::chklib {

struct TransportStats {
  std::uint64_t retransmits = 0;      ///< frames re-sent on RTO expiry
  std::uint64_t dups_suppressed = 0;  ///< duplicate data frames discarded
  std::uint64_t corrupt_detected = 0; ///< checksum mismatches discarded
  /// RTO timer churn. Every cumulative-ack advance cancels the armed timer
  /// and (with frames still in flight) re-arms it, so under ack-heavy
  /// traffic `rto_cancelled` approaches one per ack — each a dead event
  /// the kernel's queue must reclaim. The pair exists so heap-bloat
  /// regression tests can bound the queue against the true live count.
  std::uint64_t rto_armed = 0;        ///< timer arms, initial + re-arms
  std::uint64_t rto_cancelled = 0;    ///< armed timers cancelled by an ack
};

/// Modelled wire size of a transport ack frame.
inline constexpr std::size_t kAckWireBytes = 16;
/// Modelled per-frame transport header (seq + cumulative ack + checksum).
inline constexpr std::size_t kTransportWireBytes = 16;

class Transport {
 public:
  using DeliverApp = std::function<void(Envelope)>;
  using DeliverControl = std::function<void(Rank dst, const ControlMsg&)>;
  /// Test hook: returns true to make the link swallow this control frame
  /// (applied per physical copy, so retransmissions are re-evaluated).
  using ControlDropFilter = std::function<bool(const ControlMsg&)>;

  Transport(des::Simulator& sim, xplorer::Network& network);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_deliver_app(DeliverApp fn) { deliver_app_ = std::move(fn); }
  void set_deliver_control(DeliverControl fn) { deliver_control_ = std::move(fn); }
  /// Attach the unreliable-link model (nullptr = perfect links; the
  /// transport is then pure overhead but still exactly-once FIFO).
  void set_fault_model(LinkFaultModel* faults) noexcept { faults_ = faults; }
  void set_control_drop_filter(ControlDropFilter filter) {
    drop_filter_ = std::move(filter);
  }

  /// Submit one application envelope for reliable in-order delivery.
  void send_app(Envelope env);
  /// Submit one control message for reliable in-order delivery.
  void send_control(Rank src, Rank dst, const ControlMsg& msg);
  /// Fire-and-forget: one unsequenced control frame, no ack, no
  /// retransmit. Survives the link or vanishes. For idempotent freshness
  /// signals (heartbeats) that must never head-of-line-block.
  void send_datagram(Rank src, Rank dst, const ControlMsg& msg);

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

 private:
  enum class FrameKind : std::uint8_t { kApp, kControl, kAck, kDatagram };

  /// One transport PDU. `src`/`dst` always name the DATA direction of the
  /// link; ack frames travel dst -> src.
  struct Frame {
    FrameKind kind = FrameKind::kApp;
    Rank src = 0;
    Rank dst = 0;
    std::uint64_t seq = 0;       ///< data frames: link sequence number
    std::uint64_t ack = 0;       ///< ack frames: receiver's rx_next
    std::uint64_t checksum = 0;
    /// Corruption target: the fault model flips bits here; the checksum
    /// covers it, so a corrupted frame genuinely fails verification while
    /// the logical payload stays intact for tests to inspect.
    std::uint64_t pad = 0;
    Envelope env;    ///< kApp
    ControlMsg msg;  ///< kControl
  };

  using LinkKey = std::pair<Rank, Rank>;  // (data src, data dst)

  struct SenderLink {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, Frame> unacked;
    des::EventHandle rto_timer;
    des::Duration rto;
  };

  struct ReceiverLink {
    std::uint64_t rx_next = 0;
    std::map<std::uint64_t, Frame> reorder;
    /// A sequence gap is a stall: the rank is waiting on a retransmit.
    bool stall_open = false;
    std::int64_t stall_start_ns = 0;
  };

  [[nodiscard]] static std::uint64_t checksum_of(const Frame& frame);
  void submit(Frame frame);
  /// Put one physical copy of the frame on the wire.
  void transmit_frame(const Frame& frame);
  /// Link-exit: apply the fault model, then process what survives.
  void on_frame_arrival(Frame frame);
  void process_frame(Frame frame);
  void handle_ack(const Frame& frame);
  void send_ack(const LinkKey& link, std::uint64_t ack);
  void hand_up(Frame frame);
  void arm_rto(const LinkKey& link, SenderLink& tx);
  void on_rto(const LinkKey& link);

  des::Simulator* sim_;
  xplorer::Network* network_;
  LinkFaultModel* faults_ = nullptr;
  DeliverApp deliver_app_;
  DeliverControl deliver_control_;
  ControlDropFilter drop_filter_;
  std::map<LinkKey, SenderLink> senders_;
  std::map<LinkKey, ReceiverLink> receivers_;
  TransportStats stats_;
};

}  // namespace chk::chklib
