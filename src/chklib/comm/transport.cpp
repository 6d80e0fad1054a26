#include "chklib/comm/transport.hpp"

#include <algorithm>

#include "obs/tracer.hpp"

namespace chk::chklib {

namespace {

/// Initial retransmission timeout. The modelled mesh (1.7 MB/s links, 8 us
/// latency) round-trips a control frame in well under 1 ms; 50 ms keeps
/// spurious retransmits out of even deep checkpoint-traffic queues.
constexpr des::Duration kRtoInitial = des::Duration::millis(50);
/// Backoff cap: the RTO doubles per expiry up to this.
constexpr des::Duration kRtoCap = des::Duration::secs(1);

/// Wire size of one physical frame copy.
std::size_t frame_wire_bytes(std::size_t logical_bytes) {
  return logical_bytes + kTransportWireBytes;
}

}  // namespace

Transport::Transport(des::Simulator& sim, xplorer::Network& network)
    : sim_(&sim), network_(&network) {}

std::uint64_t Transport::checksum_of(const Frame& frame) {
  // splitmix64-fold over every field the "wire" carries, including `pad`
  // (the corruption target) and the payload bytes — a flipped bit anywhere
  // fails verification.
  std::uint64_t h = 0x2545f4914f6cdd1dull;
  auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h = util::splitmix64(h);
  };
  mix(static_cast<std::uint64_t>(frame.kind));
  mix(static_cast<std::uint64_t>(frame.src));
  mix(static_cast<std::uint64_t>(frame.dst));
  mix(frame.seq);
  mix(frame.ack);
  mix(frame.pad);
  if (frame.kind == FrameKind::kApp) {
    const Envelope& env = frame.env;
    mix(static_cast<std::uint64_t>(env.tag));
    mix(env.epoch);
    mix(env.incarnation);
    mix(env.seq);
    mix(env.payload.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < env.payload.size(); ++i) {
      word = (word << 8) | static_cast<std::uint64_t>(env.payload[i]);
      if ((i & 7u) == 7u) {
        mix(word);
        word = 0;
      }
    }
    if ((env.payload.size() & 7u) != 0) mix(word);
  } else if (frame.kind == FrameKind::kControl || frame.kind == FrameKind::kDatagram) {
    mix(static_cast<std::uint64_t>(frame.msg.kind));
    mix(static_cast<std::uint64_t>(frame.msg.src));
    mix(frame.msg.epoch);
    mix(frame.msg.incarnation);
    mix(frame.msg.view);
    mix(frame.msg.members);
  }
  return h;
}

void Transport::send_app(Envelope env) {
  Frame frame;
  frame.kind = FrameKind::kApp;
  frame.src = env.src;
  frame.dst = env.dst;
  frame.env = std::move(env);
  submit(std::move(frame));
}

void Transport::send_control(Rank src, Rank dst, const ControlMsg& msg) {
  Frame frame;
  frame.kind = FrameKind::kControl;
  frame.src = src;
  frame.dst = dst;
  frame.msg = msg;
  submit(std::move(frame));
}

void Transport::send_datagram(Rank src, Rank dst, const ControlMsg& msg) {
  // No sequence number, no sender state, no RTO: one physical copy on the
  // wire, delivered iff the link lets it through.
  Frame frame;
  frame.kind = FrameKind::kDatagram;
  frame.src = src;
  frame.dst = dst;
  frame.msg = msg;
  frame.checksum = checksum_of(frame);
  transmit_frame(frame);
}

void Transport::submit(Frame frame) {
  const LinkKey link{frame.src, frame.dst};
  SenderLink& tx = senders_[link];
  frame.seq = tx.next_seq++;
  frame.checksum = checksum_of(frame);
  transmit_frame(frame);
  tx.unacked.emplace(frame.seq, std::move(frame));
  if (!tx.rto_timer.pending()) {
    tx.rto = kRtoInitial;
    arm_rto(link, tx);
  }
}

void Transport::transmit_frame(const Frame& frame) {
  std::size_t logical = kAckWireBytes;
  xplorer::Traffic traffic = xplorer::Traffic::kControl;
  Rank from = frame.dst;
  Rank to = frame.src;
  if (frame.kind != FrameKind::kAck) {
    from = frame.src;
    to = frame.dst;
    logical = frame.kind == FrameKind::kApp
                  ? frame.env.payload.size() + kHeaderWireBytes
                  : kControlWireBytes;
    traffic = frame.kind == FrameKind::kApp ? xplorer::Traffic::kApplication
                                            : xplorer::Traffic::kControl;
  }
  network_->transfer(from, to, frame_wire_bytes(logical), traffic,
                     [this, frame] { on_frame_arrival(frame); });
}

void Transport::on_frame_arrival(Frame frame) {
  // The test hook models a link that eats specific control frames; it sits
  // below the fault model so retransmitted copies are re-evaluated.
  if ((frame.kind == FrameKind::kControl || frame.kind == FrameKind::kDatagram) &&
      drop_filter_ && drop_filter_(frame.msg)) {
    return;
  }
  if (faults_ != nullptr) {
    const LinkFaultModel::Verdict verdict = faults_->judge();
    if (verdict.drop) return;
    if (verdict.duplicate) {
      // The duplicate is a second clean physical copy; it does not pass
      // through the fault model again (that would recurse unboundedly at
      // high duplication rates).
      sim_->schedule_after(des::Duration::nanos(verdict.dup_lag_ns),
                           [this, copy = frame] { process_frame(copy); });
    }
    if (verdict.corrupt) frame.pad ^= verdict.corrupt_mask;
    if (verdict.extra_delay_ns > 0) {
      sim_->schedule_after(des::Duration::nanos(verdict.extra_delay_ns),
                           [this, delayed = std::move(frame)] {
                             process_frame(delayed);
                           });
      return;
    }
  }
  process_frame(std::move(frame));
}

void Transport::process_frame(Frame frame) {
  if (checksum_of(frame) != frame.checksum) {
    // Treated exactly like a loss: the sender's RTO recovers data frames,
    // and a lost ack is covered by the next (cumulative) one.
    ++stats_.corrupt_detected;
    return;
  }
  if (frame.kind == FrameKind::kAck) {
    handle_ack(frame);
    return;
  }
  if (frame.kind == FrameKind::kDatagram) {
    // Unsequenced plane: no dedup, no reorder buffer, no ack.
    hand_up(std::move(frame));
    return;
  }
  const LinkKey link{frame.src, frame.dst};
  ReceiverLink& rx = receivers_[link];
  if (frame.seq < rx.rx_next || rx.reorder.contains(frame.seq)) {
    // Duplicate (link-level or retransmit after a lost ack): suppress, but
    // re-ack — the sender may still be waiting on the ack that died.
    ++stats_.dups_suppressed;
    send_ack(link, rx.rx_next);
    return;
  }
  if (frame.seq == rx.rx_next) {
    ++rx.rx_next;
    hand_up(std::move(frame));
    for (auto it = rx.reorder.begin();
         it != rx.reorder.end() && it->first == rx.rx_next;
         it = rx.reorder.erase(it)) {
      ++rx.rx_next;
      hand_up(std::move(it->second));
    }
    if (rx.stall_open && rx.reorder.empty()) {
      rx.stall_open = false;
      const std::int64_t now = sim_->now().to_nanos();
      obs::Tracer* tracer = sim_->tracer();
      if (tracer != nullptr && now > rx.stall_start_ns) {
        tracer->span(obs::EventKind::kRetransmitWait, static_cast<std::uint16_t>(link.second),
                     rx.stall_start_ns, now, 0, static_cast<std::uint32_t>(link.first));
      }
    }
  } else {
    if (!rx.stall_open) {
      rx.stall_open = true;
      rx.stall_start_ns = sim_->now().to_nanos();
    }
    rx.reorder.emplace(frame.seq, std::move(frame));
  }
  send_ack(link, rx.rx_next);
}

void Transport::handle_ack(const Frame& frame) {
  const LinkKey link{frame.src, frame.dst};
  const auto it = senders_.find(link);
  if (it == senders_.end()) return;
  SenderLink& tx = it->second;
  bool advanced = false;
  while (!tx.unacked.empty() && tx.unacked.begin()->first < frame.ack) {
    tx.unacked.erase(tx.unacked.begin());
    advanced = true;
  }
  if (!advanced) return;
  if (tx.rto_timer.pending()) ++stats_.rto_cancelled;
  tx.rto_timer.cancel();
  tx.rto = kRtoInitial;
  if (!tx.unacked.empty()) arm_rto(link, tx);
}

void Transport::send_ack(const LinkKey& link, std::uint64_t ack) {
  Frame frame;
  frame.kind = FrameKind::kAck;
  frame.src = link.first;
  frame.dst = link.second;
  frame.ack = ack;
  frame.checksum = checksum_of(frame);
  transmit_frame(frame);
}

void Transport::hand_up(Frame frame) {
  if (frame.kind == FrameKind::kApp) {
    if (deliver_app_) deliver_app_(std::move(frame.env));
  } else {
    if (deliver_control_) deliver_control_(frame.dst, frame.msg);
  }
}

void Transport::arm_rto(const LinkKey& link, SenderLink& tx) {
  ++stats_.rto_armed;
  tx.rto_timer = sim_->schedule_after(tx.rto, [this, link] { on_rto(link); });
}

void Transport::on_rto(const LinkKey& link) {
  SenderLink& tx = senders_[link];
  if (tx.unacked.empty()) return;
  for (const auto& [seq, frame] : tx.unacked) {
    ++stats_.retransmits;
    if (obs::Tracer* tracer = sim_->tracer()) {
      tracer->instant(obs::EventKind::kRetransmit, static_cast<std::uint16_t>(link.first),
                      sim_->now().to_nanos(), seq, static_cast<std::uint32_t>(link.second));
    }
    transmit_frame(frame);
  }
  tx.rto = std::min(tx.rto * 2, kRtoCap);
  arm_rto(link, tx);
}

}  // namespace chk::chklib
