#include "chklib/verify/monitor.hpp"

#include <algorithm>
#include <utility>

#include "util/format.hpp"

namespace chk::chklib::verify {

Monitor::Monitor(Runtime& runtime, Scheme scheme, Policy policy)
    : rt_(&runtime),
      check_quiescence_(is_coordinated(scheme)),
      check_stagger_(is_staggered(scheme)),
      sink_(runtime.sim(), policy) {}

Monitor::~Monitor() { uninstall(); }

void Monitor::install() {
  rt_->comm().set_monitor(this);
  installed_ = true;
}

void Monitor::uninstall() {
  if (!installed_) return;
  if (rt_->comm().monitor() == this) rt_->comm().set_monitor(nullptr);
  installed_ = false;
}

void Monitor::on_transmit(const Envelope& env) {
  sink_.note_check();
  ChannelState& ch = channel(env.src, env.dst);
  if (!ch.tx_seen) {
    ch.tx_seen = true;
    ch.tx_base = env.seq;
    ch.tx_next = env.seq;
  }
  if (env.seq != ch.tx_next) {
    sink_.report("fifo", env.src,
                 util::format("channel {}->{}: transmitted seq {} but expected {} "
                              "(sends must be dense and monotone)",
                              env.src, env.dst, env.seq, ch.tx_next));
  }
  ch.tx_next = env.seq + 1;
  ++ch.tx_count;

  sink_.note_check();
  auto [it, inserted] = last_tx_epoch_.try_emplace(env.src, env.epoch);
  if (!inserted) {
    if (env.epoch < it->second) {
      sink_.report("epoch", env.src,
                   util::format("sender {} stamped epoch {} after already sending epoch {}",
                                env.src, env.epoch, it->second));
    }
    it->second = std::max(it->second, env.epoch);
  }
}

void Monitor::on_endpoint_arrival(const Envelope& env) {
  ChannelState& ch = channel(env.src, env.dst);
  sink_.note_check();
  if (ch.tx_seen && env.seq >= ch.tx_next) {
    sink_.report("fifo", env.dst,
                 util::format("channel {}->{}: seq {} arrived but only seqs below {} "
                              "were ever transmitted",
                              env.src, env.dst, env.seq, ch.tx_next));
  }
  // Within an incarnation nothing is dropped and FIFO order holds, so
  // the arrival stream must replay the transmission stream exactly.
  if (ch.rx_seen || ch.tx_seen) {
    const std::uint64_t expected = ch.rx_seen ? ch.rx_next : ch.tx_base;
    if (env.seq != expected) {
      sink_.report(
          "fifo", env.dst,
          util::format("channel {}->{}: seq {} arrived but expected {} ({})", env.src,
                       env.dst, env.seq, expected,
                       env.seq > expected ? "message lost" : "duplicated or reordered"));
    }
  }
  ch.rx_seen = true;
  ch.rx_next = env.seq + 1;
  ++ch.rx_count;

  if (check_quiescence_) {
    sink_.note_check();
    if (ch.marker_epoch > 0 && env.epoch < ch.marker_epoch) {
      sink_.report("quiescence", env.dst,
                   util::format("channel {}->{}: pre-epoch message (epoch {}, seq {}) "
                                "arrived after the channel marker for epoch {} — "
                                "a message leaked across the global checkpoint",
                                env.src, env.dst, env.epoch, env.seq, ch.marker_epoch));
    }
  }
}

void Monitor::on_consume(Rank dst, const Envelope& env) {
  sink_.note_check();
  ConsumeState& cs = consumed_[{dst, env.src}];
  if (env.seq < cs.upto || cs.extra.contains(env.seq)) {
    sink_.report("consume", dst,
                 util::format("channel {}->{}: seq {} consumed twice", env.src, dst,
                              env.seq));
  } else if (env.seq == cs.upto) {
    ++cs.upto;
    while (cs.extra.erase(cs.upto) > 0) ++cs.upto;
  } else {
    cs.extra.insert(env.seq);
  }
}

void Monitor::on_control_delivered(Rank dst, const ControlMsg& msg) {
  if (check_quiescence_ && msg.kind == ControlKind::kChannelMarker) {
    ChannelState& ch = channel(msg.src, dst);
    ch.marker_epoch = std::max(ch.marker_epoch, msg.epoch);
  }
  if (rt_->comm().membership() == nullptr) return;
  const auto n = static_cast<std::uint64_t>(rt_->num_ranks());
  switch (msg.kind) {
    case ControlKind::kViewChange: {
      sink_.note_check();
      if (msg.view % n != msg.src) {
        sink_.report("membership", msg.src,
                     util::format("view {} proposed by rank {} but encodes "
                                  "coordinator {} — a view must elect its proposer",
                                  msg.view, msg.src, msg.view % n));
      }
      const auto [it, inserted] = view_members_.try_emplace(msg.view, msg.members);
      if (!inserted && it->second != msg.members) {
        sink_.report("membership", msg.src,
                     util::format("view {} announced with member set {:#x} after "
                                  "{:#x} — one view id, two member sets",
                                  msg.view, msg.members, it->second));
      }
      break;
    }
    case ControlKind::kCkptRequest: {
      sink_.note_check();
      if (msg.view % n != msg.src) {
        sink_.report("membership", msg.src,
                     util::format("round {} initiated by rank {} under view {} whose "
                                  "coordinator is {} — two live coordinators in one "
                                  "membership epoch",
                                  msg.epoch, msg.src, msg.view, msg.view % n));
      }
      round_view_[msg.epoch] = msg.view;  // the latest (re-)initiation owns the epoch
      break;
    }
    case ControlKind::kCommit: {
      sink_.note_check();
      if (msg.view % n != msg.src) {
        sink_.report("membership", msg.src,
                     util::format("epoch {} committed by rank {} under view {} whose "
                                  "coordinator is {}",
                                  msg.epoch, msg.src, msg.view, msg.view % n));
      }
      if (const auto it = round_view_.find(msg.epoch);
          it != round_view_.end() && it->second != msg.view) {
        sink_.report("membership", msg.src,
                     util::format("epoch {} initiated under view {} but committed "
                                  "under view {} — a committed round must not span "
                                  "two membership epochs",
                                  msg.epoch, it->second, msg.view));
      }
      break;
    }
    case ControlKind::kCkptAck: {
      sink_.note_check();
      // View 0 (and any view whose announcement the monitor never saw —
      // impossible for adopted views, which are broadcast) means full
      // membership: nothing to reject.
      if (const auto it = view_members_.find(msg.view);
          it != view_members_.end() && ((it->second >> msg.src) & 1u) == 0) {
        sink_.report("membership", msg.src,
                     util::format("rank {} acked epoch {} under view {} it is not a "
                                  "member of — fenced ranks must not contribute to "
                                  "a commit",
                                  msg.src, msg.epoch, msg.view));
      }
      break;
    }
    default:
      break;
  }
}

void Monitor::on_incarnation_bump() {
  // Everything in flight from the old incarnation is dead; sequence
  // counters rewind to the recovery line. All channel expectations reset
  // (on_restore_seq re-seeds the survivors' counters).
  channels_.clear();
  consumed_.clear();
  last_tx_epoch_.clear();
  // Writer processes killed mid-write never report completion.
  active_writes_.clear();
  // Post-recovery rounds restart below the pre-crash epoch numbers; the
  // stale-straggler and regenerated-token exemptions must not leak onto them.
  aborted_epoch_ = 0;
  regen_epochs_.clear();
  // Rounds of the dead incarnation never commit; epoch numbers above the
  // recovery line may be re-initiated (under a newer view) after restart.
  round_view_.clear();
}

void Monitor::on_flush(Rank rank) {
  for (auto it = channels_.begin(); it != channels_.end();) {
    if (it->first.first == rank || it->first.second == rank) {
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = consumed_.begin(); it != consumed_.end();) {
    if (it->first.first == rank) {
      it = consumed_.erase(it);
    } else {
      ++it;
    }
  }
  last_tx_epoch_.erase(rank);
}

void Monitor::on_restore_seq(Rank rank, const ChannelSeqState& state) {
  for (const auto& [dst, seq] : state.send_next) {
    ChannelState& ch = channel(rank, static_cast<Rank>(dst));
    ch.tx_seen = true;
    ch.tx_base = seq;
    ch.tx_next = seq;
    ch.tx_count = 0;
  }
  for (const auto& [src, seq] : state.consumed_upto) {
    consumed_[{rank, static_cast<Rank>(src)}].upto = seq;
  }
  for (const auto& [src, seq] : state.consumed_extra) {
    consumed_[{rank, static_cast<Rank>(src)}].extra.insert(seq);
  }
}

void Monitor::on_round_abort(std::uint32_t epoch) {
  // Writes of the aborted round keep draining at the disk — and its stale
  // stagger token may still start one on a rank the abort hasn't reached
  // yet. Such stragglers legitimately overlap the re-initiated round's
  // first writer; only serialization *within* a round is an invariant.
  aborted_epoch_ = std::max(aborted_epoch_, epoch);
  std::erase_if(active_writes_,
                [epoch](const auto& kv) { return kv.second <= epoch; });
}

void Monitor::on_token_regenerated(std::uint32_t epoch) { regen_epochs_.insert(epoch); }

void Monitor::on_image_write_begin(Rank rank, std::uint32_t index) {
  const bool stale = index <= aborted_epoch_;  // a dead round's straggler
  if (check_stagger_) {
    sink_.note_check();
    // The stagger token admits one writer per ring epoch at a time. A
    // *previous* round's ring may still be draining when the next round
    // starts (buffered schemes commit on capture, not on durability), so
    // only a same-epoch concurrent writer is a protocol violation.
    // ... unless this epoch's token was regenerated: a merely-delayed
    // original means two tokens briefly share the ring, by design.
    if (!stale && !regen_epochs_.contains(index)) {
      for (const auto& [other_rank, other_index] : active_writes_) {
        if (other_index != index) continue;
        sink_.report("stagger", rank,
                     util::format("rank {} started writing checkpoint image {} while "
                                  "rank {} is still writing the same image — the "
                                  "stagger token admits one writer per round",
                                  rank, index, other_rank));
        break;
      }
    }
  }
  if (!stale) active_writes_[rank] = index;
}

void Monitor::on_image_write_end(Rank rank) { active_writes_.erase(rank); }

std::uint64_t Monitor::in_flight() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [key, ch] : channels_) {
    if (ch.tx_count > ch.rx_count) total += ch.tx_count - ch.rx_count;
  }
  return total;
}

}  // namespace chk::chklib::verify
