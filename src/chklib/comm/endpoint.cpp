#include "chklib/comm/endpoint.hpp"

#include <cstring>
#include <utility>

#include "chklib/comm/comm_system.hpp"

namespace chk::chklib {

Endpoint::Endpoint(CommSystem& system, Rank rank, xplorer::Node& node, des::Simulator& sim)
    : system_(&system), rank_(rank), node_(&node), sim_(&sim) {}

void Endpoint::send(des::Process& self, Rank dst, int tag, std::vector<std::byte> payload) {
  if (tracer_) {
    tracer_->instant(obs::EventKind::kMsgSend, static_cast<std::uint16_t>(rank_),
                     sim_->now().to_nanos(), payload.size(), static_cast<std::uint32_t>(dst));
  }
  Envelope env;
  env.src = rank_;
  env.dst = dst;
  env.tag = tag;
  env.seq = next_seq(dst);
  env.payload = std::move(payload);
  system_->transmit(self, std::move(env));
}

std::optional<Envelope> Endpoint::take_match(int src, int tag) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (matches(*it, src, tag)) {
      Envelope env = std::move(*it);
      pending_.erase(it);
      return env;
    }
  }
  return std::nullopt;
}

const Envelope* Endpoint::peek_match(int src, int tag) const {
  for (const auto& env : pending_) {
    if (matches(env, src, tag)) return &env;
  }
  return nullptr;
}

Envelope Endpoint::consume_match(des::Process& self, int src, int tag,
                                 std::int64_t wait_start_ns) {
  // Precondition: peek_match(src, tag) != nullptr.
  if (tracer_ && wait_start_ns >= 0) {
    tracer_->span(obs::EventKind::kRecvWait, static_cast<std::uint16_t>(rank_),
                  wait_start_ns, sim_->now().to_nanos());
  }
  // Charge the receive-side CPU cost while the message is still in the
  // pending queue: a checkpoint captured during this window must see
  // the message as channel state (it has not reached the application).
  node_->message_overhead(self, peek_match(src, tag)->payload.size());
  // From here to the return there is no suspension point: removal,
  // consumption bookkeeping and delivery hooks are atomic with respect
  // to checkpoint captures (which only happen at application-declared
  // safe points).
  auto env = take_match(src, tag);
  note_consumed(env->src, env->seq);
  if (auto* observer = system_->observer()) observer->on_consume(rank_, *env);
  if (auto* hooks = system_->hooks()) hooks->on_deliver(self, rank_, *env);
  ++messages_received_;
  return std::move(*env);
}

Envelope Endpoint::recv(des::Process& self, int src, int tag) {
  std::int64_t wait_start_ns = -1;  // first suspension instant, if any
  for (;;) {
    if (peek_match(src, tag) != nullptr) {
      return consume_match(self, src, tag, wait_start_ns);
    }
    if (wait_start_ns < 0) wait_start_ns = sim_->now().to_nanos();
    recv_waiters_.park(self);
  }
}

std::optional<Envelope> Endpoint::recv_until(des::Process& self, des::TimePoint deadline,
                                             int src, int tag) {
  std::int64_t wait_start_ns = -1;
  for (;;) {
    if (peek_match(src, tag) != nullptr) {
      return consume_match(self, src, tag, wait_start_ns);
    }
    if (sim_->now() >= deadline) {
      if (tracer_ && wait_start_ns >= 0) {
        tracer_->span(obs::EventKind::kRecvWait, static_cast<std::uint16_t>(rank_),
                      wait_start_ns, sim_->now().to_nanos());
      }
      return std::nullopt;
    }
    if (wait_start_ns < 0) wait_start_ns = sim_->now().to_nanos();
    // The deadline wakes this process only if it is still parked here: a
    // kill unhooks it first, and the fired timer's wake then finds nothing.
    des::EventHandle timer =
        sim_->schedule_at(deadline, [this, &self] { recv_waiters_.wake(self); });
    recv_waiters_.park(self);
    timer.cancel();
  }
}

bool Endpoint::probe(int src, int tag) const {
  for (const auto& env : pending_) {
    if (matches(env, src, tag)) return true;
  }
  return false;
}

void Endpoint::deliver(Envelope env) {
  if (auto* observer = system_->observer()) observer->on_endpoint_arrival(env);
  if (already_consumed(env.src, env.seq)) {
    // A re-executed sender regenerated a message whose consumption is
    // already part of our restored state (an orphan of the recovery cut).
    ++duplicates_dropped_;
    if (auto* observer = system_->observer()) observer->on_duplicate_dropped(env);
    return;
  }
  if (auto* hooks = system_->hooks()) hooks->on_arrival(rank_, env);
  pending_.push_back(std::move(env));
  recv_waiters_.wake_all();
}

std::vector<Envelope> Endpoint::pending_snapshot() const {
  return {pending_.begin(), pending_.end()};
}

void Endpoint::flush() {
  pending_.clear();
  control_.clear();
  if (auto* observer = system_->observer()) observer->on_flush(rank_);
}

void Endpoint::reinject(std::vector<Envelope> envelopes) {
  if (auto* observer = system_->observer()) observer->on_reinject(rank_, envelopes);
  // Restored channel-log messages precede anything the re-execution sends.
  pending_.insert(pending_.begin(), std::make_move_iterator(envelopes.begin()),
                  std::make_move_iterator(envelopes.end()));
  recv_waiters_.wake_all();
}

void Endpoint::reset_seq() noexcept {
  send_seq_.clear();
  consumed_upto_.clear();
  consumed_extra_.clear();
}

void Endpoint::note_consumed(Rank src, std::uint64_t seq) {
  std::uint64_t& upto = consumed_upto_[src];
  if (seq == upto) {
    ++upto;
    // absorb any out-of-order consumptions that now form a prefix
    auto& extra = consumed_extra_[src];
    while (extra.erase(upto) > 0) ++upto;
  } else if (seq > upto) {
    consumed_extra_[src].insert(seq);
  }
  // seq < upto: duplicate consumption cannot happen (deliver() dedups).
}

bool Endpoint::already_consumed(Rank src, std::uint64_t seq) const {
  if (const auto it = consumed_upto_.find(src); it != consumed_upto_.end()) {
    if (seq < it->second) return true;
  }
  if (const auto it = consumed_extra_.find(src); it != consumed_extra_.end()) {
    return it->second.contains(seq);
  }
  return false;
}

ChannelSeqState Endpoint::seq_snapshot() const {
  ChannelSeqState state;
  for (const auto& [rank, seq] : send_seq_) state.send_next.push_back({rank, seq});
  for (const auto& [rank, seq] : consumed_upto_) state.consumed_upto.push_back({rank, seq});
  for (const auto& [rank, extras] : consumed_extra_) {
    for (std::uint64_t seq : extras) state.consumed_extra.push_back({rank, seq});
  }
  return state;
}

void Endpoint::restore_seq(const ChannelSeqState& state) {
  reset_seq();
  for (const auto& [rank, seq] : state.send_next) send_seq_[rank] = seq;
  for (const auto& [rank, seq] : state.consumed_upto) consumed_upto_[rank] = seq;
  for (const auto& [rank, seq] : state.consumed_extra) consumed_extra_[rank].insert(seq);
  if (auto* observer = system_->observer()) observer->on_restore_seq(rank_, state);
}

// ---------------------------------------------------------------------------
// Collectives: binomial trees over point-to-point messages. `vrank` is the
// rank rotated so the root maps to 0; tree edges connect vrank r to
// r +/- 2^k exactly as in the classic MPICH binomial algorithms.
// ---------------------------------------------------------------------------

namespace {

Rank physical(std::size_t vrank, Rank root, std::size_t n) {
  return static_cast<Rank>((vrank + root) % n);
}

std::size_t virtual_of(Rank rank, Rank root, std::size_t n) {
  return (rank + n - root) % n;
}

std::vector<std::byte> pack_doubles(const std::vector<double>& values) {
  std::vector<std::byte> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

std::vector<double> unpack_doubles(const std::vector<std::byte>& bytes) {
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

}  // namespace

void Endpoint::barrier(des::Process& self) {
  const std::size_t n = system_->num_ranks();
  if (n <= 1) return;
  const std::size_t vrank = rank_;  // barrier is always rooted at 0
  // Gather phase (binomial fan-in to vrank 0).
  for (std::size_t mask = 1; mask < n; mask <<= 1) {
    if ((vrank & mask) != 0) {
      send(self, static_cast<Rank>(vrank - mask), kTagBarrierUp, {});
      break;
    }
    if (vrank + mask < n) {
      (void)recv(self, static_cast<int>(vrank + mask), kTagBarrierUp);
    }
  }
  // Release phase (binomial fan-out from vrank 0).
  std::size_t mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      (void)recv(self, static_cast<int>(vrank - mask), kTagBarrierDown);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & mask) == 0 && vrank + mask < n) {
      send(self, static_cast<Rank>(vrank + mask), kTagBarrierDown, {});
    }
    mask >>= 1;
  }
}

std::vector<std::byte> Endpoint::broadcast(des::Process& self, Rank root,
                                           std::vector<std::byte> data) {
  const std::size_t n = system_->num_ranks();
  if (n <= 1) return data;
  const std::size_t vrank = virtual_of(rank_, root, n);
  std::size_t mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      data = recv(self, static_cast<int>(physical(vrank - mask, root, n)), kTagBcast).payload;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & mask) == 0 && vrank + mask < n) {
      send(self, physical(vrank + mask, root, n), kTagBcast, data);
    }
    mask >>= 1;
  }
  return data;
}

namespace {

/// Element-wise binomial fan-in with an arbitrary combiner.
template <typename Combine>
std::vector<double> reduce_vec(Endpoint& ep, des::Process& self, std::size_t n, Rank rank,
                               Rank root, std::vector<double> values, Combine&& combine) {
  if (n <= 1) return values;
  const std::size_t vrank = virtual_of(rank, root, n);
  for (std::size_t mask = 1; mask < n; mask <<= 1) {
    if ((vrank & mask) != 0) {
      ep.send(self, physical(vrank - mask, root, n), Endpoint::kTagReduce,
              pack_doubles(values));
      break;
    }
    if (vrank + mask < n) {
      const auto partial = unpack_doubles(
          ep.recv(self, static_cast<int>(physical(vrank + mask, root, n)),
                  Endpoint::kTagReduce)
              .payload);
      for (std::size_t i = 0; i < values.size() && i < partial.size(); ++i) {
        values[i] = combine(values[i], partial[i]);
      }
    }
  }
  return values;
}

}  // namespace

std::vector<double> Endpoint::reduce_sum_vec(des::Process& self, Rank root,
                                             std::vector<double> values) {
  return reduce_vec(*this, self, system_->num_ranks(), rank_, root, std::move(values),
                    [](double a, double b) { return a + b; });
}

double Endpoint::reduce_sum(des::Process& self, Rank root, double value) {
  return reduce_sum_vec(self, root, {value})[0];
}

double Endpoint::reduce_min(des::Process& self, Rank root, double value) {
  return reduce_vec(*this, self, system_->num_ranks(), rank_, root, {value},
                    [](double a, double b) { return a < b ? a : b; })[0];
}

double Endpoint::allreduce_sum(des::Process& self, double value) {
  const double total = reduce_sum(self, 0, value);
  auto bytes = broadcast(self, 0, rank_ == 0 ? pack_doubles({total}) : std::vector<std::byte>{});
  return unpack_doubles(bytes)[0];
}

double Endpoint::allreduce_min(des::Process& self, double value) {
  const double best = reduce_min(self, 0, value);
  auto bytes = broadcast(self, 0, rank_ == 0 ? pack_doubles({best}) : std::vector<std::byte>{});
  return unpack_doubles(bytes)[0];
}

}  // namespace chk::chklib
