// Per-rank communication endpoint: the CHK-LIB "MPI-like programming
// interface" of the paper, with reliable FIFO channels.
//
// Point-to-point: send is buffered-asynchronous (the sender pays a CPU
// staging cost, then the message travels through the modelled network);
// recv blocks until a matching message is available. Collectives (barrier,
// broadcast, reduce, allreduce, gather) are built from point-to-point
// messages over binomial trees, so their synchronization cost is fully
// modelled network traffic.
//
// The endpoint also carries the protocol control plane: a separate mailbox
// of small ControlMsg records consumed by the per-node protocol daemon.
//
// Channel sequence state: every message carries a per-(src,dst) sequence
// number; the endpoint tracks which sequence numbers it has *consumed*
// (handed to the application). Checkpoints save this state; after a
// rollback, re-executing senders regenerate post-cut messages with their
// original sequence numbers (the send counters are restored too), and
// arrivals whose sequence the restored state already consumed are dropped
// as duplicates. This is what makes a cut taken at an application-declared
// safe point globally consistent without blocking the senders.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "chklib/comm/envelope.hpp"
#include "chklib/comm/hooks.hpp"
#include "des/process.hpp"
#include "des/sync.hpp"
#include "xplorer/node.hpp"

namespace chk::chklib {

class CommSystem;

/// Serializable per-channel sequence state (saved inside checkpoints).
struct ChannelSeqState {
  struct RankSeq {
    std::uint64_t rank = 0;
    std::uint64_t seq = 0;
  };
  std::vector<RankSeq> send_next;      ///< next outgoing seq per destination
  std::vector<RankSeq> consumed_upto;  ///< per source: all seqs below are consumed
  std::vector<RankSeq> consumed_extra; ///< out-of-prefix consumed (src, seq) pairs
};

class Endpoint {
 public:
  Endpoint(CommSystem& system, Rank rank, xplorer::Node& node, des::Simulator& sim);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] xplorer::Node& node() noexcept { return *node_; }

  // ---- application API (call from the rank's application process) --------
  void send(des::Process& self, Rank dst, int tag, std::vector<std::byte> payload);
  [[nodiscard]] Envelope recv(des::Process& self, int src = kAnySource, int tag = kAnyTag);
  /// recv with a deadline: blocks until a matching message is consumable
  /// or the simulation clock reaches `deadline`, whichever comes first
  /// (nullopt on timeout). The event-driven primitive the svc workload's
  /// serve loop needs — waiting for "next request or next scheduled
  /// arrival" without a polling quantum contaminating latency tails.
  [[nodiscard]] std::optional<Envelope> recv_until(des::Process& self,
                                                   des::TimePoint deadline,
                                                   int src = kAnySource,
                                                   int tag = kAnyTag);
  [[nodiscard]] bool probe(int src, int tag) const;

  void barrier(des::Process& self);
  /// Root's data is distributed to everyone; returns the received data.
  std::vector<std::byte> broadcast(des::Process& self, Rank root, std::vector<std::byte> data);
  /// Sum-reduction to root; returns the reduced value at root, `value` elsewhere.
  double reduce_sum(des::Process& self, Rank root, double value);
  double allreduce_sum(des::Process& self, double value);
  double reduce_min(des::Process& self, Rank root, double value);
  double allreduce_min(des::Process& self, double value);
  /// Element-wise sum reduction of equal-length vectors to root.
  std::vector<double> reduce_sum_vec(des::Process& self, Rank root, std::vector<double> values);

  // ---- control plane ------------------------------------------------------
  [[nodiscard]] ControlMsg recv_control(des::Process& self) { return control_.recv(self); }
  [[nodiscard]] des::SimMailbox<ControlMsg>& control_mailbox() noexcept { return control_; }

  // ---- plumbing used by CommSystem / protocols / recovery -----------------
  /// Arrival of an application envelope (kernel context).
  void deliver(Envelope env);
  /// Snapshot of arrived-but-unconsumed messages (channel state at capture).
  [[nodiscard]] std::vector<Envelope> pending_snapshot() const;
  /// Recovery: drop all pending app + control messages.
  void flush();
  /// Recovery: re-inject a restored channel log ahead of new arrivals.
  void reinject(std::vector<Envelope> envelopes);

  /// Next FIFO sequence number for the channel to `dst`.
  std::uint64_t next_seq(Rank dst) noexcept { return send_seq_[dst]++; }
  void reset_seq() noexcept;

  /// Sequence state for checkpoint images / rollback restore.
  [[nodiscard]] ChannelSeqState seq_snapshot() const;
  void restore_seq(const ChannelSeqState& state);
  /// True if the (restored) consumption state already covers this message.
  [[nodiscard]] bool already_consumed(Rank src, std::uint64_t seq) const;

  [[nodiscard]] std::uint64_t messages_received() const noexcept { return messages_received_; }
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept { return duplicates_dropped_; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_.size(); }

  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  // Reserved (negative) tags used by the collectives; applications must
  // use non-negative tags.
  static constexpr int kTagBarrierUp = -2;
  static constexpr int kTagBarrierDown = -3;
  static constexpr int kTagBcast = -4;
  static constexpr int kTagReduce = -5;

 private:
  friend class CommSystem;
  static bool matches(const Envelope& env, int src, int tag) noexcept {
    return (src == kAnySource || env.src == static_cast<Rank>(src)) &&
           (tag == kAnyTag || env.tag == tag);
  }
  std::optional<Envelope> take_match(int src, int tag);
  [[nodiscard]] const Envelope* peek_match(int src, int tag) const;
  /// Shared tail of recv/recv_until: charge receive CPU cost, remove the
  /// (guaranteed present) match and run the consumption bookkeeping.
  Envelope consume_match(des::Process& self, int src, int tag,
                         std::int64_t wait_start_ns);
  void note_consumed(Rank src, std::uint64_t seq);

  CommSystem* system_;
  Rank rank_;
  xplorer::Node* node_;
  des::Simulator* sim_;
  obs::Tracer* tracer_ = nullptr;
  std::deque<Envelope> pending_;
  des::WaitQueue recv_waiters_;
  des::SimMailbox<ControlMsg> control_;
  std::map<Rank, std::uint64_t> send_seq_;
  std::map<Rank, std::uint64_t> consumed_upto_;
  std::map<Rank, std::set<std::uint64_t>> consumed_extra_;
  std::uint64_t messages_received_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace chk::chklib
