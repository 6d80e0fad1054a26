// Checkpoint image: everything one process stores per checkpoint.
//
// Coordinated checkpoints carry a channel log (in-transit messages of the
// consistent cut, Chandy-Lamport style). Independent checkpoints instead
// carry the send/receive records of the preceding interval, from which the
// recovery-line algorithms build the rollback-dependency structure.
#pragma once

#include <cstdint>
#include <vector>

#include "chklib/comm/endpoint.hpp"
#include "chklib/comm/envelope.hpp"
#include "util/serialize.hpp"

namespace chk::chklib {

/// A message sent during interval `interval` (recorded at the sender).
struct SendRecord {
  Rank dst = 0;
  std::uint64_t seq = 0;
  std::uint32_t interval = 0;
  /// Always zero. Images store records as raw bytes, so the tail padding
  /// gets a name and a value; unnamed, those 4 bytes would be indeterminate.
  std::uint32_t unused = 0;
};

/// A message delivered during interval `recv_interval` that was sent by
/// `src` during its interval `send_interval` (recorded at the receiver).
struct RecvRecord {
  Rank src = 0;
  std::uint64_t seq = 0;
  std::uint32_t send_interval = 0;
  std::uint32_t recv_interval = 0;
};

/// Channel log: stored separately from the image because late (in-transit)
/// messages keep arriving after the state has been written; the log is
/// finalized when all channel markers have been received.
struct ChannelLog {
  std::vector<Envelope> messages;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  [[nodiscard]] static ChannelLog deserialize(std::span<const std::byte> blob);
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& env : messages) total += env.payload.size();
    return total;
  }
};

struct CheckpointImage {
  Rank rank = 0;
  std::uint32_t index = 0;        ///< epoch (coordinated) / interval count (independent)
  std::int64_t captured_at_ns = 0;
  /// 0: `state` is a full CheckpointRegistry::capture blob. Non-zero:
  /// `state` is a serialized StateDelta against the checkpoint with this
  /// index (incremental checkpointing; recovery applies the chain).
  std::uint32_t delta_base = 0;
  std::vector<std::byte> state;   ///< full blob or serialized StateDelta
  ChannelSeqState seq;            ///< channel counters at the cut (for dedup/replay)
  std::vector<SendRecord> sends;  ///< independent: interval send records
  std::vector<RecvRecord> recvs;  ///< independent: interval receive records
  /// Independent + message logging: full payloads of the interval's sends
  /// (pessimistic sender-based logging — the paper's §1 remedy for the
  /// domino effect). Recovery replays the ones the receiver's restored
  /// state has not consumed, which makes the orphan-free recovery line
  /// executable without rollback propagation.
  ChannelLog sent_log;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  [[nodiscard]] static CheckpointImage deserialize(std::span<const std::byte> blob);
  /// Whether `blob` has an intact image envelope: the magic, and a checksum
  /// that matches the body, nested sent log included. Copies nothing out;
  /// for a blob serialize() wrote, true exactly when deserialize() succeeds.
  [[nodiscard]] static bool verify(std::span<const std::byte> blob);
};


}  // namespace chk::chklib
