// Structured trace events.
//
// One Event is a fixed-size binary record: a timestamp, an optional
// duration (spans), the emitting rank, a kind tag and two payload words.
// Records are raw int64 nanoseconds (not des::Duration) so the obs layer
// depends only on util/ and can sit below the DES kernel in the library
// chain. Event streams are deterministic: emission happens in simulated
// event order on the kernel's single active thread, so two runs with the
// same config and seed serialize byte-identically.
#pragma once

#include <cstdint>
#include <string_view>

namespace chk::obs {

/// Rank value for events not attributable to a rank (kernel, metadata).
inline constexpr std::uint16_t kMetaRank = 0xFFFF;

enum class EventKind : std::uint16_t {
  // ---- spans (dur_ns > 0 meaningful) --------------------------------------
  kCkptWindow = 0,   ///< application blocked for checkpoint work; arg = epoch
  kMemCopy,          ///< main-memory checkpoint copy; aux = bytes
  kStableWrite,      ///< stable-storage write; aux = uncontended (pure) ns
  kLogWrite,         ///< channel/message-log write; aux = pure ns
  kCommitWrite,      ///< coordinator's global commit record write
  kRecoveryRead,     ///< stable-storage read during recovery
  kInterference,     ///< compute slowed by background I/O; aux = extra ns
  kRecvWait,         ///< receive blocked waiting for a matching message
  kRetransmitWait,   ///< transport reorder gap: waiting on a retransmit
  kStorageRetryWait, ///< backoff sleep between storage retry attempts; arg = context
  kSvcQueueWait,     ///< svc request queue wait: scheduled arrival -> service start
  kMembershipWait,   ///< rank excluded from the membership view (crashed or fenced)
  // ---- instants (dur_ns == 0) ---------------------------------------------
  kMsgSend,          ///< application send; aux = payload bytes, arg = dst
  kControlSend,      ///< protocol control message; arg = dst
  kRoundBegin,       ///< coordinated round start; arg = epoch
  kCommit,           ///< global commit broadcast; arg = epoch
  kTokenPass,        ///< stagger token received; arg = epoch/index
  kProcSpawn,        ///< DES process spawned; aux = process id
  kProcExit,         ///< DES process finished; aux = process id
  kFailure,          ///< injected node failure
  kRecoveryDone,     ///< recovery complete, applications restarted
  kRetransmit,       ///< transport RTO expiry re-sent a frame; arg = dst
  kRoundAbort,       ///< coordinator round watchdog aborted a round; arg = epoch
  kTokenRegen,       ///< stagger-token watchdog regenerated the token; arg = next rank
  kMaxKind,          // sentinel
};

[[nodiscard]] constexpr bool is_span(EventKind kind) noexcept {
  return kind < EventKind::kMsgSend;
}

[[nodiscard]] constexpr std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kCkptWindow: return "ckpt_window";
    case EventKind::kMemCopy: return "mem_copy";
    case EventKind::kStableWrite: return "stable_write";
    case EventKind::kLogWrite: return "log_write";
    case EventKind::kCommitWrite: return "commit_write";
    case EventKind::kRecoveryRead: return "recovery_read";
    case EventKind::kInterference: return "interference";
    case EventKind::kRecvWait: return "recv_wait";
    case EventKind::kRetransmitWait: return "retransmit_wait";
    case EventKind::kStorageRetryWait: return "storage_retry_wait";
    case EventKind::kSvcQueueWait: return "svc_queue_wait";
    case EventKind::kMembershipWait: return "membership_wait";
    case EventKind::kMsgSend: return "msg_send";
    case EventKind::kControlSend: return "control_send";
    case EventKind::kRoundBegin: return "round_begin";
    case EventKind::kCommit: return "commit";
    case EventKind::kTokenPass: return "token_pass";
    case EventKind::kProcSpawn: return "proc_spawn";
    case EventKind::kProcExit: return "proc_exit";
    case EventKind::kFailure: return "failure";
    case EventKind::kRecoveryDone: return "recovery_done";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kRoundAbort: return "round_abort";
    case EventKind::kTokenRegen: return "token_regen";
    case EventKind::kMaxKind: break;
  }
  return "?";
}

struct Event {
  std::int64_t t_ns = 0;    ///< start time (simulated, ns since origin)
  std::int64_t dur_ns = 0;  ///< span duration; 0 for instants
  std::uint64_t aux = 0;    ///< kind-specific payload (bytes, pure ns, ...)
  EventKind kind = EventKind::kMaxKind;
  std::uint16_t rank = kMetaRank;
  std::uint32_t arg = 0;    ///< kind-specific small payload (epoch, dst, ...)

  friend bool operator==(const Event&, const Event&) = default;
};

static_assert(sizeof(Event) == 32, "Event must stay a fixed 32-byte record");

}  // namespace chk::obs
