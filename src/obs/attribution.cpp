#include "obs/attribution.hpp"

#include <algorithm>

namespace chk::obs {

namespace {

/// Exact per-rank accumulators in nanoseconds; converted to seconds once.
struct NsBuckets {
  std::int64_t window = 0;
  std::int64_t mem_copy = 0;
  std::int64_t stable_write = 0;
  std::int64_t contention = 0;
  std::int64_t logging = 0;
  std::int64_t interference = 0;
  std::int64_t recovery = 0;
  std::int64_t retransmit_wait = 0;
  std::int64_t retry_wait = 0;
  std::int64_t svc_queue_wait = 0;
  std::int64_t membership_wait = 0;
};

constexpr double to_s(std::int64_t ns) noexcept { return static_cast<double>(ns) * 1e-9; }

}  // namespace

AttributionReport attribute(const Trace& trace, std::size_t num_ranks) {
  std::vector<NsBuckets> acc(num_ranks);
  // `arg == 1` on stable/log writes marks the application-blocking context
  // (set by the protocols through the checkpoint store); background writer
  // and daemon writes carry arg == 0 and stay out of the blocked windows.
  for (const Event& e : trace.events) {
    if (e.rank >= num_ranks) continue;
    NsBuckets& b = acc[e.rank];
    switch (e.kind) {
      case EventKind::kCkptWindow:
        b.window += e.dur_ns;
        break;
      case EventKind::kMemCopy:
        b.mem_copy += e.dur_ns;
        break;
      case EventKind::kStableWrite:
        if (e.arg == 1) {
          const auto pure = std::min<std::int64_t>(static_cast<std::int64_t>(e.aux), e.dur_ns);
          b.stable_write += pure;
          b.contention += e.dur_ns - pure;
        }
        break;
      case EventKind::kLogWrite:
        if (e.arg == 1) b.logging += e.dur_ns;
        break;
      case EventKind::kRecoveryRead:
        b.recovery += e.dur_ns;
        break;
      case EventKind::kRetransmitWait:
        b.retransmit_wait += e.dur_ns;
        break;
      case EventKind::kStorageRetryWait:
        if (e.arg == 1) b.retry_wait += e.dur_ns;
        break;
      case EventKind::kSvcQueueWait:
        b.svc_queue_wait += e.dur_ns;
        break;
      case EventKind::kMembershipWait:
        b.membership_wait += e.dur_ns;
        break;
      case EventKind::kInterference:
        b.interference += static_cast<std::int64_t>(e.aux);
        break;
      default:
        break;
    }
  }

  AttributionReport report;
  report.ranks.resize(num_ranks);
  for (std::size_t r = 0; r < num_ranks; ++r) {
    const NsBuckets& b = acc[r];
    RankBuckets& out = report.ranks[r];
    // The window remainder is protocol synchronization: token/grant waits
    // and any in-window time not spent copying or writing.
    const std::int64_t accounted =
        b.mem_copy + b.stable_write + b.contention + b.logging + b.retry_wait;
    out.sync_wait_s = to_s(std::max<std::int64_t>(0, b.window - accounted));
    out.mem_copy_s = to_s(b.mem_copy);
    out.stable_write_s = to_s(b.stable_write);
    out.storage_contention_s = to_s(b.contention);
    out.logging_s = to_s(b.logging);
    out.interference_s = to_s(b.interference);
    out.recovery_s = to_s(b.recovery);
    out.retransmit_wait_s = to_s(b.retransmit_wait);
    out.storage_retry_wait_s = to_s(b.retry_wait);
    out.svc_queue_wait_s = to_s(b.svc_queue_wait);
    out.membership_wait_s = to_s(b.membership_wait);
    out.blocked_total_s = to_s(b.window);

    report.total.sync_wait_s += out.sync_wait_s;
    report.total.mem_copy_s += out.mem_copy_s;
    report.total.stable_write_s += out.stable_write_s;
    report.total.storage_contention_s += out.storage_contention_s;
    report.total.logging_s += out.logging_s;
    report.total.interference_s += out.interference_s;
    report.total.recovery_s += out.recovery_s;
    report.total.retransmit_wait_s += out.retransmit_wait_s;
    report.total.storage_retry_wait_s += out.storage_retry_wait_s;
    report.total.svc_queue_wait_s += out.svc_queue_wait_s;
    report.total.membership_wait_s += out.membership_wait_s;
    report.total.blocked_total_s += out.blocked_total_s;
  }
  return report;
}

}  // namespace chk::obs
