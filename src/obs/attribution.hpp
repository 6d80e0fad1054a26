// Per-rank overhead attribution.
//
// Folds a trace into the paper-style overhead breakdown: where did each
// rank's checkpoint-induced lost time go? The buckets partition the
// *measurable per-rank overhead* — the checkpoint blocking windows (which
// the protocols account as app_blocked) and the CPU interference of
// background writes:
//
//   blocked window  =  sync_wait + mem_copy + stable_write
//                      + storage_contention + logging
//                      + storage_retry_wait                  (exact, in ns)
//   per-rank total  =  blocked windows + interference
//                      + recovery + retransmit_wait
//
// stable_write is the write's uncontended service time (mesh pipeline +
// host link + disk, empty queues); storage_contention is the rest of the
// observed write duration — queueing behind other nodes' checkpoint
// traffic, the paper's dominant cost. sync_wait is the window remainder:
// token/grant waits and protocol synchronization. End-to-end overhead
// (exec - normal) additionally contains critical-path idle effects that no
// single rank can be charged for; consumers report that difference as
// "unattributed".
#pragma once

#include <cstddef>
#include <vector>

#include "obs/tracer.hpp"

namespace chk::obs {

struct RankBuckets {
  double sync_wait_s = 0;
  double mem_copy_s = 0;
  double stable_write_s = 0;
  double storage_contention_s = 0;
  double logging_s = 0;
  /// Always zero: no attribution source remains. Kept only because
  /// perfbench reads it (ROADMAP item 6).
  double frozen_stall_s = 0;
  double interference_s = 0;
  /// Time this rank spent reading state back from stable storage during
  /// rollback recovery (zero in failure-free runs).
  double recovery_s = 0;
  /// Time this rank's transport receiver sat on a sequence gap waiting for
  /// a retransmission (zero when link faults are off). Outside the blocked
  /// windows: the gap stalls delivery, not the application's checkpoint.
  double retransmit_wait_s = 0;
  /// Backoff time between storage retry attempts inside app-blocking
  /// checkpoint windows (zero when storage faults are off). Background-
  /// writer retries stay out, like background writes themselves.
  double storage_retry_wait_s = 0;
  /// Request-side queue wait in the svc workload: scheduled (open-loop)
  /// arrival to service start, charged to the serving rank (zero for batch
  /// apps). Request time, not rank CPU time — it may overlap a checkpoint
  /// window or recovery wall-clock on the same rank — so it sits outside
  /// the blocked windows and is added symmetrically to both sums below.
  double svc_queue_wait_s = 0;
  /// Time this rank spent excluded from the membership view: crashed and
  /// awaiting detection/recovery, or live but wrongly evicted (fenced)
  /// until rejoin (zero with the detector off). Wall-clock exclusion, not
  /// rank CPU time — it may overlap recovery on the same rank — so like
  /// svc_queue_wait it sits outside the blocked windows and is added
  /// symmetrically to both sums below.
  double membership_wait_s = 0;
  /// Sum of this rank's checkpoint blocking windows (== the protocol's
  /// app_blocked share; the first five buckets partition it exactly).
  double blocked_total_s = 0;

  [[nodiscard]] double bucket_sum_s() const noexcept {
    return sync_wait_s + mem_copy_s + stable_write_s + storage_contention_s +
           logging_s + interference_s + recovery_s + retransmit_wait_s +
           storage_retry_wait_s + svc_queue_wait_s + membership_wait_s;
  }
  [[nodiscard]] double total_s() const noexcept {
    return blocked_total_s + interference_s + recovery_s + retransmit_wait_s +
           svc_queue_wait_s + membership_wait_s;
  }
};

struct AttributionReport {
  std::vector<RankBuckets> ranks;
  RankBuckets total;  ///< element-wise sum over ranks
};

/// Fold a trace into per-rank buckets. Events with rank >= num_ranks
/// (metadata) are ignored.
[[nodiscard]] AttributionReport attribute(const Trace& trace, std::size_t num_ranks);

}  // namespace chk::obs
