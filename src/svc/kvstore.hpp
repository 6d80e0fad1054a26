// svc: a request-serving workload — the paper's checkpoint schemes measured
// by what a live service feels, not by batch completion time.
//
// A sharded in-memory key-value store is hosted on the existing ranks: keys
// are hash-partitioned, each rank owns one shard and also runs an open-loop
// Poisson client population (the stand-in for "millions of users" — the
// aggregate arrival process of a large population is Poisson, so one
// forked, schedule-independent RNG stream per rank with a fixed draw order
// generates it exactly). Requests and responses are ordinary application
// messages over the comm/transport layer, so the link and storage fault
// domains compose with the workload for free; the shard state is registered
// with the checkpoint registry (dynamic regions — it grows and shrinks with
// the put/delete mix) and recovered through the normal stable-storage door.
//
// The measurement is per-request end-to-end latency against the *scheduled*
// arrival time: a request that lands while its owner rank is blocked in a
// checkpoint window or replaying after a rollback waits, and that wait is
// the scheme's cost. Latencies land in a power-of-two log histogram kept
// in registered state (deterministic across replay), and the wait from
// scheduled arrival to service start is emitted as kSvcQueueWait spans for
// the attribution buckets.
//
// Conflict resolution is last-writer-wins on a version derived from
// (scheduled arrival, client rank, request seq). The final shard contents
// are then a pure function of the generated request *set* — independent of
// message interleaving, scheme, and fault timing — which is what makes the
// result digest comparable across all five schemes and checkable against a
// simulator-free reference (svc_reference_digest).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chklib/runtime.hpp"

namespace chk::svc {

using chklib::AppContext;
using chklib::AppFn;
using chklib::Rank;

/// RNG stream tag for the per-rank client population: the stream is forked
/// off the rank's root stream and kept inside registered state, so replay
/// after a rollback continues the draw sequence exactly.
inline constexpr std::uint64_t kSvcStreamTag = 0x57C0;

/// Latency histogram range: power-of-two buckets from 2^13 ns (~8 us, well
/// below one request's service time) to 2^40 ns (~18 min, far above any
/// recovery window). +1 bucket for overflow.
inline constexpr int kLatMinExp = 13;
inline constexpr int kLatMaxExp = 40;
inline constexpr std::size_t kLatBuckets =
    static_cast<std::size_t>(kLatMaxExp - kLatMinExp + 1) + 1;

/// Merged workload metrics, filled in by rank 0 when the service drains
/// (reduce over all ranks; survives only the final, completed execution, so
/// faulty runs report the state that actually terminated).
struct SvcMetrics {
  std::uint64_t issued = 0;      ///< requests generated (all ranks)
  std::uint64_t completed = 0;   ///< responses observed by their client
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t hits = 0;        ///< gets that found a live value
  std::uint64_t live_keys = 0;   ///< non-tombstone entries at drain
  std::uint64_t live_bytes = 0;  ///< their value bytes at drain
  std::uint64_t latency_sum_ns = 0;
  std::uint64_t latency_max_ns = 0;
  std::uint64_t queue_wait_sum_ns = 0;  ///< scheduled arrival -> service start
  /// Merged end-to-end latency counts, kLatBuckets entries binned by
  /// obs::LogHistogram::bucket_of(lat_ns, kLatMinExp, kLatMaxExp).
  std::vector<std::uint64_t> latency_counts;
};

struct SvcParams {
  std::uint64_t keys = 4096;   ///< keyspace size (hash-partitioned)
  std::uint64_t prefill = 512; ///< keys [0, prefill) pre-populated at init
  double zipf_s = 0.9;         ///< keyspace skew exponent (0 = uniform)
  double arrival_hz = 400.0;   ///< per-rank open-loop arrival rate
  double horizon_s = 4.0;      ///< arrivals are scheduled in [0, horizon)
  double get_frac = 0.70;      ///< op mix: gets
  double put_frac = 0.25;      ///< puts; the remainder are deletes
  std::uint32_t min_value_bytes = 64;
  std::uint32_t max_value_bytes = 512;
  double service_flops = 40.0;   ///< owner-side CPU per request
  double flops_per_byte = 0.05;  ///< plus this per value byte moved
  /// When set, rank 0 stores the merged SvcMetrics here at drain.
  std::shared_ptr<SvcMetrics> sink;
};

/// Rank that owns `key`'s shard.
[[nodiscard]] std::size_t svc_owner(std::uint64_t key, std::size_t nprocs) noexcept;

/// Build the service application (one AppFn hosting shard + clients).
[[nodiscard]] AppFn make_svc(SvcParams params);

/// The digest make_svc's rank 0 reports, computed without the simulator by
/// generating every rank's request schedule and applying last-writer-wins
/// directly. `seed` is the experiment seed (ExperimentConfig::seed).
[[nodiscard]] double svc_reference_digest(const SvcParams& params, std::size_t nprocs,
                                          std::uint64_t seed);

}  // namespace chk::svc
